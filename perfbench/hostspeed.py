"""Host speed: a fixed kernel timed throughout every measured phase.

The benchmark runs on shared virtual machines whose speed changes as
the other tenants' load comes and goes: measured on a 2-vCPU Xeon VM,
the same ``long_decode`` decode round took 100 ms and, a minute later,
60 ms, with no steal time in ``/proc/stat``.  Every wall-clock timing
moves with it, and no statistic over one run removes a change that
outlasts the run.  A fixed kernel moves the same way: its shape follows
``long_decode``'s hot loop (a paged gather from a 3 MiB pool, bit
unpacking, a float matmul, a top-k and some interpreter work), and over
a 2x swing of the round time the round time divided by the kernel time,
both taken through the same 20 s, stayed within 6%.

So each measured phase samples the kernel while it runs, at moments
that stall nothing it measures: between two setup launches, between two
``long_decode`` rounds (the sample's time is then cut out of the run's
clock, :func:`without`), and in the load generator while no request is
in flight and none is due for a while.  A sample's *slowdown* is its
kernel time over :data:`REFERENCE_MS`.  The benchmark maps a run's
timestamps onto a clock that runs at the reference speed
(:meth:`HostSpeed.reference_clock`) and divides ``setup_s`` by the setup
phase's median slowdown.  The kernel is the benchmark's own code and
data; nothing under ``src/`` runs in it, so a change to the serving
stack does not move it.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
import time
from typing import Callable, List, Tuple

import numpy as np

#: Median kernel time (ms) on the uncontended 2-vCPU Xeon VM the
#: benchmark was built on; timings are reported at this speed.
REFERENCE_MS = 2.3

#: The host's speed at a moment is the median sample within this many
#: seconds of it: long enough to hold about five samples between
#: ``long_decode`` rounds, short enough to follow a change of speed.
LOCAL_S = 2.0


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(0x4057)
        self._pool = rng.integers(0, 256, (4096, 16, 48), dtype=np.uint8)
        self._table = rng.permutation(4096)[:1024]
        self._query = rng.standard_normal(48).astype(np.float32)
        #: ``(start, end, kernel ms)`` of every sample, on ``perf_counter``.
        self.samples: List[Tuple[float, float, float]] = []

    def _kernel_ms(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            gathered = self._pool[self._table]
            bits = np.unpackbits(gathered[:, :, :8], axis=-1).sum(axis=-1, dtype=np.int32)
            scores = gathered.astype(np.float32) @ self._query + bits
            np.argpartition(scores.ravel(), -64)
            acc = 0
            for i in range(3000):
                acc += i
        return (time.perf_counter() - start) * 1000.0

    def sample(self) -> Tuple[float, float]:
        """Run the kernel twice and keep the second, warm-cache time;
        returns the sample's ``(start, end)``."""
        start = time.perf_counter()
        self._kernel_ms()
        ms = self._kernel_ms()
        end = time.perf_counter()
        self.samples.append((start, end, ms))
        return start, end

    def slowdown(self, t0: float, t1: float) -> float:
        """Median kernel time of the samples taken in ``[t0, t1]`` over
        the reference (2.0 = the host ran at half the reference speed)."""
        inside = [ms for start, _, ms in self.samples if t0 <= start <= t1]
        if not inside:
            raise ValueError("no host-speed sample in the phase")
        return statistics.median(inside) / REFERENCE_MS


    def reference_clock(
        self, t0: float, t1: float, cut: Callable[[float], float] = lambda t: t
    ) -> Callable[[float], float]:
        """A clock for ``[t0, t1]`` that runs at the reference speed.

        ``cut`` maps ``perf_counter`` times onto the phase's clock (which
        may stop during pauses, :func:`without`); the returned function
        maps that clock's times onto one where every stretch counts
        divided by the host's slowdown at the time: the median sample
        within :data:`LOCAL_S` of it, over :data:`REFERENCE_MS`.
        """
        near = [(cut(start), ms) for start, _, ms in self.samples
                if t0 - LOCAL_S <= start <= t1 + LOCAL_S]
        if not near:
            raise ValueError("no host-speed sample in the phase")
        marks = [t for t, _ in near]
        slow = [
            statistics.median(ms for _, ms in near[bisect.bisect_left(marks, t - LOCAL_S):
                                                   bisect.bisect_right(marks, t + LOCAL_S)])
            / REFERENCE_MS
            for t in marks
        ]
        base = [0.0]
        for i in range(1, len(marks)):
            base.append(base[-1] + (marks[i] - marks[i - 1]) / slow[i - 1])

        def clock(t: float) -> float:
            i = max(0, bisect.bisect_right(marks, t) - 1)
            return base[i] + (t - marks[i]) / slow[i]

        return clock


def without(pauses: List[Tuple[float, float]]) -> Callable[[float], float]:
    """Map ``perf_counter`` times onto a clock that stops during the
    (sorted, disjoint) ``pauses``."""
    ends = [end for _, end in pauses]
    cut = [0.0, *itertools.accumulate(end - start for start, end in pauses)]
    return lambda t: t - cut[bisect.bisect_right(ends, t)]
