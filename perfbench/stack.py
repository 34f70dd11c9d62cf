"""Building and driving the serving stack through its public entry points.

Shared by the in-process (offline) workload and the serving child
process, so both build the engine and scheduler the same way and read
the same counters.
"""

from __future__ import annotations

import ctypes
import resource
import time
from dataclasses import asdict, replace
from typing import Dict, List, Optional, Tuple

from perfbench.hostspeed import without
from perfbench.metrics import RequestRecord
from perfbench.tracing import TimingBackend, Tracer, instrument_engine, instrument_scheduler
from perfbench.workloads import BLOCK_SIZE, WorkloadSpec


def pin_allocator() -> None:
    """Start glibc malloc in the state its dynamic thresholds reach once a
    process has freed its first large arrays: 32 MiB mmap threshold (the
    dynamic maximum), 64 MiB trim threshold.

    Without this, a fresh process spends its first tens of seconds
    returning freed numpy temporaries to the kernel and page-faulting
    them back (hundreds of thousands of faults in its first 10 s of
    decoding), at a cost that varies with the host's memory pressure.
    No effect off glibc.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def build_engine(tracer: Optional[Tracer] = None):
    from repro.core.backend import get_backend
    from repro.engine import PadeEngine

    backend = get_backend("fast")
    if tracer is None:
        return PadeEngine(backend=backend)
    engine = PadeEngine(backend=TimingBackend(backend, tracer))
    instrument_engine(engine, tracer)
    return engine


def scheduler_kwargs(spec: WorkloadSpec) -> Dict:
    return dict(
        max_active=spec.max_active,
        token_budget=spec.token_budget,
        block_size=BLOCK_SIZE,
        prefix_sharing=spec.prefix_sharing,
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stack_counts(engine, scheduler, stats: Optional[Dict[str, int]] = None) -> Dict[str, float]:
    """Cache and kernel counts of one ``start() .. finish()`` run of
    ``scheduler`` (its event trace and occupancy timeline restart with
    every ``start()``); the kernel ratios count ``stats``, by default the
    engine's ``EngineStats`` totals."""
    if stats is None:
        stats = asdict(engine.stats)
    pool = scheduler.pool
    hits, misses = scheduler.prefix_hit_blocks, scheduler.prefix_miss_blocks
    peak_used = max((used for _, used, _ in scheduler.occupancy), default=0)
    events = [event for event, _ in scheduler.trace]
    return {
        "prefix_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "peak_pool_occupancy": peak_used / pool.token_budget if pool is not None else 0.0,
        "preemptions": float(events.count("preempt")),
        "leaked_blocks": float(pool.used_block_count) if pool is not None else 0.0,
        "bit_ops_ratio": stats["effective_bit_ops"] / max(1, stats["naive_bit_ops"]),
        "keep_ratio": stats["retained_keys"] / max(1, stats["candidate_keys"]),
        "pad_ratio": stats["fused_rows"] / max(1, stats["fused_padded_rows"]),
    }


def _truncated(request, steps: int, request_id: str):
    return replace(
        request, request_id=request_id, decode_q=request.decode_q[:, :steps],
        decode_k=request.decode_k[:, :steps], decode_v=request.decode_v[:, :steps],
    )


def run_offline(
    spec: WorkloadSpec, requests, seconds: float, host, tracer: Optional[Tracer] = None
):
    """Keep ``max_active`` requests decoding for ``seconds`` of wall time.

    One engine and one ``ContinuousScheduler`` (so one pool) serve one
    ``start() .. finish()`` run.  The batch starts staggered: slot ``j``
    serves an untimed warm-up request cut to ``(j + 1) * stride`` decode
    tokens, ``stride = decode_steps // max_active``, so one request
    completes every ``stride`` rounds.  Each completion submits the next
    full request (templates in turn), due at once; the measured window
    opens at the first completion and closes at the first round boundary
    ``seconds`` later.  The requests then in flight are served to
    completion, without replacement.

    The scheduler's token sink stamps each token's wall time.  After
    every ``stride`` rounds of the window, ``host`` (a
    :class:`~perfbench.hostspeed.HostSpeed`) samples the host's speed.
    Those samples, and the digesting of each finished result, are cut
    out of every timestamp returned.  Returns the records of the
    requests submitted in the window, every request's token times, the
    window ``(t0, t1)`` on that clock and on the wall clock, the clock
    itself, the rounds the window holds and the counts.  A tracer keeps
    only the window's spans.
    """
    from repro.engine.scheduler import ContinuousScheduler
    from repro.serve.protocol import result_digests

    engine = build_engine(tracer)
    scheduler = ContinuousScheduler(engine, **scheduler_kwargs(spec))
    if tracer is not None:
        instrument_scheduler(scheduler, tracer)
    times: Dict[str, List[float]] = {}
    scheduler.token_sink = lambda rid, step, output: times[rid].append(time.perf_counter())

    def submit(request) -> None:
        times[request.request_id] = []
        scheduler.submit(request)

    stride = max(1, spec.decode_steps // spec.max_active)
    results = scheduler.start()
    for j in range(spec.max_active):
        submit(_truncated(requests[j % len(requests)], (j + 1) * stride, f"warm{j}"))

    submitted: List[Tuple[str, object, float]] = []  # (id, template, due)
    done: Dict[str, dict] = {}
    # Intervals of the benchmark's own work between rounds (digesting
    # finished results, host-speed samples): cut out of every timestamp.
    pauses: List[Tuple[float, float]] = []
    t0 = t1 = None
    rounds = 0
    while scheduler.step():
        now = time.perf_counter()
        finished = list(results)
        for rid in finished:  # consumed at once, so memory does not grow with speed
            res = results.pop(rid)
            if not rid.startswith("warm"):
                done[rid] = {"status": res.status,
                             "decode_tokens": int(res.decode_outputs.shape[1]),
                             **result_digests(res)}
        if finished:
            pauses.append((now, time.perf_counter()))
        if t0 is None:
            if not finished:
                continue
            t0 = now
            if tracer is not None:
                tracer.reset()
            stats_at_t0 = asdict(engine.stats)
        elif t1 is None:
            rounds += 1
            if now - t0 >= seconds:
                t1 = now
                window_stats = {k: v - stats_at_t0[k] for k, v in asdict(engine.stats).items()}
                if tracer is not None:
                    window_end = tracer.mark()
        if t1 is None:
            for _ in finished:
                template = requests[len(submitted) % len(requests)]
                rid = f"r{len(submitted)}-{template.request_id}"
                submit(replace(template, request_id=rid))
                submitted.append((rid, template, now))
            if rounds % stride == 0:
                pauses.append(host.sample())
    if t1 is None:
        raise RuntimeError("the run ended before its measured window closed")
    scheduler.finish()
    if tracer is not None:
        tracer.rewind(window_end)
    clock = without(pauses)
    times = {rid: [clock(t) for t in stamps] for rid, stamps in times.items()}

    records = [
        RequestRecord(request_id=rid, template=template.request_id, due=clock(due),
                      sent=clock(due), token_times=times[rid], done=done[rid])
        for rid, template, due in submitted
    ]
    counts = stack_counts(engine, scheduler, window_stats)
    return records, list(times.values()), (clock(t0), clock(t1)), (t0, t1), clock, rounds, counts
