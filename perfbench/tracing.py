"""In-memory span tracing around the public calls into each serving layer.

Nothing under ``src/`` is instrumented.  The traced run wraps, from here:

* ``core``  — a timing :class:`KernelBackend` passed as
  ``PadeEngine(backend=...)`` (every filter dispatch);
* ``engine`` — prefill / decode-append / attend entry points on the
  engine instance the benchmark builds;
* ``cache`` — the ``planes``/``values`` gathers, ``append`` and
  ``prefill`` of every paged cache the engine is handed (the instance's
  class is swapped for a timing subclass at its first prefill);
* ``sched`` — ``step``/``submit``/``fits_budget`` on the scheduler
  instance;
* ``serve`` — the server's round-boundary methods and token sink on the
  server instance, plus the protocol functions the server module calls.

Spans record name, start, end and parent (the span open in the same
asyncio task, via a context variable).  A span's *self time* is its
duration minus its direct children's.  Spans stay in memory and are
exported once, as Chrome Trace Event JSON, when the run ends.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import numpy as np

LAYERS = ("core", "cache", "engine", "sched", "serve")


class Tracer:
    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index, round]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.round = 0  # scheduler steps started so far
        self._parent = contextvars.ContextVar("perfbench_span", default=-1)

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. an untimed warm-up)."""
        self.spans.clear()
        self.counts.clear()
        self.samples.clear()
        self.round = 0

    def mark(self) -> tuple:
        """A point for :meth:`rewind` to return to; take it with no span open."""
        samples = {k: list(v) for k, v in self.samples.items()}
        return len(self.spans), dict(self.counts), samples, self.round

    def rewind(self, mark: tuple) -> None:
        """Forget everything recorded since ``mark`` (e.g. an untimed drain)."""
        n, counts, samples, self.round = mark
        del self.spans[n:]
        self.counts = defaultdict(float, counts)
        self.samples = defaultdict(list, samples)

    def begin(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._parent.get(), self.round])
        return idx, self._parent.set(idx)

    def end(self, token) -> None:
        idx, ctx_token = token
        self.spans[idx][2] = time.perf_counter_ns()
        self._parent.reset(ctx_token)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            token = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token)

        return timed

    def wrap_async(self, fn, name: str):
        @functools.wraps(fn)
        async def timed(*args, **kwargs):
            token = self.begin(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                self.end(token)

        return timed

    # ------------------------------------------------------------------
    def self_times_ns(self) -> np.ndarray:
        starts = np.array([s[1] for s in self.spans], dtype=np.int64)
        ends = np.array([s[2] for s in self.spans], dtype=np.int64)
        parents = np.array([s[3] for s in self.spans], dtype=np.int64)
        dur = ends - starts
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def totals_ms(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self milliseconds."""
        selfs = self.self_times_ns()
        out: Dict[str, Dict[str, float]] = {}
        for span, self_ns in zip(self.spans, selfs):
            row = out.setdefault(span[0], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (span[2] - span[1]) / 1e6
            row["self_ms"] += self_ns / 1e6
        return out

    def per_round_self_ms(self, prefix: str) -> List[float]:
        """Self time of spans named ``prefix*`` summed per scheduler round."""
        selfs = self.self_times_ns()
        rounds: Dict[int, float] = defaultdict(float)
        for span, self_ns in zip(self.spans, selfs):
            if span[0].startswith(prefix):
                rounds[span[4]] += self_ns / 1e6
        return [rounds[k] for k in sorted(rounds)]

    def durations_ms(self, name: str) -> List[float]:
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name]

    def export(self, path: Path) -> None:
        """Write the spans as Chrome Trace Event Format JSON (open in
        ``chrome://tracing`` or Perfetto); times in microseconds from the
        first span."""
        epoch = min((span[1] for span in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - epoch) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 0,
                "args": {"parent": parent, "round": rnd},
            }
            for name, start, end, parent, rnd in self.spans
        ]
        path.write_text(json.dumps({"traceEvents": events}))

    def child_ms(self, parent_name: str, child_prefix: str) -> float:
        """Total duration of ``child_prefix*`` spans directly under
        ``parent_name`` spans."""
        total = 0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and name.startswith(child_prefix) and self.spans[parent][0] == parent_name:
                total += end - start
        return total / 1e6

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()}}

    @classmethod
    def load(cls, data: dict) -> "Tracer":
        tracer = cls()
        tracer.spans = [list(s) for s in data["spans"]]
        tracer.counts.update(data["counts"])
        for k, v in data["samples"].items():
            tracer.samples[k] = list(v)
        return tracer


# ---------------------------------------------------------------------------
# core: timing kernel backend
# ---------------------------------------------------------------------------

class TimingBackend:
    """A :class:`KernelBackend` that times every dispatch of ``inner``."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.name = f"{inner.name}+timing"
        self.filter = tracer.wrap(inner.filter, "core.filter")
        self.filter_row = tracer.wrap(inner.filter_row, "core.filter")
        self.filter_heads = tracer.wrap(inner.filter_heads, "core.filter")
        self.filter_heads_batch = tracer.wrap(inner.filter_heads_batch, "core.filter")


# ---------------------------------------------------------------------------
# cache: timing subclass swapped onto the engine's paged caches
# ---------------------------------------------------------------------------

def _timed_cache_class(base, tracer: Tracer):
    def gather(prop, name):
        def get(self):
            token = tracer.begin("cache.gather")
            try:
                out = prop.fget(self)
            finally:
                tracer.end(token)
            arr = out.planes if name == "planes" else out
            tracer.counts["cache.gather_bytes"] += arr.nbytes
            return out

        return property(get)

    return type(
        f"Timed{base.__name__}",
        (base,),
        {
            "planes": gather(base.planes, "planes"),
            "values": gather(base.values, "values"),
            "append": tracer.wrap(base.append, "cache.append"),
            "prefill": tracer.wrap(base.prefill, "cache.prefill"),
            "begin_prefill": tracer.wrap(base.begin_prefill, "cache.prefill_begin"),
            "extend_prefill": tracer.wrap(base.extend_prefill, "cache.prefill_write"),
        },
    )


def instrument_engine(engine, tracer: Tracer) -> None:
    """Wrap the engine instance's entry points (the kernel is already a
    :class:`TimingBackend`) and time the caches it is handed."""
    timed_classes: Dict[type, type] = {}

    def adopt(cache) -> None:
        cls = type(cache)
        if cls in timed_classes.values():
            return
        if cls not in timed_classes:
            timed_classes[cls] = _timed_cache_class(cls, tracer)
        cache.__class__ = timed_classes[cls]

    def adopting(fn, name):
        inner = tracer.wrap(fn, name)

        @functools.wraps(fn)
        def call(cache, *args, **kwargs):
            adopt(cache)
            return inner(cache, *args, **kwargs)

        return call

    engine.prefill = adopting(engine.prefill, "engine.prefill")
    engine.decode_append = tracer.wrap(engine.decode_append, "engine.append")
    engine.decode_attend_batch = tracer.wrap(engine.decode_attend_batch, "engine.attend")


def instrument_scheduler(scheduler, tracer: Tracer) -> None:
    step = scheduler.step

    @functools.wraps(step)
    def timed_step():
        tracer.round += 1
        token = tracer.begin("sched.step")
        progressed = False
        try:
            progressed = step()
            return progressed
        finally:
            tracer.end(token)
            if progressed:
                tracer.samples["sched.batch"].append(scheduler.occupancy[-1][2])
            else:  # nothing queued or active: not a round
                tracer.spans[token[0]][0] = "sched.idle"
                tracer.round -= 1

    scheduler.step = timed_step
    scheduler.submit = tracer.wrap(scheduler.submit, "sched.submit")
    scheduler.fits_budget = tracer.wrap(scheduler.fits_budget, "sched.fits_budget")


def instrument_server(server, tracer: Tracer) -> None:
    """Wrap an :class:`AsyncPadeServer` instance and the protocol calls its
    module makes.  Call before ``server.start()``."""
    import repro.serve.server as server_mod

    server_mod.decode_request = tracer.wrap(server_mod.decode_request, "serve.decode_request")
    server_mod.decode_message = tracer.wrap(server_mod.decode_message, "serve.decode_message")
    instrument_scheduler(server.scheduler, tracer)

    accepted_at: Dict[str, float] = {}
    on_submit = tracer.wrap(server._on_submit, "serve.on_submit")

    def timed_on_submit(conn, msg):
        queued = len(server._accept_queue)
        on_submit(conn, msg)
        if len(server._accept_queue) > queued:
            accepted_at[str(msg["request"]["request_id"])] = time.perf_counter()

    submit = server.scheduler.submit

    def timed_submit(request):
        start = accepted_at.pop(request.request_id, None)
        if start is not None:
            tracer.samples["serve.accept_wait_ms"].append((time.perf_counter() - start) * 1e3)
        return submit(request)

    server._on_submit = timed_on_submit
    server.scheduler.submit = timed_submit
    server.scheduler.token_sink = tracer.wrap(server._on_token, "serve.encode_token")
    server._drain_accepts = tracer.wrap(server._drain_accepts, "serve.loop.drain_accepts")
    server._stamp_admits = tracer.wrap(server._stamp_admits, "serve.loop.stamp_admits")
    server._dispatch_done = tracer.wrap(server._dispatch_done, "serve.loop.dispatch_done")
    # The engine loop and every client handler await the same flush; only
    # the engine loop's calls are loop time.
    flush = server._flush_outboxes
    loop_flush = tracer.wrap_async(flush, "serve.loop.flush")
    client_flush = tracer.wrap_async(flush, "serve.client.flush")

    def timed_flush():
        if asyncio.current_task() is server._engine_task:
            return loop_flush()
        return client_flush()

    server._flush_outboxes = timed_flush


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def format_table(tracer: Tracer, title: str, wall_ms: float) -> str:
    """Per span name and per layer: calls, total and self milliseconds,
    self time as a share of the serve wall time."""
    spans = tracer.totals_ms()
    layers: Dict[str, float] = defaultdict(float)
    for name, row in spans.items():
        layers[name.split(".", 1)[0]] += row["self_ms"]
    lines = [f"{title}  (serve wall {wall_ms:.1f} ms)",
             f"  {'span':28s} {'calls':>8s} {'total ms':>11s} {'self ms':>11s} {'self %':>7s}"]
    for name, row in sorted(spans.items()):
        lines.append(
            f"  {name:28s} {row['calls']:8d} {row['total_ms']:11.1f} "
            f"{row['self_ms']:11.1f} {100 * row['self_ms'] / wall_ms:6.1f}%"
        )
    rows = [(layer, layers[layer]) for layer in LAYERS if layer in layers]
    traced = sum(ms for _, ms in rows)
    rows += [("sum of layer self times", traced), ("outside every span", wall_ms - traced)]
    lines.append(f"  {'layer':28s} {'':>8s} {'':>11s} {'self ms':>11s} {'self %':>7s}")
    for label, ms in rows:
        lines.append(f"  {label:28s} {'':>8s} {'':>11s} {ms:11.1f} {100 * ms / wall_ms:6.1f}%")
    return "\n".join(lines)
