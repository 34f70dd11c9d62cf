"""Serving child process: one ``AsyncPadeServer`` for an online workload.

Run by ``perfbench/run.py``, never by hand::

    python -m perfbench.server_child --workload rag_prefix [--trace-out FILE]
    python -m perfbench.server_child --workload long_decode --probe

Prints one JSON line ``{"ready": true, "port": N}`` once it can take its
first request, serves until a client sends ``shutdown``, then prints one
JSON line of counters (peak RSS, engine and scheduler counts) and exits.
With ``--trace-out`` the engine, scheduler and server instances are
wrapped by :mod:`perfbench.tracing` and the spans are written to that
file after the shutdown.  ``--probe`` builds the stack the workload
serves with (server bound for online workloads, scheduler started for
the in-process one), reports ready and exits: one ``setup_s`` sample.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path


def _ready(port: int) -> None:
    print(json.dumps({"ready": True, "port": port}), flush=True)


async def _serve(spec, trace_out) -> dict:
    from repro.serve.server import AsyncPadeServer

    from perfbench.stack import build_engine, peak_rss_mb, scheduler_kwargs, stack_counts
    from perfbench.tracing import Tracer, instrument_server

    tracer = Tracer() if trace_out else None
    engine = build_engine(tracer)
    server = AsyncPadeServer(
        engine, host="127.0.0.1", port=0, queue_limit=spec.queue_limit, **scheduler_kwargs(spec)
    )
    if tracer is not None:
        instrument_server(server, tracer)
    await server.start()
    _ready(server.port)
    await server.wait_closed()
    counts = stack_counts(engine, server.scheduler)
    if tracer is not None:
        Path(trace_out).write_text(json.dumps(tracer.dump()))
    return {"peak_rss_mb": peak_rss_mb(), "counts": counts}


async def _probe_online(spec) -> None:
    from repro.serve.server import AsyncPadeServer

    from perfbench.stack import build_engine, scheduler_kwargs

    server = AsyncPadeServer(
        build_engine(), host="127.0.0.1", port=0, queue_limit=spec.queue_limit,
        **scheduler_kwargs(spec),
    )
    await server.start()
    _ready(server.port)
    await server.stop()


def _probe_offline(spec) -> None:
    from repro.engine.scheduler import ContinuousScheduler

    from perfbench.stack import build_engine, scheduler_kwargs

    ContinuousScheduler(build_engine(), **scheduler_kwargs(spec)).start()
    _ready(0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    from perfbench.stack import pin_allocator
    from perfbench.workloads import get_spec

    pin_allocator()
    spec = get_spec(args.workload)
    if args.probe:
        if spec.online:
            asyncio.run(_probe_online(spec))
        else:
            _probe_offline(spec)
        return 0
    summary = asyncio.run(_serve(spec, args.trace_out))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
