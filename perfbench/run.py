"""Wall-clock serving benchmark of the PADE serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload long_decode --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload rag_prefix --seed 3 --seconds 40 --trace 1

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the workload untraced and then traced, and reports the per-layer
metrics, a per-layer self-time table and ``trace.overhead_frac``; its
spans are exported to ``perfbench/out/trace-<workload>-<seed>.json``.
Either way the outputs are checked against the reference backend and
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Timings are reported at a
reference host speed (``perfbench/hostspeed.py``); the human-readable
lines give the wall-clock values beside them.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Set before numpy loads, here and in the children: BLAS threads pinned
# to 1, and no transparent-huge-page advice on large arrays (whether the
# kernel grants huge pages varies run to run, and with it RSS and speed).
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
CACHE = BENCH / ".cache"

#: Launches of the serving process per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Host-speed samples taken after each launch (about 5 ms each).
HOST_SAMPLES_PER_LAUNCH = 4

def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def launch(workload: str, *extra: str):
    """Start the serving child; returns ``(process, seconds to ready, port)``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.server_child", "--workload", workload, *extra],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    try:
        port = json.loads(line)["port"]
    except (ValueError, KeyError):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"serving child for {workload} did not report ready: {line!r}")
    return proc, ready, port


def probe_setup(workload: str, samples: int, host) -> list:
    """Seconds from launching the serving process to ready, ``samples``
    times; the host's speed is sampled after each launch."""
    out = []
    for _ in range(samples):
        proc, ready, _ = launch(workload, "--probe")
        proc.communicate(timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        out.append(ready)
        for _ in range(HOST_SAMPLES_PER_LAUNCH):
            host.sample()
    return out


# ---------------------------------------------------------------------------
# Measured runs
# ---------------------------------------------------------------------------

def measure_offline(spec, templates, seconds, traced, host):
    from perfbench.stack import peak_rss_mb, run_offline
    from perfbench.tracing import Tracer

    tracer = Tracer() if traced else None
    records, streams, window, wall_window, clock, rounds, counts = run_offline(
        spec, templates, seconds, host, tracer)
    return {
        "records": records,
        "wall_s": window[1] - window[0],
        "window": window,
        "slowdown": host.slowdown(*wall_window),
        "reference_clock": host.reference_clock(*wall_window, cut=clock),
        "rounds": rounds,
        "streams": streams,
        "counts": counts,
        "peak_rss_mb": peak_rss_mb(),
        "leaked": int(counts["leaked_blocks"]),
        "tracer": tracer,
        "lag_ms": [0.0],
        "sent_bytes": 0,
    }


def measure_online(spec, templates, schedule, traced, seed, host):
    from perfbench.loadgen import lateness_ms, run_open_loop, submit_parts
    from perfbench.metrics import RequestRecord
    from perfbench.tracing import Tracer

    dues, order = schedule
    parts = {t.request_id: submit_parts(t) for t in templates}
    records = [
        RequestRecord(request_id=f"q{i}", template=templates[t].request_id, due=float(d))
        for i, (d, t) in enumerate(zip(dues, order))
    ]
    trace_file = OUT / f"spans-{spec.name}-{seed}.json"
    extra = ("--trace-out", str(trace_file)) if traced else ()
    proc, ready, port = launch(spec.name, *extra)
    try:
        result = asyncio.run(run_open_loop("127.0.0.1", port, records, parts,
                                           idle_probe=host.sample))
        summary_line, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"serving child exited with {proc.returncode}")
    summary = json.loads(summary_line.strip().splitlines()[-1])
    tracer = None
    if traced:
        tracer = Tracer.load(json.loads(trace_file.read_text()))
        trace_file.unlink()
    ack = result["ack"]
    start = min(r.due for r in records)
    return {
        "records": records,
        "wall_s": result["wall_s"],
        "slowdown": host.slowdown(start, start + result["wall_s"]),
        "reference_clock": host.reference_clock(start, start + result["wall_s"]),
        "counts": summary["counts"],
        "peak_rss_mb": summary["peak_rss_mb"],
        "leaked": None if ack is None else int(ack["leaked_blocks"]),
        "tracer": tracer,
        "lag_ms": lateness_ms(records),
        "sent_bytes": result["sent_bytes"],
        "ready_s": ready,
    }


def measure(spec, templates, schedule, seconds, traced, seed, host):
    if spec.online:
        return measure_online(spec, templates, schedule, traced, seed, host)
    return measure_offline(spec, templates, seconds, traced, host)


def run_metrics(spec, run):
    """End-to-end metrics at reference host speed, their notes and the
    wall-clock values.

    The reference metrics are computed from every timestamp mapped onto
    the run's reference clock (``perfbench/hostspeed.py``), except the
    throughput of an open loop below capacity, which the offered load
    sets, not the host."""
    from perfbench.metrics import end_to_end

    ref = run["reference_clock"]
    window = run.get("window")
    records = [
        replace(r, due=ref(r.due), sent=None if r.sent is None else ref(r.sent),
                token_times=[ref(t) for t in r.token_times])
        for r in run["records"]
    ]
    common = dict(ttft_limit_ms=spec.ttft_limit_ms, itl_limit_ms=spec.itl_limit_ms,
                  rounds=run.get("rounds"))
    wall, notes = end_to_end(run["records"], run["wall_s"], window=window,
                             streams=run.get("streams", ()), **common)
    if window is None:
        metrics, _ = end_to_end(records, run["wall_s"], **common)
        metrics["decode_tok_per_s"] = wall["decode_tok_per_s"]
    else:
        window = (ref(window[0]), ref(window[1]))
        streams = [[ref(t) for t in times] for times in run["streams"]]
        metrics, _ = end_to_end(records, window[1] - window[0], window=window,
                                streams=streams, **common)
    return metrics, notes, wall


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run
# ---------------------------------------------------------------------------

def per_layer(spec, run, untraced_tok_s, shareable):
    from perfbench.metrics import growth, percentile, tail

    tracer = run["tracer"]
    totals = tracer.totals_ms()
    wall_ms = run["wall_s"] * 1000.0
    counts = run["counts"]

    def total(name):
        return totals.get(name, {}).get("total_ms", 0.0)

    def self_ms(prefix):
        return sum(row["self_ms"] for name, row in totals.items() if name.startswith(prefix))

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    steps = tracer.durations_ms("sched.step")
    tok_s = run_metrics(spec, run)[0]["decode_tok_per_s"]
    layer_self = sum(row["self_ms"] for row in totals.values())
    sent = max(1, len(run["records"]))
    metrics = {
        "core.filter_calls": float(calls("core.filter")),
        "core.filter_ms": total("core.filter"),
        "core.filter_share": total("core.filter") / wall_ms,
        "core.bit_ops_ratio": counts["bit_ops_ratio"],
        "core.keep_ratio": counts["keep_ratio"],
        "core.pad_ratio": counts["pad_ratio"],
        "cache.gather_ms": total("cache.gather"),
        "cache.gather_mb": tracer.counts.get("cache.gather_bytes", 0.0) / 1e6,
        "cache.append_ms": self_ms("cache.append"),
        "cache.prefill_ms": self_ms("cache.prefill"),
        "cache.prefix_hit_rate": counts["prefix_hit_rate"],
        "cache.prefix_shareable_frac": shareable,
        "cache.peak_pool_occupancy": counts["peak_pool_occupancy"],
        "cache.preemptions": counts["preemptions"],
        "engine.attend_self_ms": self_ms("engine.attend"),
        "engine.prefill_attend_ms": total("engine.prefill")
        - tracer.child_ms("engine.prefill", "cache.prefill"),
        "sched.rounds": float(len(steps)),
        "sched.step_ms_p50": percentile(steps, 50.0) if steps else 0.0,
        "sched.step_ms_p99": tail(steps, 99.0)[0] if steps else 0.0,
        "sched.self_ms": self_ms("sched.step"),
        "sched.batch_mean": statistics.fmean(tracer.samples["sched.batch"] or [0.0]),
        "sched.self_growth": growth(tracer.per_round_self_ms("sched.step")),
        "serve.decode_request_ms": total("serve.decode_request"),
        "serve.decode_request_calls": float(calls("serve.decode_request")),
        "serve.encode_token_ms": total("serve.encode_token"),
        "serve.request_mb": run["sent_bytes"] / sent / 1e6,
        "serve.loop_self_ms": self_ms("serve.loop."),
        "serve.loop_self_growth": growth(tracer.per_round_self_ms("serve.loop."))
        if spec.online else 1.0,
        "serve.accept_wait_ms_p50": percentile(tracer.samples["serve.accept_wait_ms"], 50.0)
        if tracer.samples["serve.accept_wait_ms"] else 0.0,
        "loadgen.lag_p99_ms": tail(run["lag_ms"], 99.0)[0],
        "trace.overhead_frac": 1.0 - tok_s / untraced_tok_s,
        "trace.coverage_frac": layer_self / wall_ms,
    }
    return metrics


# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description="Wall-clock serving benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "serve" / "server.py").is_file():
        print(f"serving stack not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.stack import pin_allocator

    pin_allocator()
    from perfbench.hostspeed import HostSpeed
    from perfbench.metrics import END_TO_END_UNITS, PER_LAYER_UNITS, gate_failures
    from perfbench.tracing import format_table
    from perfbench.workloads import (
        arrival_schedule, get_spec, reference_digests, shareable_fraction, synthesize_templates,
    )

    spec = get_spec(args.workload)
    OUT.mkdir(parents=True, exist_ok=True)

    # Inputs first: synthesis stays outside every timed region and setup_s.
    templates = synthesize_templates(spec, args.seed)
    schedule = arrival_schedule(spec, args.seed, args.seconds) if spec.online else None

    host = HostSpeed()
    setup_clock = time.perf_counter()
    setup = probe_setup(spec.name, SETUP_SAMPLES - 1 if spec.online else SETUP_SAMPLES, host)
    setup_slowdown = host.slowdown(setup_clock, time.perf_counter())
    run = measure(spec, templates, schedule, args.seconds, False, args.seed, host)
    if spec.online:
        setup.append(run["ready_s"])
    traced = None
    if args.trace:
        traced = measure(spec, templates, schedule, args.seconds, True, args.seed, host)

    expected = reference_digests(spec, args.seed, templates, SRC, CACHE)
    problems = []
    for label, r in (("untraced", run), ("traced", traced)):
        if r is not None:
            problems += [f"{label}: {p}" for p in gate_failures(r["records"], expected, r["leaked"])]

    records = run["records"]
    e2e, notes, wall = run_metrics(spec, run)
    wall["setup_s"] = statistics.median(setup)
    e2e["setup_s"] = wall["setup_s"] / setup_slowdown
    e2e["peak_rss_mb"] = wall["peak_rss_mb"] = run["peak_rss_mb"]

    print(f"workload {spec.name}: seed {args.seed}, {len(records)} requests, "
          f"measured wall {run['wall_s']:.2f} s, host slowdown {run['slowdown']:.3f} "
          f"(setup {setup_slowdown:.3f})")
    print(f"  {'metric':20s} {'at ref speed':>14s} {'unit':6s} {'wall clock':>12s}")
    for name, unit in END_TO_END_UNITS.items():
        note = notes.get(name, "")
        print(f"  {name:20s} {e2e[name]:14.4f} {unit:6s} {wall[name]:12.4f} {note}")
    print(f"  setup samples (s, wall clock): {', '.join(f'{s:.3f}' for s in setup)}")

    if traced is not None:
        metrics = per_layer(spec, traced, e2e["decode_tok_per_s"],
                            shareable_fraction(spec, templates))
        units = PER_LAYER_UNITS
        print(format_table(traced["tracer"], f"per-layer self time, traced {spec.name}",
                           traced["wall_s"] * 1000.0))
        for name, unit in units.items():
            print(f"  {name:28s} {metrics[name]:14.4f} {unit}")
        trace_path = OUT / f"trace-{spec.name}-{args.seed}.json"
        traced["tracer"].export(trace_path)
        print(f"  spans exported to {trace_path.relative_to(ROOT)}")
    else:
        metrics, units = e2e, END_TO_END_UNITS

    for problem in problems:
        print(f"CORRECTNESS FAILURE: {problem}")
    failed = sum(1 for r in records if r.outcome != "ok")
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
