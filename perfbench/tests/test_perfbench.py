"""Unit tests of the serving benchmark's own rules.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench.hostspeed import REFERENCE_MS, HostSpeed, without
from perfbench.loadgen import lateness_ms, send_schedule, submit_parts
from perfbench.metrics import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    RequestRecord,
    account,
    gate_failures,
    goodput_fraction,
    percentile,
    supported_percentile,
    tail,
    window_tokens,
)
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS


def _ok(rid, due=0.0, first=0.010, gap=0.002, tokens=4, template="t0", digests=None):
    times = [due + first + gap * i for i in range(tokens)]
    done = {"status": "ok", "decode_tokens": tokens}
    done.update(digests or {"output_digest": "aa", "retained_digest": "bb"})
    return RequestRecord(rid, template, due, sent=due, token_times=times, done=done)


EXPECTED = {"t0": {"output_digest": "aa", "retained_digest": "bb"}}


# -- percentile sample-support rule ------------------------------------------

@pytest.mark.parametrize(
    "n, target, want",
    [(200, 95.0, 95.0), (1000, 99.0, 99.0), (5000, 99.0, 99.0), (40, 50.0, 50.0)],
)
def test_target_percentile_kept_with_ten_samples_beyond(n, target, want):
    assert supported_percentile(n, target) == want


@pytest.mark.parametrize("n, target", [(199, 95.0), (32, 95.0), (999, 99.0), (300, 99.0)])
def test_percentile_falls_back_to_keep_ten_samples_beyond(n, target):
    q = supported_percentile(n, target)
    assert q < target
    assert n * (1 - q / 100.0) == pytest.approx(10.0)


def test_percentile_never_below_median():
    assert supported_percentile(12, 95.0) == 50.0


def test_tail_reports_the_percentile_used():
    values = list(range(100))
    value, q, n = tail(values, 95.0)
    assert n == 100 and q == 90.0
    assert value == percentile(values, 90.0) == pytest.approx(np.percentile(values, 90.0))


# -- goodput and accounting ---------------------------------------------------

def test_goodput_counts_failures_as_misses():
    records = [
        _ok("fast"),
        _ok("slow_first", first=0.5),
        _ok("slow_gaps", gap=0.05),
        RequestRecord("rejected", "t0", 0.0, sent=0.0, rejected="overloaded"),
        RequestRecord("unanswered", "t0", 0.0, sent=0.0),
        RequestRecord("aborted", "t0", 0.0, sent=0.0, token_times=[0.001],
                      done={"status": "aborted", "decode_tokens": 1}),
    ]
    assert goodput_fraction(records, ttft_limit_ms=100.0, itl_limit_ms=10.0) == pytest.approx(1 / 6)
    assert account(records) == {"ok": 3, "rejected": 1, "aborted": 1, "unanswered": 1}


def test_goodput_of_all_good_is_one():
    assert goodput_fraction([_ok("a"), _ok("b")], 100.0, 10.0) == 1.0


# -- correctness gate ---------------------------------------------------------

def test_gate_passes_matching_digests_and_zero_leaks():
    assert gate_failures([_ok("a"), _ok("b")], EXPECTED, leaked_blocks=0) == []


def test_gate_rejects_a_tampered_digest():
    tampered = _ok("b", digests={"output_digest": "aa", "retained_digest": "bX"})
    problems = gate_failures([_ok("a"), tampered], EXPECTED, leaked_blocks=0)
    assert len(problems) == 1 and "digest mismatch" in problems[0] and "'b'" in problems[0]


def test_gate_rejects_leaks_and_a_missing_ack():
    assert "leaked" in gate_failures([_ok("a")], EXPECTED, leaked_blocks=2)[0]
    assert "no shutdown_ack" in gate_failures([_ok("a")], EXPECTED, leaked_blocks=None)[0]


def test_gate_rejects_a_lost_token():
    rec = _ok("a")
    rec.token_times.pop()
    assert "tokens streamed" in gate_failures([rec], EXPECTED, leaked_blocks=0)[0]


def test_failures_are_not_digest_mismatches():
    rejected = RequestRecord("r", "t0", 0.0, sent=0.0, rejected="too-large")
    assert gate_failures([_ok("a"), rejected], EXPECTED, leaked_blocks=0) == []


# -- load generator -----------------------------------------------------------

class _SlowWriter:
    """A stream writer whose every drain blocks for ``delay`` seconds."""

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self.lines = []

    def writelines(self, parts) -> None:
        self.lines.append(b"".join(parts))

    async def drain(self) -> None:
        await asyncio.sleep(self.delay)


def _schedule(writer, dues):
    records = [RequestRecord(f"q{i}", "t0", due) for i, due in enumerate(dues)]
    parts = {"t0": (b'{"id":"', b'"}\n')}
    sent = asyncio.run(send_schedule(writer, records, parts, time.perf_counter()))
    return records, sent


def test_generator_lateness_is_reported_not_hidden():
    records, _ = _schedule(_SlowWriter(0.05), [0.0, 0.001, 0.002, 0.003])
    late = lateness_ms(records)
    assert len(late) == 4
    assert late[-1] > 100.0  # three 50 ms drains queued ahead of it
    assert all(r.sent >= r.due for r in records)


def test_generator_on_schedule_when_the_server_keeps_up():
    writer = _SlowWriter(0.0)
    records, sent = _schedule(writer, [0.0, 0.02, 0.04])
    assert max(lateness_ms(records)) < 15.0
    assert writer.lines[1] == b'{"id":"q1"}\n'
    assert sent == sum(len(line) for line in writer.lines)


def test_idle_hook_runs_before_each_wait_with_the_count_sent():
    calls = []

    async def on_idle(sent, due):
        calls.append((sent, due))

    records = [RequestRecord(f"q{i}", "t0", due) for i, due in enumerate([0.0, 0.02, 0.04])]
    parts = {"t0": (b'{"id":"', b'"}\n')}
    asyncio.run(send_schedule(_SlowWriter(0.0), records, parts, time.perf_counter(), on_idle))
    assert [sent for sent, _ in calls] == [0, 1, 2]
    assert [due for _, due in calls] == [r.due for r in records]
    assert max(lateness_ms(records)) < 15.0


def test_submit_line_splices_the_request_id():
    from repro.engine import EngineRequest
    from repro.serve.protocol import decode_message, decode_request

    rng = np.random.default_rng(0)
    template = EngineRequest(
        "template", k=rng.normal(size=(2, 5, 4)), v=rng.normal(size=(2, 5, 4)),
        decode_q=rng.normal(size=(2, 3, 4)), decode_k=rng.normal(size=(2, 3, 4)),
        decode_v=rng.normal(size=(2, 3, 4)),
    )
    head, tail = submit_parts(template)
    msg = decode_message(head + b"q17" + tail)
    assert msg["type"] == "submit" and msg["arrival"] == "now"
    request = decode_request(msg["request"])
    assert request.request_id == "q17"
    np.testing.assert_array_equal(request.k, template.k)
    np.testing.assert_array_equal(request.decode_v, template.decode_v)


# -- measured window of a steady batch ---------------------------------------

def test_window_counts_only_tokens_and_gaps_inside_it():
    streams = [[0.5, 1.0, 1.5, 2.0, 2.5], [1.2, 1.4], [3.0, 3.5]]
    tokens, gaps = window_tokens(streams, 1.0, 2.0)
    # The token at t0 opens the window and is not counted; 3.0 is past t1.
    assert tokens == 4
    assert gaps == pytest.approx([500.0, 500.0, 200.0])


def test_clock_without_pauses_stops_during_them():
    clock = without([(1.0, 1.5), (3.0, 3.25)])
    assert clock(0.5) == 0.5
    assert clock(2.0) == pytest.approx(1.5)
    assert clock(4.0) == pytest.approx(3.25)
    # A gap across a pause loses exactly the pause.
    assert clock(3.5) - clock(2.5) == pytest.approx(0.75)


def test_reference_clock_counts_slow_stretches_at_reference_speed():
    host = HostSpeed()
    # Half speed for 10 s, then reference speed for 10 s; a sample every 0.5 s.
    host.samples = [(t / 2, t / 2 + 0.005, REFERENCE_MS * (2.0 if t < 20 else 1.0))
                    for t in range(40)]
    clock = host.reference_clock(0.0, 20.0)
    assert clock(8.0) - clock(2.0) == pytest.approx(3.0)
    assert clock(18.0) - clock(12.0) == pytest.approx(6.0)
    assert host.slowdown(0.0, 9.9) == pytest.approx(2.0)


def test_tracer_rewind_forgets_what_came_after_the_mark():
    tracer = Tracer()
    tracer.wrap(lambda: None, "sched.step")()
    tracer.counts["cache.gather_bytes"] += 10
    tracer.samples["sched.batch"].append(16)
    mark = tracer.mark()
    tracer.wrap(lambda: None, "sched.step")()
    tracer.counts["cache.gather_bytes"] += 5
    tracer.samples["sched.batch"].append(8)
    tracer.rewind(mark)
    assert [s[0] for s in tracer.spans] == ["sched.step"]
    assert tracer.counts["cache.gather_bytes"] == 10
    assert tracer.samples["sched.batch"] == [16]


# -- BENCHMARK.json stays in sync with the code --------------------------------

def test_benchmark_json_matches_the_code():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert name.match(m["name"]) and unit.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
