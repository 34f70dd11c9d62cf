"""Metric arithmetic and the correctness gate of the serving benchmark.

Everything here is pure (no clocks, no I/O) so the rules the benchmark
relies on are unit-tested directly: the percentile sample-support rule,
goodput's failure accounting, the digest gate and request accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def supported_percentile(n: int, target: float) -> float:
    """The highest percentile ``<= target`` that keeps at least
    :data:`MIN_BEYOND` of ``n`` samples strictly beyond it.

    ``target`` itself when ``n * (1 - target/100) >= 10`` — p95 needs
    200 samples, p99 needs 1000 — otherwise the percentile that leaves
    exactly ten samples above, floored at the median.
    """
    if n <= 0:
        raise ValueError("no samples")
    if n * (1.0 - target / 100.0) >= MIN_BEYOND - 1e-9:
        return target
    return max(50.0, 100.0 * (1.0 - MIN_BEYOND / n))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail(
    values: Sequence[float], target: float, support: Optional[int] = None
) -> Tuple[float, float, int]:
    """``(value, percentile used, n)`` under the sample-support rule.

    ``support`` is the number of independent samples behind ``values``
    when fewer than ``len(values)``: the gaps of a batch decoded in
    lockstep repeat one value per round.
    """
    n = len(values) if support is None else support
    q = supported_percentile(n, target)
    return percentile(values, q), q, n


#: Metric names and units, as BENCHMARK.json lists them.
END_TO_END_UNITS = {
    "decode_tok_per_s": "tok/s",
    "itl_p50_ms": "ms",
    "itl_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "ttft_p50_ms": "ms",
    "ttft_p95_ms": "ms",
    "goodput_frac": "frac",
}

PER_LAYER_UNITS = {
    "core.filter_calls": "count",
    "core.filter_ms": "ms",
    "core.filter_share": "frac",
    "core.bit_ops_ratio": "frac",
    "core.keep_ratio": "frac",
    "core.pad_ratio": "frac",
    "cache.gather_ms": "ms",
    "cache.gather_mb": "MB",
    "cache.append_ms": "ms",
    "cache.prefill_ms": "ms",
    "cache.prefix_hit_rate": "frac",
    "cache.prefix_shareable_frac": "frac",
    "cache.peak_pool_occupancy": "frac",
    "cache.preemptions": "count",
    "engine.attend_self_ms": "ms",
    "engine.prefill_attend_ms": "ms",
    "sched.rounds": "count",
    "sched.step_ms_p50": "ms",
    "sched.step_ms_p99": "ms",
    "sched.self_ms": "ms",
    "sched.batch_mean": "count",
    "sched.self_growth": "ratio",
    "serve.decode_request_ms": "ms",
    "serve.decode_request_calls": "count",
    "serve.encode_token_ms": "ms",
    "serve.request_mb": "MB",
    "serve.loop_self_ms": "ms",
    "serve.loop_self_growth": "ratio",
    "serve.accept_wait_ms_p50": "ms",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}


# ---------------------------------------------------------------------------
# Per-request records
# ---------------------------------------------------------------------------

@dataclass
class RequestRecord:
    """One sent request as the client saw it (seconds, client clock)."""

    request_id: str
    template: str
    due: float
    sent: Optional[float] = None
    rejected: Optional[str] = None
    token_times: List[float] = field(default_factory=list)
    done: Optional[dict] = None  # the server's done message (or in-process stand-in)

    @property
    def outcome(self) -> str:
        """``ok`` / ``rejected`` / ``aborted`` / ``unanswered``."""
        if self.rejected is not None:
            return "rejected"
        if self.done is None:
            return "unanswered"
        return "ok" if self.done.get("status") == "ok" else "aborted"

    @property
    def ttft_ms(self) -> Optional[float]:
        if not self.token_times:
            return None
        return (self.token_times[0] - self.due) * 1000.0

    @property
    def gaps_ms(self) -> List[float]:
        t = self.token_times
        return [(b - a) * 1000.0 for a, b in zip(t, t[1:])]


def account(records: Sequence[RequestRecord]) -> Dict[str, int]:
    """Count outcomes; every sent request lands in exactly one bucket."""
    counts = {"ok": 0, "rejected": 0, "aborted": 0, "unanswered": 0}
    for rec in records:
        counts[rec.outcome] += 1
    return counts


def goodput_fraction(
    records: Sequence[RequestRecord], ttft_limit_ms: float, itl_limit_ms: float
) -> float:
    """Share of sent requests that completed within both limits.

    A request meets the ITL limit when its mean inter-token gap does;
    rejected, aborted and unanswered requests count as misses.
    """
    if not records:
        raise ValueError("no requests")
    good = 0
    for rec in records:
        if rec.outcome != "ok" or rec.ttft_ms is None:
            continue
        gaps = rec.gaps_ms
        mean_gap = sum(gaps) / len(gaps) if gaps else 0.0
        if rec.ttft_ms <= ttft_limit_ms and mean_gap <= itl_limit_ms:
            good += 1
    return good / len(records)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

DIGEST_KEYS = ("output_digest", "retained_digest")


def digest_mismatches(
    records: Iterable[RequestRecord], expected: Mapping[str, Mapping[str, str]]
) -> List[str]:
    """Completed requests whose digests differ from the reference's.

    Each record is compared with the reference digests of the template
    its tensors came from; a missing digest is a mismatch.
    """
    bad = []
    for rec in records:
        if rec.outcome != "ok":
            continue
        want = expected.get(rec.template)
        got = rec.done
        if want is None or any(got.get(k) != want[k] for k in DIGEST_KEYS):
            bad.append(rec.request_id)
    return bad


def gate_failures(
    records: Sequence[RequestRecord],
    expected: Mapping[str, Mapping[str, str]],
    leaked_blocks: Optional[int],
) -> List[str]:
    """Every reason the run's outputs are wrong (empty = correct).

    Digest mismatches, leaked pool blocks and an ok request that streamed
    a different token count than it reported fail the run; rejections and
    aborts are counted by ``fail_frac`` instead.
    """
    problems = []
    bad = digest_mismatches(records, expected)
    if bad:
        problems.append(f"{len(bad)} digest mismatch(es), first {bad[:3]}")
    if leaked_blocks is None:
        problems.append("no shutdown_ack: leaked blocks unknown")
    elif leaked_blocks != 0:
        problems.append(f"{leaked_blocks} pool block(s) leaked")
    for rec in records:
        if rec.outcome == "ok" and len(rec.token_times) != rec.done.get("decode_tokens"):
            problems.append(
                f"{rec.request_id}: {len(rec.token_times)} tokens streamed, "
                f"{rec.done.get('decode_tokens')} reported"
            )
            break
    return problems


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

def window_tokens(
    streams: Iterable[Sequence[float]], t0: float, t1: float
) -> Tuple[int, List[float]]:
    """Tokens stamped in ``(t0, t1]`` and the gaps (ms) between
    consecutive tokens of one stream that both fall in ``[t0, t1]``."""
    tokens = 0
    gaps: List[float] = []
    for times in streams:
        inside = [t for t in times if t0 <= t <= t1]
        tokens += sum(1 for t in inside if t > t0)
        gaps.extend((b - a) * 1000.0 for a, b in zip(inside, inside[1:]))
    return tokens, gaps


def end_to_end(
    records: Sequence[RequestRecord],
    wall_s: float,
    ttft_limit_ms: float,
    itl_limit_ms: float,
    window: Optional[Tuple[float, float]] = None,
    streams: Iterable[Sequence[float]] = (),
    rounds: Optional[int] = None,
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The latency/throughput metrics of one measured run, plus notes
    giving the sample count and percentile behind every tail value.

    Throughput and inter-token gaps come from the ok records' tokens, or,
    given a ``window``, from every token of ``streams`` inside it (a
    steady batch whose requests straddle the window's edges).  Given
    ``rounds``, the gaps of one round count as one sample of the tail."""
    ok = [r for r in records if r.outcome == "ok"]
    if not ok:
        raise ValueError("no request completed")
    if window is None:
        tokens = sum(len(r.token_times) for r in ok)
        gaps = [g for r in ok for g in r.gaps_ms]
    else:
        tokens, gaps = window_tokens(streams, *window)
    ttfts = [r.ttft_ms for r in ok if r.ttft_ms is not None]
    counts = account(records)
    itl99, q_itl, _ = tail(gaps, 99.0, rounds)
    ttft95, q_ttft, n_ttft = tail(ttfts, 95.0)
    metrics = {
        "decode_tok_per_s": tokens / wall_s,
        "itl_p50_ms": percentile(gaps, 50.0),
        "itl_p99_ms": itl99,
        "ok_frac": counts["ok"] / len(records),
        "ttft_p50_ms": percentile(ttfts, 50.0),
        "ttft_p95_ms": ttft95,
        "goodput_frac": goodput_fraction(records, ttft_limit_ms, itl_limit_ms),
    }
    notes = {
        "itl_p99_ms": f"p{q_itl:.4g} of {len(gaps)} gaps"
        + (f" over {rounds} rounds" if rounds is not None else ""),
        "ttft_p95_ms": f"p{q_ttft:.4g} of {n_ttft} requests",
        "ok_frac": ", ".join(f"{k} {v}" for k, v in counts.items()),
    }
    return metrics, notes


def growth(per_round: Sequence[float]) -> float:
    """Mean of the last decile over the mean of the first decile.

    1.0 means a flat per-round cost; fewer than 20 rounds reads 1.0.
    """
    n = len(per_round)
    if n < 20:
        return 1.0
    k = n // 10
    first = sum(per_round[:k]) / k
    last = sum(per_round[-k:]) / k
    return last / first if first > 0 else 1.0
