"""Workload definitions and seeded input synthesis for the serving benchmark.

Every input is a pure function of ``(workload, seed, seconds)``: request
tensors come from the repository's own synthetic generators
(:mod:`repro.eval.workloads`) and the arrival schedule from a seeded
generator here.  Synthesis runs before any clock starts and outside
``setup_s``.

The online workload draws each request's tensors from a pool of
``templates`` distinct synthesized requests (round-robin over seeded
permutations) and gives every sent request its own id.  The server never sees two ids with
the same tensors in flight unless a template repeats within one request
lifetime, which the pool sizes below make rare; the pool bounds both
synthesis and the reference-backend correctness baseline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: Pool block size (tokens) every workload serves with.
BLOCK_SIZE = 16


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    online: bool
    num_heads: int
    head_dim: int
    context: int  # prompt length centre; the shared prefix for rag_prefix
    context_spread: float  # prompt lengths stratified over context * (1 +- spread)
    suffix: int  # unique prompt suffix after a shared prefix (0 = no prefix)
    decode_steps: int
    max_active: int
    token_budget: int
    prefix_sharing: bool
    rate: float  # online: Poisson arrivals per wall second
    templates: int  # distinct request tensors, served in turn
    queue_limit: int
    # Goodput limits, fixed from the first seeds' latency distribution (README).
    ttft_limit_ms: float
    itl_limit_ms: float


WORKLOADS: Dict[str, WorkloadSpec] = {
    "long_decode": WorkloadSpec(
        name="long_decode",
        why="offline steady batch of 16 (1024 ctx, 128 tokens, one admitted per 8 "
        "rounds): fused BSF decode kernel and paged gathers dominate; no socket or prefix cache",
        online=False,
        num_heads=2,
        head_dim=48,
        context=1024,
        context_spread=0.25,
        suffix=0,
        decode_steps=128,
        max_active=16,
        token_budget=40960,
        prefix_sharing=False,
        rate=0.0,
        templates=16,
        queue_limit=64,
        ttft_limit_ms=250.0,
        itl_limit_ms=200.0,
    ),
    "rag_prefix": WorkloadSpec(
        name="rag_prefix",
        why="open-loop 1024-token shared prefix + 64 unique, 8 tokens, prefix "
        "sharing on: cache write side and large submit messages dominate",
        online=True,
        num_heads=1,
        head_dim=32,
        context=1024,
        context_spread=0.0,
        suffix=64,
        decode_steps=8,
        max_active=8,
        token_budget=16384,
        prefix_sharing=True,
        rate=8.0,
        templates=32,
        queue_limit=64,
        ttft_limit_ms=250.0,
        itl_limit_ms=25.0,
    ),
}


def get_spec(name: str) -> WorkloadSpec:
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(WORKLOADS)
        raise SystemExit(f"unknown workload {name!r}; choose one of: {known}") from None


def _request_seed(seed: int, index: int) -> int:
    """Decorrelated per-request synthesis seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def prompt_lengths(spec: WorkloadSpec, seed: int) -> np.ndarray:
    """Prompt lengths spread evenly over ``context * (1 +- spread)``.

    Stratified rather than drawn independently, so every seed serves the
    same total context and seeds differ only in tensor content and in
    which request gets which length.
    """
    low = spec.context * (1.0 - spec.context_spread)
    high = spec.context * (1.0 + spec.context_spread)
    quantiles = (np.arange(spec.templates) + 0.5) / spec.templates
    lengths = np.round(low + (high - low) * quantiles).astype(int)
    return np.random.default_rng([seed, 0x1E9]).permutation(lengths)


def synthesize_templates(spec: WorkloadSpec, seed: int) -> List:
    """The workload's distinct :class:`EngineRequest` tensors (arrival 0)."""
    from repro.eval.workloads import build_engine_request, build_prefix_workload

    if spec.suffix:
        return build_prefix_workload(
            spec.templates, spec.num_heads, spec.context, spec.suffix,
            spec.decode_steps, spec.head_dim, seed=_request_seed(seed, spec.templates),
        )
    return [
        build_engine_request(
            f"req{i}", spec.num_heads, int(length), spec.decode_steps, spec.head_dim,
            seed=_request_seed(seed, i),
        )
        for i, length in enumerate(prompt_lengths(spec, seed))
    ]


def arrival_schedule(spec: WorkloadSpec, seed: int, seconds: float) -> Tuple[np.ndarray, List[int]]:
    """Due times (s from the start) and template index of every request.

    Poisson arrivals at ``rate``: ``round(rate * seconds)`` exponential
    gaps, stratified over their quantiles and shuffled by the seed.  Every
    seed thus offers the same gap distribution and total duration (the
    sampling noise of a short run's arrival process is removed) while the
    order of short and long gaps, and so the bursts, differ per seed.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    count = max(1, int(round(spec.rate * seconds)))
    quantiles = (np.arange(count) + 0.5) / count
    gaps = -np.log1p(-quantiles)
    gaps *= seconds / gaps.sum()
    gaps = rng.permutation(gaps)
    dues = np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
    order: List[int] = []
    while len(order) < count:
        order.extend(int(i) for i in rng.permutation(spec.templates))
    return dues, order[:count]


def shareable_fraction(spec: WorkloadSpec, templates) -> float:
    """Share of prompt tokens in full blocks of the shared prefix.

    By construction: only rag_prefix's prompts share a prefix, and only
    whole blocks can be attached by reference.
    """
    if not spec.suffix:
        return 0.0
    shared = (spec.context // BLOCK_SIZE) * BLOCK_SIZE
    prompt = sum(r.prompt_tokens for r in templates)
    return shared * len(templates) / prompt


# ---------------------------------------------------------------------------
# Reference-backend correctness baseline
# ---------------------------------------------------------------------------

def _fingerprint(src_root: Path, spec: WorkloadSpec, templates) -> str:
    """Hash of the serving stack's sources, the spec and every template
    tensor, so a cached baseline can never outlive its inputs or code."""
    h = hashlib.sha256(json.dumps(asdict(spec)).encode())
    for path in sorted(src_root.rglob("*.py")):
        h.update(str(path.relative_to(src_root)).encode())
        h.update(path.read_bytes())
    for request in templates:
        h.update(request.request_id.encode())
        for name in ("k", "v", "q_prompt", "decode_q", "decode_k", "decode_v"):
            arr = getattr(request, name)
            if arr is not None:
                h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def reference_digests(
    spec: WorkloadSpec, seed: int, templates, src_root: Path, cache_dir: Path
) -> Dict[str, Dict[str, str]]:
    """``{template id: {output_digest, retained_digest}}`` from an untimed
    in-process ``PadeEngine(backend="reference").serve``.

    Digests do not depend on batch composition, so one batch serve of
    the templates stands for every request sent from them.  Cached under
    ``cache_dir``, keyed by the sources, the spec and the template tensors.
    """
    key = _fingerprint(src_root, spec, templates)[:16]
    path = cache_dir / f"ref-{spec.name}-{seed}-{key}.json"
    if path.exists():
        return json.loads(path.read_text())

    from repro.engine import PadeEngine
    from repro.serve.protocol import result_digests

    engine = PadeEngine(backend="reference")
    results = engine.serve(
        [replace(r, arrival_time=0.0) for r in templates],
        max_active=spec.max_active,
        token_budget=max(spec.token_budget, sum(r.total_tokens + BLOCK_SIZE for r in templates)),
        block_size=BLOCK_SIZE,
        prefix_sharing=spec.prefix_sharing,
    )
    digests = {rid: result_digests(res) for rid, res in results.items()}
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests))
    tmp.replace(path)
    return digests
