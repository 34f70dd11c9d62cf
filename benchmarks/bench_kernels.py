"""Micro-benchmarks of the core kernels (timing, not figure regeneration).

These track the library's own performance: the fused BSF filter (both
registered backends, one-shot and as one cross-request decode round),
ISTA, the dense references, and the cycle simulator.
Kernels are reached through the backend registry, never imported directly.
"""

import numpy as np
import pytest

from repro.attention.dense import dense_attention
from repro.attention.flash import flash_attention
from repro.core import PadeConfig, get_backend, pade_attention
from repro.core.bui_gf import guard_in_int_units
from repro.model.synthetic import PROFILE_PRESETS, synthesize_qkv
from repro.quant.bitplane import decompose_bitplanes
from repro.quant.integer import quantize_symmetric
from repro.sim.accelerator import AcceleratorConfig, PadeAccelerator


@pytest.fixture(scope="module")
def qkv():
    return synthesize_qkv(8, 1024, 64, PROFILE_PRESETS["nlp"], np.random.default_rng(0))


def test_bench_dense_attention(benchmark, qkv):
    q, k, v = qkv
    benchmark(dense_attention, q, k, v)


def test_bench_flash_attention(benchmark, qkv):
    q, k, v = qkv
    benchmark(flash_attention, q, k, v, 64)


def test_bench_pade_attention(benchmark, qkv):
    q, k, v = qkv
    res = benchmark(pade_attention, q, k, v, PadeConfig.standard())
    assert res.sparsity > 0.5


@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_bench_bsf_filter(benchmark, qkv, backend):
    q, k, v = qkv
    qi = quantize_symmetric(q)
    ki = quantize_symmetric(k)
    planes = decompose_bitplanes(ki.data)
    guard = guard_in_int_units(0.6, 5.0, float(qi.scale) * float(ki.scale) / 8.0)
    res = benchmark(get_backend(backend).filter, qi.data, planes, guard)
    assert res.sparsity > 0.5


@pytest.fixture(scope="module")
def decode_round():
    """One fused decode round at the ``long_decode`` kernel shape: 16
    requests, 2 KV heads, head dim 48, one query row each, contexts
    spread over 1024 +- 25%."""
    rng = np.random.default_rng(1)
    head_dim = 48
    qs, planes, guards = [], [], []
    for seq_len in np.linspace(768, 1280, 16).round().astype(int):
        heads = [synthesize_qkv(1, seq_len, head_dim, PROFILE_PRESETS["nlp"], rng)
                 for _ in range(2)]
        qis = [quantize_symmetric(q) for q, _, _ in heads]
        kis = [quantize_symmetric(k) for _, k, _ in heads]
        qs.append(np.stack([qi.data for qi in qis]))
        planes.append(decompose_bitplanes(np.stack([ki.data for ki in kis])))
        guards.append(np.array([
            guard_in_int_units(0.6, 5.0, float(qi.scale) * float(ki.scale) / np.sqrt(head_dim))
            for qi, ki in zip(qis, kis)
        ]))
    return qs, planes, guards


@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_bench_filter_heads_batch(benchmark, decode_round, backend):
    qs, planes, guards = decode_round
    results = benchmark(get_backend(backend).filter_heads_batch, qs, planes, guards)
    assert len(results) == len(qs)
    assert sum(r.retained.sum() for r in results) < sum(r.retained.size for r in results)


def test_bench_cycle_simulator(benchmark, qkv):
    q, k, v = qkv
    acc = PadeAccelerator(AcceleratorConfig())
    report = benchmark(acc.run_head, q, k, v)
    assert report.latency_cycles > 0
