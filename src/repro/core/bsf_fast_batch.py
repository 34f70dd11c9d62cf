"""The fast backend's one BSF kernel: every request × head at once.

A busy continuous-batching round filters many requests; dispatching a
kernel once *per request* would pay, at an active-set size of 16+, 16
small products (and their Python round loops) where one pass would do.
:func:`bsf_filter_fast_batch` pads the ragged per-request key sequences
to a shared ``S_max`` with a **validity mask** and runs the
per-(request, head, row) threshold recursion dense over one
``(R, Hh, P, S_max)`` lattice.  The same kernel serves every call shape
of :class:`repro.core.backend.FastBackend`: ``filter_heads`` is a batch
of one request, ``filter`` a batch of one request with one head.

Equivalence rule (DESIGN.md §13): the threshold recursion is row-private
— ``max_lb`` folds only over that (request, head, row)'s alive keys — and
padding columns start dead (``alive = False``) and can never be revived
(``protect`` is forced ``False`` on padding), so they contribute neither
bounds nor counters.  Every per-request slice of the fused lattice is
therefore *bit for bit* the result for that request alone (and the
reference kernel's, DESIGN.md §5 invariant 7), including the
``bit_plane_loads`` / ``effective_bit_ops`` / ``naive_bit_ops``
counters, which are accumulated with the request axis kept separate.

**Dense BLAS product.**  The plane dot products do not depend on which
keys are still alive, so they are computed up front, not per round: for
each (request, head) the uint8 planes are cast into one reused float
buffer and multiplied by the query block plus one all-ones column — a
single BLAS ``matmul`` yielding every plane's ``q · b`` for every key,
and in the extra column every plane column's popcount (the counters'
input).  Pruning then only masks the int64 recursion: compacting dead
columns away saves almost nothing on a CPU, since a column stays live
while any head or row of its request keeps it.

Exactness: every partial sum inside the product is an integer of
magnitude at most the row's ``sum |q|`` (planes are 0/1), so a float32
product is exact while that bound is below ``2^24`` — an 8-bit query at
head dim 48 peaks at ``128 · 48``.  Past the bound the product runs in
float64 (exact below ``2^53``).  The product buffer stays no larger than
the uint8 plane lattice it replaces: when ``(P + 1)`` product columns
outweigh ``D`` plane bytes per key, the product is taken one plane per
round instead of all planes at once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.bsf import BSFResult
from repro.core.bui import build_bui_lut
from repro.quant.bitplane import BitPlanes, plane_weights

__all__ = ["bsf_filter_fast_batch"]


def _plane_products(
    q_aug: np.ndarray, key_planes: Sequence[BitPlanes], planes: slice, s_max: int
) -> np.ndarray:
    """``planes_i[planes, h] @ q_aug[i, h]^T`` for every (request, head).

    Returns ``(R, Hh, n, s_max, P + 1)`` in ``q_aug``'s float dtype, ``n``
    the number of planes in the slice; keys past a request's own length
    are zero.  Keys are the BLAS rows: with the query block as rows
    instead, OpenBLAS at its default thread count ran these products
    ~10x slower on a 2-vCPU host (DESIGN.md §13).
    """
    num_requests, num_heads, cols, head_dim = q_aug.shape
    num_planes = len(range(*planes.indices(key_planes[0].bits)))
    out = np.empty((num_requests, num_heads, num_planes, s_max, cols), dtype=q_aug.dtype)
    buf = np.zeros((num_planes, s_max, head_dim), dtype=q_aug.dtype)
    keys = buf.reshape(num_planes * s_max, head_dim)
    for i, kp in enumerate(key_planes):
        seq_len = kp.value_shape[1]
        buf[:, seq_len:] = 0
        for h in range(num_heads):
            buf[:, :seq_len] = kp.planes[planes, h]
            np.matmul(keys, q_aug[i, h].T, out=out[i, h].reshape(-1, cols))
    return out


def bsf_filter_fast_batch(
    q_ints: Sequence[np.ndarray],
    key_planes: Sequence[BitPlanes],
    guards: Sequence[np.ndarray],
    alloweds: Optional[Sequence[Optional[np.ndarray]]] = None,
    protects: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> List[BSFResult]:
    """Fused filter round over a ragged batch of requests.

    Parameters
    ----------
    q_ints:
        One integer query block per request, each of shape ``(Hh, P, D)``
        — all requests must share ``(Hh, P, D)`` (one model, one decode
        step per round).
    key_planes:
        One :class:`BitPlanes` per request with value shape
        ``(Hh, S_i, D)``; the ``S_i`` may differ (ragged active set).
    guards:
        One per-head guard vector per request (anything broadcastable to
        ``(Hh,)`` — heads quantize independently per request).
    alloweds / protects:
        Optional per-request masks, each ``None`` or broadcastable to
        ``(Hh, P, S_i)``, exactly as ``KernelBackend.filter_heads`` takes
        them.

    Returns one :class:`BSFResult` per request, bit for bit equal to
    the batch of that request alone and to the reference backend's
    ``filter_heads`` for it.
    """
    num_requests = len(key_planes)
    if num_requests == 0:
        return []
    if len(q_ints) != num_requests or len(guards) != num_requests:
        raise ValueError("q_ints, key_planes and guards must have equal lengths")
    if alloweds is None:
        alloweds = [None] * num_requests
    if protects is None:
        protects = [None] * num_requests

    qs = [np.asarray(qi, dtype=np.int64) for qi in q_ints]
    if any(qi.ndim != 3 for qi in qs):
        raise ValueError("each request's queries must have shape (heads, rows, dim)")
    if len({qi.shape for qi in qs}) != 1:
        raise ValueError(f"requests must share (heads, rows, dim); got {[qi.shape for qi in qs]}")
    num_heads, num_rows, head_dim = qs[0].shape
    bits = key_planes[0].bits
    seq_lens = []
    for i, kp in enumerate(key_planes):
        vshape = kp.value_shape
        if kp.bits != bits:
            raise ValueError("all requests must share the plane bit width")
        if len(vshape) != 3 or vshape[0] != num_heads or vshape[2] != head_dim:
            raise ValueError(
                f"request {i} key planes value shape {vshape} does not match "
                f"({num_heads}, S, {head_dim}) queries"
            )
        seq_lens.append(vshape[1])
    s_max = max(seq_lens)

    q = np.stack(qs)  # (R, Hh, P, D)
    guard_mat = np.stack(
        [np.broadcast_to(np.asarray(g, dtype=np.float64), (num_heads,)) for g in guards]
    )  # (R, Hh)

    # Product operand: the query rows plus one all-ones row, whose product
    # column is each plane column's popcount.  float32 is exact while no
    # partial sum can reach 2^24 (module docstring); float64 beyond.
    magnitude = max(int(np.abs(q).sum(axis=3).max(initial=0)), head_dim)
    if magnitude >= 2**53:
        raise ValueError(f"query magnitude {magnitude} exceeds exact float64 products")
    dtype = np.float32 if magnitude < 2**24 else np.float64
    q_aug = np.ones((num_requests, num_heads, num_rows + 1, head_dim), dtype=dtype)
    q_aug[:, :, :num_rows] = q
    # All planes at once while the product is no larger than the uint8
    # plane lattice (P + 1 product columns vs D plane bytes per key).
    products = None
    if (num_rows + 1) * np.dtype(dtype).itemsize <= head_dim:
        products = _plane_products(q_aug, key_planes, slice(0, bits), s_max)

    shape = (num_requests, num_heads, num_rows, s_max)
    alive = np.zeros(shape, dtype=bool)
    protected = np.zeros(shape, dtype=bool)
    for i, s in enumerate(seq_lens):
        sub = (num_heads, num_rows, s)
        if alloweds[i] is None:
            alive[i, :, :, :s] = True
        else:
            alive[i, :, :, :s] = np.broadcast_to(np.asarray(alloweds[i], dtype=bool), sub)
        if protects[i] is not None:
            protected[i, :, :, :s] = np.broadcast_to(np.asarray(protects[i], dtype=bool), sub)
    partial = np.zeros(shape, dtype=np.int64)
    planes_processed = np.zeros(shape, dtype=np.int64)

    lut = build_bui_lut(q.reshape(num_requests * num_heads * num_rows, head_dim), bits=bits)
    i_min = lut.i_min.reshape(num_requests, num_heads, num_rows, bits + 1)
    i_max = lut.i_max.reshape(num_requests, num_heads, num_rows, bits + 1)
    weights = plane_weights(bits)

    max_lb = np.full((num_requests, num_heads, num_rows), -np.inf)
    finite_guard = np.isfinite(guard_mat)
    # Masked-max sentinel: far below any reachable partial sum but finite,
    # so the int-only fold below never needs a float lattice.  A (head,
    # row) with no alive keys gets a hugely negative (not -inf) max_lb;
    # its threshold then keeps everything, exactly like -inf would, and
    # the row is permanently dead anyway.
    int_floor = np.int64(-(2**62))

    eff_ops = np.zeros(num_requests, dtype=np.int64)
    naive_ops = np.zeros(num_requests, dtype=np.int64)
    for r in range(bits):
        if not alive.any():
            break
        if products is None:
            prod = _plane_products(q_aug, key_planes, slice(r, r + 1), s_max)[:, :, 0]
        else:
            prod = products[:, :, r]  # (R, Hh, S_max, P + 1)
        delta = prod[..., :num_rows].transpose(0, 1, 3, 2).astype(np.int64)
        popcount = prod[:, :, None, :, num_rows].astype(np.int64)  # (R, Hh, 1, S_max)
        naive_ops += (popcount * alive).sum(axis=(1, 2, 3))
        eff_ops += (np.minimum(popcount, head_dim - popcount) * alive).sum(axis=(1, 2, 3))
        partial = np.where(alive, partial + weights[r] * delta, partial)
        planes_processed += alive  # processed rounds are consecutive from round 0

        # Row-private threshold fold, all-integer until the last step: the
        # per-round BUI addend i_min[r+1] is constant per (request, head,
        # row), so folding max over the alive partials first and adding it
        # after is exact (int64 throughout, no float rounding).
        part_max = np.where(alive, partial, int_floor).max(axis=3)
        max_lb = np.maximum(max_lb, part_max + i_min[:, :, :, r + 1])
        threshold = np.where(finite_guard[:, :, None], max_lb - guard_mat[:, :, None], -np.inf)
        ub = partial + i_max[:, :, :, r + 1, None]
        alive &= (ub >= threshold[:, :, :, None]) | protected

    scores = np.where(alive, partial, 0)
    loads = planes_processed.sum(axis=(1, 2, 3))  # one plane load per processed round
    return [
        BSFResult(
            retained=alive[i, :, :, :s],
            planes_processed=planes_processed[i, :, :, :s],
            scores=scores[i, :, :, :s],
            bit_plane_loads=int(loads[i]),
            effective_bit_ops=int(eff_ops[i]),
            naive_bit_ops=int(naive_ops[i]),
        )
        for i, s in enumerate(seq_lens)
    ]
