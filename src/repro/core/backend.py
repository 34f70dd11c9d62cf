"""Pluggable kernel-backend registry for the fused BSF filter.

The repository ships two functionally identical implementations of the
bit-serial stage-fusion filter: the Python-loop reference
(:func:`repro.core.bsf.bsf_filter`) and the vectorized fast path, one
fused kernel (:func:`repro.core.bsf_fast_batch.bsf_filter_fast_batch`)
behind every call shape.  This module puts both behind a single
:class:`KernelBackend` interface so the choice becomes configuration:

* ``PadeConfig.backend`` — per-config selection, flows through
  :func:`repro.core.pade_attention.pade_attention`, ISTA and the simulator;
* ``REPRO_BACKEND`` environment variable — process-wide default;
* :func:`set_default_backend` — session override (the CLI ``--backend``
  flag and the engine use this).

Resolution precedence: explicit name > :func:`set_default_backend` >
``$REPRO_BACKEND`` > ``"fast"``.  Both shipped backends produce identical
:class:`~repro.core.bsf.BSFResult` fields (DESIGN.md §8 invariant), so the
selection only affects speed; third-party backends register via
:func:`register_backend`.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Union, runtime_checkable

import numpy as np

from repro.core.bsf import BSFResult, BSFRowResult, bsf_filter, bsf_filter_row
from repro.core.bsf_fast_batch import bsf_filter_fast_batch
from repro.core.bui import BUILookupTable
from repro.core.bui_gf import GuardedFilter
from repro.quant.bitplane import BitPlanes

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "FastBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "resolve_backend_name",
    "set_default_backend",
    "DEFAULT_BACKEND_ENV",
]

#: Environment variable consulted when no explicit backend is requested.
DEFAULT_BACKEND_ENV = "REPRO_BACKEND"

#: Fallback when neither config, session default, nor env var chooses.
_FALLBACK = "fast"


@runtime_checkable
class KernelBackend(Protocol):
    """One implementation of the fused predict/execute filter.

    A backend must expose the four entry points the stack dispatches on:
    the batched filter (prefill-style blocks), the stateful row filter
    (ISTA's streaming observation windows), the head-batched filter (the
    engine's attend for one request) and the cross-request fused filter
    ``filter_heads_batch`` (the engine's attend for two or more requests,
    e.g. a decode round of the continuous scheduler).  All backends must
    return bit-identical :class:`BSFResult` fields for the same inputs —
    only the loop structure may differ; ``filter_heads_batch`` must equal
    a per-request ``filter_heads`` loop, which is how the reference
    backend implements it.
    """

    name: str

    def filter(
        self,
        q_int: np.ndarray,
        key_planes: BitPlanes,
        guard: float,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
    ) -> BSFResult: ...

    def filter_row(
        self,
        q_row: np.ndarray,
        key_planes: BitPlanes,
        guard: float,
        lut: Optional[BUILookupTable] = None,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
        gfilter: Optional[GuardedFilter] = None,
    ) -> BSFRowResult: ...

    def filter_heads(
        self,
        q_int: np.ndarray,
        key_planes: BitPlanes,
        guards: np.ndarray,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
    ) -> BSFResult: ...

    def filter_heads_batch(
        self,
        q_ints: Sequence[np.ndarray],
        key_planes: Sequence[BitPlanes],
        guards: Sequence[np.ndarray],
        alloweds: Optional[Sequence[Optional[np.ndarray]]] = None,
        protects: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[BSFResult]: ...


class ReferenceBackend:
    """The Python-loop reference kernels (row-at-a-time semantics)."""

    name = "reference"

    def filter(
        self,
        q_int: np.ndarray,
        key_planes: BitPlanes,
        guard: float,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
    ) -> BSFResult:
        return bsf_filter(q_int, key_planes, guard, allowed=allowed, protect=protect)

    def filter_row(
        self,
        q_row: np.ndarray,
        key_planes: BitPlanes,
        guard: float,
        lut: Optional[BUILookupTable] = None,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
        gfilter: Optional[GuardedFilter] = None,
    ) -> BSFRowResult:
        return bsf_filter_row(
            q_row, key_planes, guard, lut=lut, allowed=allowed, protect=protect, gfilter=gfilter
        )

    def filter_heads(
        self,
        q_int: np.ndarray,
        key_planes: BitPlanes,
        guards: np.ndarray,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
    ) -> BSFResult:
        """Head loop over the batched reference filter (stacked results)."""
        q = np.asarray(q_int, dtype=np.int64)
        num_heads, num_rows, _ = q.shape
        num_keys = key_planes.value_shape[1]
        guards = np.broadcast_to(np.asarray(guards, dtype=np.float64), (num_heads,))

        def head_mask(mask: Optional[np.ndarray], h: int) -> Optional[np.ndarray]:
            if mask is None:
                return None
            arr = np.asarray(mask, dtype=bool)
            return arr[h] if arr.ndim == 3 else arr

        retained = np.zeros((num_heads, num_rows, num_keys), dtype=bool)
        planes = np.zeros((num_heads, num_rows, num_keys), dtype=np.int64)
        scores = np.zeros((num_heads, num_rows, num_keys), dtype=np.int64)
        loads = ops = naive = 0
        for h in range(num_heads):
            head_planes = BitPlanes(planes=key_planes.planes[:, h], bits=key_planes.bits)
            res = self.filter(
                q[h], head_planes, float(guards[h]),
                allowed=head_mask(allowed, h), protect=head_mask(protect, h),
            )
            retained[h] = res.retained
            planes[h] = res.planes_processed
            scores[h] = res.scores
            loads += res.bit_plane_loads
            ops += res.effective_bit_ops
            naive += res.naive_bit_ops
        return BSFResult(
            retained=retained,
            planes_processed=planes,
            scores=scores,
            bit_plane_loads=loads,
            effective_bit_ops=ops,
            naive_bit_ops=naive,
        )

    def filter_heads_batch(
        self,
        q_ints: Sequence[np.ndarray],
        key_planes: Sequence[BitPlanes],
        guards: Sequence[np.ndarray],
        alloweds: Optional[Sequence[Optional[np.ndarray]]] = None,
        protects: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[BSFResult]:
        """Per-request loop over :meth:`filter_heads` (the semantic ground
        truth the fused fast kernel must match bit for bit)."""
        num = len(key_planes)
        if alloweds is None:
            alloweds = [None] * num
        if protects is None:
            protects = [None] * num
        return [
            self.filter_heads(q_ints[i], key_planes[i], guards[i],
                              allowed=alloweds[i], protect=protects[i])
            for i in range(num)
        ]


class FastBackend(ReferenceBackend):
    """The vectorized kernel: every call shape runs
    :func:`~repro.core.bsf_fast_batch.bsf_filter_fast_batch`, one dense
    BLAS product per (request, head) covering every plane up front, then
    the threshold recursion masked over the padded lattice.

    ``filter_heads`` is a batch of one request and ``filter`` a batch of
    one request with one head.  ``filter_row`` is inherited from the
    reference backend: ISTA's streaming windows carry an externally owned
    :class:`GuardedFilter` across calls, and the row kernel is already
    vectorized over keys within each round, so there is no separate fast
    variant to dispatch.
    """

    name = "fast"

    def filter(
        self,
        q_int: np.ndarray,
        key_planes: BitPlanes,
        guard: float,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
    ) -> BSFResult:
        q = np.atleast_2d(q_int)
        one_head = BitPlanes(planes=key_planes.planes[:, None], bits=key_planes.bits)
        res = bsf_filter_fast_batch(
            [q[None]], [one_head], [guard], alloweds=[allowed], protects=[protect]
        )[0]
        return replace(
            res,
            retained=res.retained[0],
            planes_processed=res.planes_processed[0],
            scores=res.scores[0],
        )

    def filter_heads(
        self,
        q_int: np.ndarray,
        key_planes: BitPlanes,
        guards: np.ndarray,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
    ) -> BSFResult:
        return bsf_filter_fast_batch(
            [q_int], [key_planes], [guards], alloweds=[allowed], protects=[protect]
        )[0]

    def filter_heads_batch(
        self,
        q_ints: Sequence[np.ndarray],
        key_planes: Sequence[BitPlanes],
        guards: Sequence[np.ndarray],
        alloweds: Optional[Sequence[Optional[np.ndarray]]] = None,
        protects: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[BSFResult]:
        return bsf_filter_fast_batch(
            q_ints, key_planes, guards, alloweds=alloweds, protects=protects
        )


_REGISTRY: Dict[str, KernelBackend] = {}
_session_default: Optional[str] = None


def register_backend(backend: KernelBackend, overwrite: bool = False) -> KernelBackend:
    """Add a backend to the registry under ``backend.name``.

    Registering an existing name requires ``overwrite=True`` so a typo
    cannot silently shadow a shipped backend.
    """
    name = backend.name
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {name!r} already registered (pass overwrite=True)")
    _REGISTRY[name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Apply the precedence chain and return the effective backend name."""
    if name is not None:
        return name
    if _session_default is not None:
        return _session_default
    return os.environ.get(DEFAULT_BACKEND_ENV) or _FALLBACK


def get_backend(name: Optional[Union[str, KernelBackend]] = None) -> KernelBackend:
    """Look up a backend; ``None`` resolves via the precedence chain.

    Accepts an already-constructed :class:`KernelBackend` and returns it
    unchanged, so call sites can take ``str | KernelBackend | None``.
    """
    if name is not None and not isinstance(name, str):
        return name
    resolved = resolve_backend_name(name)
    try:
        return _REGISTRY[resolved]
    except KeyError:
        known = ", ".join(available_backends())
        raise KeyError(f"unknown kernel backend {resolved!r}; available: {known}") from None


def set_default_backend(name: Optional[str]) -> Optional[str]:
    """Set (or with ``None`` clear) the session-wide default backend.

    Returns the previous session default so callers can restore it.  The
    name is validated eagerly so a bad ``--backend`` fails at parse time,
    not deep inside a figure function.
    """
    global _session_default
    if name is not None and name not in _REGISTRY:
        known = ", ".join(available_backends())
        raise KeyError(f"unknown kernel backend {name!r}; available: {known}")
    previous = _session_default
    _session_default = name
    return previous


register_backend(ReferenceBackend())
register_backend(FastBackend())
