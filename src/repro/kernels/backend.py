"""The kernel-backend dispatch seam.

A :class:`KernelBackend` bundles the accumulation primitives every sketch
update path routes through.  Exactly one backend is *active* at a time;
sketches fetch it per call with :func:`get_backend` (cheap — a module
attribute read), so switching backends affects all sketches immediately
and needs no per-sketch plumbing.

Selection, in priority order:

1. an explicit :func:`set_backend` / :func:`use_backend` call;
2. the ``REPRO_KERNEL_BACKEND`` environment variable, read once on the
   first :func:`get_backend` call;
3. the ``"numpy"`` default.

New backends (e.g. a numba- or C-compiled one) call
:func:`register_backend` at import time and become selectable by name.
"""

from __future__ import annotations

import abc
import os
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "BACKEND_ENV_VAR",
    "KernelBackend",
    "available_backends",
    "backend_name",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]

#: Environment variable naming the backend to activate on first use.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"


class KernelBackend(abc.ABC):
    """Accumulation primitives shared by every sketch update path.

    Shape conventions (one row per basic estimator):

    * ``counters`` — ``(rows, buckets)`` float64, mutated in place;
    * ``indices`` — ``(rows, n)`` int64 bucket index per row and tuple;
    * ``signs`` — ``(rows, n)`` int8 of ±1;
    * ``weights`` — ``(n,)`` float64 per-tuple weights, or ``None`` for
      the unweighted (+1 per tuple) fast path.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def scatter_add(
        self,
        counters: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Add ``weights`` (or +1 per tuple) into ``counters[row, indices[row]]``."""

    @abc.abstractmethod
    def signed_scatter_add(
        self,
        counters: np.ndarray,
        indices: np.ndarray,
        signs: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Add ``signs * weights`` (or just ``signs``) into the indexed counters."""

    @abc.abstractmethod
    def gather(self, counters: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Read ``counters[row, indices[row]]``; returns ``(rows, n)`` float64."""

    @abc.abstractmethod
    def sign_sum(self, signs: np.ndarray) -> np.ndarray:
        """Per-row sum of a ±1 matrix as float64 — the unweighted AGMS delta."""

    @abc.abstractmethod
    def sign_dot(
        self,
        signs: np.ndarray,
        weights: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-row ``signs @ weights`` as float64 — the weighted AGMS delta.

        ``out``, when given, is a preallocated ``(rows,)`` float64 buffer
        the product is written into (and returned), so steady-state
        updates allocate nothing but the float view of ``signs``.
        """

    # ------------------------------------------------------------------
    # Hashing stage.  The polynomial families in :mod:`repro.hashing`
    # route their row-batched evaluation through these hooks.  The base
    # implementations delegate to the vectorized numpy helpers (lazy
    # imports: hashing imports this module at load time); only the
    # reference backend overrides them, with its legacy per-row path.
    # ------------------------------------------------------------------

    def polynomial_mod_p(
        self, coefficients: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Evaluate each row's polynomial mod ``2³¹ − 1`` on *keys*.

        ``coefficients`` is the ``(rows, k)`` uint64 matrix of a
        :class:`~repro.hashing.families.PolynomialHashFamily`; ``keys``
        is a checked ``(n,)`` uint64 array.  Returns the canonical
        ``(rows, n)`` uint64 residues — every backend must produce
        bit-identical values here.
        """
        from ..hashing.families import _horner_all

        return _horner_all(coefficients, keys)

    def bucket_indices(
        self, coefficients: np.ndarray, keys: np.ndarray, buckets: int
    ) -> np.ndarray:
        """Bucket index per row and key: ``(rows, n)`` int64 in ``[0, buckets)``."""
        from ..hashing.families import _bucket_all

        return _bucket_all(coefficients, keys, buckets)

    def parity_signs(
        self, coefficients: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """±1 parity of each row's polynomial hash: ``(rows, n)`` int8."""
        from ..hashing.families import _horner_all
        from ..hashing.signs import _parity_signs

        return _parity_signs(_horner_all(coefficients, keys))

    # ------------------------------------------------------------------
    # Fused multi-sketch stage (see :mod:`repro.kernels.fused`).
    # ------------------------------------------------------------------

    #: Backends that can stream ``int32``/``uint32`` keys without a
    #: Python-side widening copy set this to True (the native backend).
    fused_accepts_int32: bool = False

    def fused_update(self, plan, keys: np.ndarray, weights=None) -> None:
        """Update every sketch in *plan* with one prepared key batch.

        *keys* arrive validated (range-checked against the plan's key
        bound) and — unless :attr:`fused_accepts_int32` — widened to the
        canonical ``uint64`` the hash families use; *weights* is a
        ``(n,)`` float64 array or ``None``.  The base implementation
        replays each entry through the separate-path primitives
        (``bucket_indices`` / ``parity_signs`` / the scatter and sign
        reductions), so any backend is bit-identical to per-sketch
        ``update()`` calls by construction; subclasses override to share
        work across entries.
        """
        if keys.dtype != np.uint64:
            # Hash-key API dtype, not an accumulator.
            keys = keys.astype(np.uint64)  # repro: noqa(REP002)
        for entry in plan.entries:
            entry.replay(self, keys, weights)


_REGISTRY: dict = {}
_active: Optional[KernelBackend] = None


def register_backend(backend: KernelBackend) -> None:
    """Make *backend* selectable by its :attr:`~KernelBackend.name`."""
    _REGISTRY[backend.name] = backend


def available_backends() -> tuple:
    """Names of every registered backend, sorted."""
    return tuple(sorted(_REGISTRY))


def set_backend(name) -> KernelBackend:
    """Activate a backend and return it.

    *name* is either a registry key (the common case) or a
    :class:`KernelBackend` *instance* — the latter activates the instance
    directly without registering it, which is how transient wrappers like
    :class:`repro.observability.profiling.ProfilingKernelBackend` splice
    into the seam without polluting :func:`available_backends`.
    """
    global _active
    if isinstance(name, KernelBackend):
        _active = name
        return _active
    try:
        _active = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; "
            f"available: {available_backends()}"
        ) from None
    return _active


def get_backend() -> KernelBackend:
    """The active backend (resolving ``REPRO_KERNEL_BACKEND`` on first use)."""
    if _active is None:
        return set_backend(os.environ.get(BACKEND_ENV_VAR, "numpy"))
    return _active


def backend_name() -> str:
    """Name of the active backend."""
    return get_backend().name


@contextmanager
def use_backend(name) -> Iterator[KernelBackend]:
    """Context manager activating *name*, restoring the previous backend after.

    Like :func:`set_backend`, *name* may be a registry key or a
    :class:`KernelBackend` instance.  The previously active backend
    object is restored on exit even when it was never registered.
    """
    previous = get_backend()
    backend = set_backend(name)
    try:
        yield backend
    finally:
        set_backend(previous)
