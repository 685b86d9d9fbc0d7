"""Vectorized compute kernels behind every sketch update path.

Sketch updates decompose into two stages: *hashing* (map a batch of keys
to bucket indices and ±1 signs, one row per basic estimator) and
*accumulation* (scatter the signed deltas into the counter matrix).
Both stages route through the backend seam in this subpackage: the
polynomial hash families dispatch their row-batched evaluation via
``polynomial_mod_p`` / ``bucket_indices`` / ``parity_signs``, and the
accumulation primitives are ``scatter_add`` / ``signed_scatter_add`` /
``gather`` and the AGMS sign reductions.  A sketch's ``update()`` makes
one seam call per batch, :meth:`KernelBackend.fused_update` over a
one-entry plan of itself (see below), and each backend runs hashing and
accumulation inside it.

Three backends register themselves at import time:

* :mod:`~repro.kernels.numpy_backend` — the default.  Hashing runs a
  lazily-reduced Horner pass over the whole ``(rows, n)`` matrix with
  no 64-bit divisions; scatter-adds are fused into a single
  :func:`numpy.bincount` over flattened ``row · buckets + bucket``
  indices, so a whole batch is accumulated in one C pass instead of
  ``rows`` Python-level ``np.add.at`` calls.  Unweighted ±1 updates
  avoid float weights entirely by counting into sign-split slots
  (exact integer arithmetic).
* :mod:`~repro.kernels.native` — the fused update compiled on demand
  with the system compiler: one C loop per sketch hashes and scatters
  each key while it sits in a register.  Hashing, ``gather`` and the
  sign reductions are the numpy backend's, and the scatter for entries
  it replays is the reference backend's.  Falls back cleanly (stays
  registered, raises on activation) when no compiler is available.
* :mod:`~repro.kernels.reference` — the legacy per-row ``np.add.at``
  and exact-``%`` hashing path, kept as the behavioural baseline the
  equivalence tests and the perf-smoke benchmark compare against.

Backends are selected with :func:`set_backend` / :func:`use_backend`, or
the ``REPRO_KERNEL_BACKEND`` environment variable; further backends
register themselves with :func:`register_backend` and slot in without
touching any sketch or hashing code.

On top of the per-sketch primitives the seam carries a *fused
multi-sketch* entry point (:mod:`~repro.kernels.fused`): one pass over a
key chunk updates several sketches at once, sharing key validation and
letting each backend batch the hash evaluations — see
:func:`fused_update` / :func:`make_fused_plan`.  A plan holds live
state — array references, and on the native backend raw C pointers
bound at first use — so rebinding a sketch's counter storage
invalidates it; each sketch drops its own cached plan when that
happens.

Every backend must leave counters **bit-identical** to the reference
path for integer-valued deltas (the unweighted and frequency-vector
workloads): hash values are canonical residues mod ``2³¹ − 1`` in every
backend, and per-bucket partial sums are accumulated in stream order, so
the only freedom — adding a per-call partial sum to the counter instead
of accumulating element by element — is exact whenever those sums are
exactly representable.  ``tests/test_kernels.py`` enforces this with
``np.array_equal`` across all sketches and sign families.
"""

from .backend import (
    BACKEND_ENV_VAR,
    KernelBackend,
    available_backends,
    backend_name,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from .fused import FusedEntry, FusedPlan, fused_update, make_fused_plan
from .native import NativeKernelBackend, native_available
from .numpy_backend import NumpyKernelBackend
from .reference import ReferenceKernelBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "FusedEntry",
    "FusedPlan",
    "KernelBackend",
    "NativeKernelBackend",
    "NumpyKernelBackend",
    "ReferenceKernelBackend",
    "available_backends",
    "backend_name",
    "fused_update",
    "get_backend",
    "make_fused_plan",
    "native_available",
    "register_backend",
    "set_backend",
    "use_backend",
]
