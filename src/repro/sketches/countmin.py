"""Count-Min sketch — comparison baseline for the ablation benches.

Count-Min (Cormode & Muthukrishnan) uses the same ``rows × buckets`` layout
as F-AGMS but *without* the ±1 signs: every tuple adds +1 to one bucket per
row, and estimates take minima instead of medians.  It is included because
the paper's ref [4] (Rusu & Dobra, SIGMOD 2007) compares sketching
techniques and because it makes a useful ablation: it shows what the ±1
families buy.

Properties (for non-negative streams):

* point frequency estimates are upper bounds: ``f̂ᵢ ≥ fᵢ`` always, with
  overestimate at most ``ε·F₁`` w.h.p. for ``buckets = e/ε``;
* the inner-product estimate ``min_row Σ_b S_F·S_G`` likewise upper-bounds
  the true size of join;
* unlike AGMS/F-AGMS it is biased — which is exactly why the paper's
  unbiasedness-based sampling corrections do not compose with it.  The
  class raises on :meth:`second_moment` to make that explicit.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, EstimationError
from ..hashing import BucketHashFamily
from ..kernels import fused_update, get_backend
from ..rng import SeedLike, as_seed_sequence, derive_seed
from .base import Sketch

__all__ = ["CountMinSketch"]


class CountMinSketch(Sketch):
    """Count-Min sketch with ``rows`` rows of ``buckets`` counters."""

    __slots__ = (
        "rows",
        "buckets",
        "seed_id",
        "seed_entropy",
        "seed_spawn_key",
        "_counters",
        "_bucket_hash",
        "_plan",
    )

    def __init__(self, buckets: int, rows: int = 3, seed: SeedLike = None) -> None:
        if buckets < 1:
            raise ConfigurationError(f"buckets must be >= 1, got {buckets}")
        if rows < 1:
            raise ConfigurationError(f"rows must be >= 1, got {rows}")
        root = as_seed_sequence(seed)
        self.rows = rows
        self.buckets = buckets
        self.seed_id = derive_seed(root)
        self.seed_entropy = root.entropy
        self.seed_spawn_key = tuple(root.spawn_key)
        self._bucket_hash = BucketHashFamily(buckets, rows, root.spawn(1)[0])
        self._counters = np.zeros((rows, buckets), dtype=np.float64)

    # ------------------------------------------------------------------

    @property
    def counters(self) -> np.ndarray:
        """The ``(rows, buckets)`` counter matrix (inspection only)."""
        return self._counters

    def update(self, keys, weights=None) -> None:
        fused_update(self._fused_plan(), keys, weights)

    # ------------------------------------------------------------------

    def point_estimate(self, key: int) -> float:
        """Upper-bound estimate of the frequency of *key* (min over rows)."""
        keys = np.asarray([key], dtype=np.int64)
        indices = self._bucket_hash.evaluate_all(keys)
        return float(get_backend().gather(self._counters, indices).min())

    def inner_product(self, other: Sketch) -> float:
        """Upper-bound estimate of ``Σᵢ fᵢ gᵢ`` (min over rows)."""
        if not isinstance(other, CountMinSketch):
            raise TypeError("inner_product requires another CountMinSketch")
        self.check_compatible(other)
        return float((self._counters * other._counters).sum(axis=1).min())

    def second_moment(self) -> float:
        """Not supported: the Count-Min F₂ 'estimate' is biased upward.

        Raising keeps callers from silently composing it with the paper's
        unbiasedness-based sampling corrections.
        """
        raise EstimationError(
            "CountMinSketch does not provide an unbiased second-moment "
            "estimate; use AgmsSketch or FagmsSketch"
        )

    # ------------------------------------------------------------------

    def copy_empty(self) -> "CountMinSketch":
        clone = object.__new__(CountMinSketch)
        clone.rows = self.rows
        clone.buckets = self.buckets
        clone.seed_id = self.seed_id
        clone.seed_entropy = self.seed_entropy
        clone.seed_spawn_key = self.seed_spawn_key
        clone._bucket_hash = self._bucket_hash
        clone._counters = np.zeros((self.rows, self.buckets), dtype=np.float64)
        return clone

    def _state(self) -> np.ndarray:
        return self._counters

    def _fused_descriptor(self):
        """This sketch's entry for :func:`repro.kernels.fused.fused_update`."""
        from ..kernels.fused import FusedEntry

        return FusedEntry(
            kind="countmin",
            counters=self._counters,
            rows=self.rows,
            buckets=self.buckets,
            bucket_coefficients=self._bucket_hash._family.coefficients,
        )

    def __repr__(self) -> str:
        return (
            f"CountMinSketch(buckets={self.buckets}, rows={self.rows}, "
            f"seed_id={self.seed_id})"
        )
