"""k-wise independent polynomial hash families over a Mersenne prime.

The classic construction: pick a prime ``p`` and random coefficients
``a₀ … a_{k-1}`` with ``a_{k-1} ≠ 0``; then

    h(x) = (a_{k-1} x^{k-1} + … + a₁ x + a₀) mod p

is a k-wise independent family over ``[0, p)``.  We use the Mersenne prime
``p = 2³¹ − 1`` so that a product of two residues fits comfortably in
``uint64`` and the whole evaluation (Horner's rule) vectorizes over numpy
arrays without resorting to 128-bit arithmetic.

Keys must therefore lie in ``[0, 2³¹ − 1)`` — far larger than any domain the
paper's experiments use (``|I| = 10⁶``).  ``MERSENNE_P61`` is exported for
callers that need a larger key space and accept scalar (object-dtype)
arithmetic.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError, DomainError
from ..kernels import get_backend
from ..rng import SeedLike, as_generator

__all__ = ["MERSENNE_P31", "MERSENNE_P61", "PolynomialHashFamily", "BucketHashFamily"]

MERSENNE_P31 = 2**31 - 1
MERSENNE_P61 = 2**61 - 1

_P = np.uint64(MERSENNE_P31)
_SHIFT31 = np.uint64(31)


def _fold31(acc: np.ndarray, scratch: np.ndarray) -> None:
    """One lazy Mersenne fold in place: ``acc ← (acc & p) + (acc >> 31)``.

    The fold preserves the residue class mod ``p = 2³¹ − 1`` (because
    ``2³¹ ≡ 1``) while shrinking the value, and costs three cheap
    vectorized integer ops instead of a 64-bit division.
    """
    np.right_shift(acc, _SHIFT31, out=scratch)
    acc &= _P
    acc += scratch


def _reduce31(acc: np.ndarray, scratch: np.ndarray, bound: int) -> None:
    """Exact residue mod ``p`` in place, given ``acc ≤ bound``.

    Folds only while the worst-case bound demands it, then applies the
    unsigned-underflow trick ``min(acc, acc − p)`` — valid once
    ``acc < 2p`` — as the final conditional subtract (for ``acc < p``
    the subtraction wraps to a huge value, so the minimum picks ``acc``
    unchanged).
    """
    while bound > 2 * MERSENNE_P31 - 1:
        _fold31(acc, scratch)
        bound = (2**31 - 1) + bound // 2**31
    np.subtract(acc, _P, out=scratch)
    np.minimum(acc, scratch, out=acc)


def _horner_all(
    coefficients: np.ndarray,
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Evaluate every row's polynomial mod ``p`` in one vectorized pass.

    Lazily-reduced Horner: between iterations the accumulator is only
    *folded* (congruent mod ``p``, not canonical), and a Python-side
    worst-case bound proves each ``acc·x + c`` stays below ``2⁶⁴``; a
    second fold is inserted on the rare iterations where one would not
    suffice (degree ≥ 4).  The final :func:`_reduce31` restores the
    canonical residue, so the output is bit-identical to the per-row
    exact-reduction path of :meth:`PolynomialHashFamily.evaluate_row`.

    *out* and *scratch* are optional caller-owned ``(rows, n)`` uint64
    buffers (disjoint from each other and from *x*); the result is
    written into *out* and returned.  Omitted ones are allocated.
    """
    rows, k = coefficients.shape
    acc = np.empty((rows, x.size), dtype=np.uint64) if out is None else out
    acc[...] = coefficients[:, :1]
    if x.size == 0 or k == 1:
        return acc
    if scratch is None:
        scratch = np.empty_like(acc)
    bound = MERSENNE_P31 - 1  # worst case: acc <= bound, tracked exactly
    for j in range(1, k):
        value_bound = (bound + 1) * (MERSENNE_P31 - 1)
        assert value_bound < 2**64  # loop invariant keeps the product safe
        acc *= x
        acc += coefficients[:, j : j + 1]
        _fold31(acc, scratch)
        bound = (2**31 - 1) + value_bound // 2**31
        if j < k - 1 and (bound + 1) * (MERSENNE_P31 - 1) >= 2**64:
            _fold31(acc, scratch)
            bound = (2**31 - 1) + bound // 2**31
    _reduce31(acc, scratch, bound)
    return acc


def _bucket_reduce(
    values: np.ndarray, buckets: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``mod buckets`` over canonical hash values as ``int64``.

    Avoids the slow unsigned 64-bit division — a mask plus a free
    ``view(int64)`` reinterpretation when ``buckets`` is a power of two
    (residues are < 2³¹ so the bit pattern is unchanged), 32-bit
    division otherwise (hash values and bucket counts both fit in int32
    by construction; the ufunc casts through its own small buffers).
    Without *out* a power-of-two reduction mutates *values* in place and
    returns its view; with *out* — a caller-owned ``(rows, n)`` int64
    buffer disjoint from *values* — the result goes there.  Shared by
    :func:`_bucket_all` and the numpy backend's fused update so the two
    stay bit-identical.
    """
    if buckets & (buckets - 1) == 0:
        target = values if out is None else out.view(np.uint64)
        np.bitwise_and(values, np.uint64(buckets - 1), out=target)
        return target.view(np.int64)
    if out is None:
        out = np.empty(values.shape, dtype=np.int64)
    np.remainder(
        values, np.int32(buckets), out=out, dtype=np.int32, casting="unsafe"
    )
    return out


def _bucket_all(coefficients: np.ndarray, x: np.ndarray, buckets: int) -> np.ndarray:
    """Vectorized bucket reduction of every row's hash: ``(rows, n) int64``."""
    return _bucket_reduce(_horner_all(coefficients, x), buckets)


def _poly_rows_reference(coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-row exact-reduction Horner — the pre-kernel reference path.

    Semantically identical to :func:`_horner_all` (the equivalence tests
    pin them to each other bit for bit); kept as the behavioural
    baseline the ``"reference"`` kernel backend dispatches to.
    """
    rows, k = coefficients.shape
    out = np.empty((rows, x.size), dtype=np.uint64)
    for row in range(rows):
        acc = np.full(x.shape, coefficients[row, 0], dtype=np.uint64)
        for j in range(1, k):
            acc = (acc * x + coefficients[row, j]) % _P
        out[row] = acc
    return out


def _as_uint64(keys: np.ndarray) -> np.ndarray:
    """Reinterpret validated non-negative keys as uint64 without a copy.

    Values have already been range-checked, so for 64-bit inputs the bit
    pattern is the value and a ``view`` is exact; narrower dtypes pay
    the widening copy.
    """
    if keys.dtype == np.uint64:
        return keys
    if keys.dtype == np.int64:
        return keys.view(np.uint64)
    return keys.astype(np.uint64)


def _check_keys(keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise DomainError(f"keys must be a 1-D array, got shape {keys.shape}")
    if keys.size == 0:
        return keys.astype(np.uint64)
    if not np.issubdtype(keys.dtype, np.integer):
        raise DomainError("hash keys must be integers")
    lo = int(keys.min())
    hi = int(keys.max())
    if lo < 0 or hi >= MERSENNE_P31:
        raise DomainError(
            f"hash keys must lie in [0, {MERSENNE_P31}), saw range [{lo}, {hi}]"
        )
    return _as_uint64(keys)


class PolynomialHashFamily:
    """``rows`` independent k-wise hash functions ``h: [0, p) → [0, p)``.

    Parameters
    ----------
    k:
        Independence level; the polynomial has degree ``k - 1``.  ``k = 2``
        gives the universal family used for bucket selection, ``k = 4`` the
        family AGMS sketches need.
    rows:
        Number of independent functions drawn from the family.  Evaluation
        returns one output row per function.
    seed:
        Seed for drawing the coefficients (see :mod:`repro.rng`).
    """

    __slots__ = ("k", "rows", "_coefficients")

    def __init__(self, k: int, rows: int, seed: SeedLike = None) -> None:
        if k < 1:
            raise ConfigurationError(f"independence level k must be >= 1, got {k}")
        if rows < 1:
            raise ConfigurationError(f"rows must be >= 1, got {rows}")
        rng = as_generator(seed)
        coefficients = rng.integers(0, MERSENNE_P31, size=(rows, k), dtype=np.uint64)
        if k > 1:
            # Leading coefficient must be non-zero for full degree.
            lead = coefficients[:, 0]
            zero = lead == 0
            while np.any(zero):
                lead[zero] = rng.integers(0, MERSENNE_P31, size=int(zero.sum()), dtype=np.uint64)
                zero = lead == 0
        self.k = k
        self.rows = rows
        self._coefficients = coefficients

    @property
    def coefficients(self) -> np.ndarray:
        """The ``(rows, k)`` coefficient matrix (read-mostly, for tests)."""
        return self._coefficients

    def __call__(self, keys) -> np.ndarray:
        """Evaluate every row on *keys*; returns ``(rows, len(keys)) uint64``.

        Values are uniform over ``[0, p)`` and k-wise independent across
        distinct keys within each row; rows are mutually independent.
        """
        return self.evaluate_all(keys)

    def evaluate_all(self, keys) -> np.ndarray:
        """Row-batched evaluation: ``(rows, len(keys)) uint64`` in one pass.

        Bit-identical to stacking :meth:`evaluate_row` over every row,
        but dispatched through the active kernel backend: the default
        numpy backend runs a single vectorized lazily-reduced Horner
        pass over the whole ``(rows, n)`` matrix — no Python-level row
        loop and no 64-bit divisions (see :func:`_horner_all`) — and a
        compiled backend fuses the loop entirely.
        """
        return get_backend().polynomial_mod_p(self._coefficients, _check_keys(keys))

    def evaluate_row(self, row: int, keys) -> np.ndarray:
        """Evaluate a single row on *keys*; returns ``(len(keys),) uint64``."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")
        return self._evaluate_row(row, _check_keys(keys))

    def _evaluate_row(self, row: int, x: np.ndarray) -> np.ndarray:
        # Horner's rule mod p.  All residues are < 2³¹ so every product of
        # two residues fits in uint64 before reduction.
        acc = np.full(x.shape, self._coefficients[row, 0], dtype=np.uint64)
        for j in range(1, self.k):
            acc = (acc * x + self._coefficients[row, j]) % _P
        return acc


class BucketHashFamily:
    """``rows`` independent 2-universal functions ``h: keys → [0, buckets)``.

    This is the bucket-selection hash of F-AGMS / Count-Sketch: within each
    row, keys are spread over ``buckets`` cells.  Built on a pairwise
    (``k = 2``) polynomial family followed by a ``mod buckets`` reduction;
    the composition remains 2-universal up to the usual ``O(buckets / p)``
    deviation from uniformity, negligible for ``buckets ≪ 2³¹``.
    """

    __slots__ = ("buckets", "rows", "_family")

    def __init__(self, buckets: int, rows: int, seed: SeedLike = None) -> None:
        if buckets < 1:
            raise ConfigurationError(f"buckets must be >= 1, got {buckets}")
        if buckets > MERSENNE_P31 // 4:
            raise ConfigurationError(
                f"buckets={buckets} too close to the hash prime; "
                "uniformity would degrade"
            )
        self.buckets = buckets
        self.rows = rows
        self._family = PolynomialHashFamily(2, rows, seed)

    def __call__(self, keys) -> np.ndarray:
        """Bucket index per row: ``(rows, len(keys))`` in ``[0, buckets)``."""
        return self.evaluate_all(keys)

    def evaluate_all(self, keys) -> np.ndarray:
        """Row-batched bucket indices: ``(rows, len(keys)) int64`` in one pass.

        Bit-identical to stacking :meth:`evaluate_row`; dispatched
        through the active kernel backend so the polynomial pass and the
        ``mod buckets`` reduction run fused (see :func:`_bucket_all` for
        the numpy path).
        """
        return get_backend().bucket_indices(
            self._family.coefficients, _check_keys(keys), self.buckets
        )

    def evaluate_row(self, row: int, keys) -> np.ndarray:
        """Bucket index of a single row: ``(len(keys),)`` in ``[0, buckets)``."""
        values = self._family.evaluate_row(row, keys)
        return (values % np.uint64(self.buckets)).astype(np.int64)
