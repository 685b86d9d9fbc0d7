"""Families of ±1 random variables ("ξ families") for AGMS-style sketches.

An AGMS sketch needs, for each basic estimator, a function ``ξ: I → {−1,+1}``
such that the values at any four distinct domain points are independent
(4-wise independence).  That property is exactly what makes the size-of-join
estimator unbiased and gives the variance of Props 7–8.

Two constructions are provided:

:class:`FourWiseSignFamily`
    The classic construction: a degree-3 polynomial over the Mersenne prime
    ``2³¹ − 1``; the sign is the parity bit of the hash value.  The parity
    of a uniform value on ``[0, p)`` with odd ``p`` is biased by ``1/p ≈
    4.7·10⁻¹⁰`` — utterly negligible, and this is the standard practical
    implementation of 4-wise ξ.

:class:`EH3SignFamily`
    The EH3 scheme (Feigenbaum et al.; analyzed for sketching by Rusu &
    Dobra, TODS 2007 — the paper's reference [17]): for a random seed
    ``(s₀, S)``, ``ξ(i) = (−1)^{s₀ ⊕ (S·i) ⊕ h(i)}`` where ``S·i`` is the
    GF(2) inner product of the seed and key bit vectors and ``h(i)`` XORs
    the ANDs of adjacent key-bit pairs.  EH3 is *exactly* 3-wise
    independent, is much faster than polynomial evaluation, and in practice
    behaves at least as well as 4-wise schemes for sketch estimation.

Both expose the same interface: calling the family with an array of keys
returns an ``int8`` matrix of shape ``(rows, len(keys))`` with entries ±1.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DomainError
from ..kernels import get_backend
from ..rng import SeedLike, as_generator
from .families import PolynomialHashFamily, _as_uint64, _check_keys

__all__ = ["SignFamily", "FourWiseSignFamily", "EH3SignFamily"]


def _parity_signs(values: np.ndarray) -> np.ndarray:
    """Map hash values to ±1 via the parity bit: ``2·(v & 1) − 1`` as int8."""
    return ((values & np.uint64(1)).astype(np.int8) << 1) - np.int8(1)


class SignFamily:
    """Abstract interface of a ±1 family.

    Subclasses implement :meth:`evaluate_all` (row-batched, the path the
    sketch kernels use) and :meth:`evaluate_row`; calling the family is
    an alias for :meth:`evaluate_all`.  The shared :attr:`rows`
    attribute is the number of independent ξ functions.
    """

    rows: int

    def __call__(self, keys) -> np.ndarray:
        """ξ values for every row: ``(rows, len(keys)) int8`` of ±1."""
        return self.evaluate_all(keys)

    def evaluate_all(self, keys) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def evaluate_row(self, row: int, keys) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")


class FourWiseSignFamily(SignFamily):
    """4-wise independent ±1 family via degree-3 polynomials mod ``2³¹ − 1``."""

    __slots__ = ("rows", "_family")

    def __init__(self, rows: int, seed: SeedLike = None) -> None:
        if rows < 1:
            raise ConfigurationError(f"rows must be >= 1, got {rows}")
        self.rows = rows
        self._family = PolynomialHashFamily(4, rows, seed)

    def evaluate_all(self, keys) -> np.ndarray:
        """ξ values for every row: ``(rows, len(keys)) int8`` of ±1.

        One polynomial pass over all rows, dispatched through the
        active kernel backend so the Horner loop and the parity map run
        fused (bit-identical to stacking :meth:`evaluate_row`).
        """
        return get_backend().parity_signs(
            self._family.coefficients, _check_keys(keys)
        )

    def evaluate_row(self, row: int, keys) -> np.ndarray:
        """ξ values of one row: ``(len(keys),) int8`` of ±1."""
        self._check_row(row)
        return _parity_signs(self._family.evaluate_row(row, keys))


class EH3SignFamily(SignFamily):
    """Exactly 3-wise independent ±1 family (EH3 generator).

    Keys must fit in ``bits`` bits (default 31, matching the polynomial
    families' key space).  The per-row seed is one bit ``s₀`` plus a
    ``bits``-wide vector ``S``.
    """

    __slots__ = ("rows", "bits", "_s0", "_seeds")

    def __init__(self, rows: int, seed: SeedLike = None, *, bits: int = 31) -> None:
        if rows < 1:
            raise ConfigurationError(f"rows must be >= 1, got {rows}")
        if not 1 <= bits <= 63:
            raise ConfigurationError(f"bits must be in [1, 63], got {bits}")
        rng = as_generator(seed)
        self.rows = rows
        self.bits = bits
        self._s0 = rng.integers(0, 2, size=rows, dtype=np.uint64)
        self._seeds = rng.integers(0, 2**bits, size=rows, dtype=np.uint64)

    def _check_keys(self, keys) -> np.ndarray:
        x = np.asarray(keys)
        if x.ndim != 1:
            raise DomainError(f"keys must be a 1-D array, got shape {x.shape}")
        if x.size == 0:
            return x.astype(np.uint64)
        if not np.issubdtype(x.dtype, np.integer):
            raise DomainError("EH3 keys must be integers")
        lo, hi = int(x.min()), int(x.max())
        if lo < 0 or hi >= 2**self.bits:
            raise DomainError(
                f"EH3 keys must lie in [0, 2^{self.bits}), saw range [{lo}, {hi}]"
            )
        return _as_uint64(x)

    @staticmethod
    def _nonlinear_parity(x: np.ndarray) -> np.ndarray:
        """Parity of ``⊕ₖ (bit₂ₖ(x) ∧ bit₂ₖ₊₁(x))`` — the EH3 h(i) term."""
        even_bits = x & np.uint64(0x5555555555555555)
        odd_bits = (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
        pairs = even_bits & odd_bits
        return np.bitwise_count(pairs).astype(np.uint64) & np.uint64(1)

    def evaluate_all(self, keys) -> np.ndarray:
        """ξ values for every row: ``(rows, len(keys)) int8`` of ±1.

        One broadcast bit-trick pass over all rows (bit-identical to
        stacking :meth:`evaluate_row`): the GF(2) inner products of all
        row seeds against all keys are popcounted as a ``(rows, n)``
        matrix, and the shared nonlinear term is computed once.
        """
        x = self._check_keys(keys)
        nonlinear = self._nonlinear_parity(x)
        linear = np.bitwise_count(
            x[None, :] & self._seeds[:, None]
        ).astype(np.uint64) & np.uint64(1)
        bit = self._s0[:, None] ^ linear ^ nonlinear[None, :]
        return (bit.astype(np.int8) << 1) - np.int8(1)

    def evaluate_row(self, row: int, keys) -> np.ndarray:
        """ξ values of one row: ``(len(keys),) int8`` of ±1."""
        self._check_row(row)
        x = self._check_keys(keys)
        return self._row_signs(row, x, self._nonlinear_parity(x))

    def _row_signs(self, row: int, x: np.ndarray, nonlinear: np.ndarray) -> np.ndarray:
        linear = np.bitwise_count(x & self._seeds[row]).astype(np.uint64) & np.uint64(1)
        bit = self._s0[row] ^ linear ^ nonlinear
        return (bit.astype(np.int8) << 1) - np.int8(1)
