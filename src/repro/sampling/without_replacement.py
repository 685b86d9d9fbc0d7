"""Sampling without replacement (Sections III-E, VI-C).

A fixed-size uniform random *subset* of the base relation.  The sample
frequency vector ``(f′ᵢ)`` is multivariate hypergeometric.  This is the
sampling model behind online aggregation: the prefix of a random-order scan
of a relation is exactly a WOR sample of the scanned fraction, which is how
:mod:`repro.engine` uses it.

Two implementations:

* :class:`WithoutReplacementSampler` — offline: index-permutation draw for
  tuple arrays, a direct multivariate-hypergeometric draw for frequency
  vectors;
* :class:`ReservoirSampler` — streaming one-pass reservoir (Algorithm R,
  vectorized per chunk) producing the same distribution without knowing the
  stream length in advance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError, InsufficientDataError
from ..frequency import FrequencyVector
from ..rng import SeedLike, as_generator
from .base import SampleInfo, Sampler

__all__ = ["WithoutReplacementSampler", "ReservoirSampler"]


class WithoutReplacementSampler(Sampler):
    """Uniform fixed-size sample drawn without replacement.

    Exactly one of *size* and *fraction* must be given; the fraction must
    lie in ``(0, 1]`` (a WOR sample cannot exceed the population).
    """

    scheme = "without_replacement"

    __slots__ = ("size", "fraction")

    def __init__(
        self, *, size: Optional[int] = None, fraction: Optional[float] = None
    ) -> None:
        if (size is None) == (fraction is None):
            raise ConfigurationError("specify exactly one of size= or fraction=")
        if size is not None and size < 1:
            raise ConfigurationError(f"sample size must be >= 1, got {size}")
        if fraction is not None and not 0 < fraction <= 1:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        self.size = size
        self.fraction = fraction

    def resolve_size(self, population_size: int) -> int:
        """Sample size for a population of *population_size* tuples."""
        if population_size < 1:
            raise ConfigurationError("cannot sample from an empty relation")
        if self.size is not None:
            if self.size > population_size:
                raise ConfigurationError(
                    f"WOR sample size {self.size} exceeds population "
                    f"{population_size}"
                )
            return self.size
        return min(population_size, max(1, int(round(self.fraction * population_size))))

    def sample_items(
        self, keys: np.ndarray, seed: SeedLike = None
    ) -> tuple[np.ndarray, SampleInfo]:
        keys = np.asarray(keys)
        m = self.resolve_size(keys.size)
        rng = as_generator(seed)
        indices = rng.choice(keys.size, size=m, replace=False)
        sampled = keys[indices]
        info = SampleInfo(
            scheme=self.scheme,
            population_size=int(keys.size),
            sample_size=m,
        )
        return sampled, info

    def sample_frequencies(
        self, frequencies: FrequencyVector, seed: SeedLike = None
    ) -> tuple[FrequencyVector, SampleInfo]:
        population = frequencies.total
        m = self.resolve_size(population)
        rng = as_generator(seed)
        counts = rng.multivariate_hypergeometric(
            frequencies.counts, m, method="marginals"
        )
        sample = FrequencyVector(counts.astype(np.int64), copy=False)
        info = SampleInfo(
            scheme=self.scheme,
            population_size=population,
            sample_size=m,
        )
        return sample, info

    def __repr__(self) -> str:
        if self.size is not None:
            return f"WithoutReplacementSampler(size={self.size})"
        return f"WithoutReplacementSampler(fraction={self.fraction})"


class ReservoirSampler:
    """One-pass streaming WOR sample of fixed capacity (Algorithm R).

    Feed the stream through :meth:`extend` in arbitrary chunk sizes; at any
    point :meth:`sample` returns a uniform without-replacement sample of the
    tuples seen so far (all of them while fewer than *capacity* arrived).

    The chunked update exploits a property of numpy fancy assignment —
    ``reservoir[idx] = values`` applies writes in order, so later stream
    positions overwrite earlier ones exactly as the sequential algorithm
    prescribes.
    """

    __slots__ = ("capacity", "_rng", "_reservoir", "_seen", "_filled")

    def __init__(self, capacity: int, seed: SeedLike = None) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = as_generator(seed)
        self._reservoir = np.zeros(capacity, dtype=np.int64)
        self._seen = 0
        self._filled = 0

    @property
    def seen(self) -> int:
        """Tuples consumed so far."""
        return self._seen

    def extend(self, keys) -> None:
        """Consume a chunk of the stream."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise ConfigurationError(f"keys must be 1-D, got shape {keys.shape}")
        offset = 0
        if self._filled < self.capacity:
            take = min(self.capacity - self._filled, keys.size)
            self._reservoir[self._filled : self._filled + take] = keys[:take]
            self._filled += take
            self._seen += take
            offset = take
        tail = keys[offset:]
        if tail.size == 0:
            return
        # Global 0-based positions of the tail items within the stream.
        positions = self._seen + np.arange(tail.size, dtype=np.int64)
        slots = self._rng.integers(0, positions + 1)
        accept = slots < self.capacity
        self._reservoir[slots[accept]] = tail[accept]
        self._seen += tail.size

    def sample(self) -> np.ndarray:
        """The current reservoir contents (a copy)."""
        return self._reservoir[: self._filled].copy()

    def info(self) -> SampleInfo:
        """Draw metadata for the current reservoir state."""
        if self._seen == 0:
            raise InsufficientDataError("reservoir has not consumed any tuples")
        return SampleInfo(
            scheme="without_replacement",
            population_size=self._seen,
            sample_size=self._filled,
        )

    def __repr__(self) -> str:
        return (
            f"ReservoirSampler(capacity={self.capacity}, seen={self._seen}, "
            f"filled={self._filled})"
        )
