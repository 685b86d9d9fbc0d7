"""Load shedding for sketches: Bernoulli sampling in front of the sketch.

Section VI-A of the paper: when a stream is too fast to sketch every tuple,
drop tuples with a Bernoulli filter and sketch only the survivors — the
combined estimator analysis (Props 13–14) quantifies exactly how much
accuracy a given shedding rate costs.

The filter is implemented with *skip-ahead* sampling (ref [18]): instead of
tossing a coin per tuple, the gaps between kept tuples are drawn from the
geometric distribution, so the shedder does work proportional only to the
kept tuples — which is what makes the end-to-end speed-up ``∝ 1/p`` real
(benchmarked in ``benchmarks/test_update_speedup.py``).

The rate may change between chunks, so :class:`LoadShedder` keeps a
ledger of rate segments and the piecewise-rate corrections of
``docs/THEORY.md`` §5 that unbias a sketch fed survivors weighted by
``1/p`` (:class:`~repro.resilience.adaptive.AdaptiveSheddingSketcher`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ..errors import (
    CheckpointError,
    ConfigurationError,
    EstimationError,
    InsufficientDataError,
)
from ..rng import SeedLike, as_generator
from ..sampling.base import SampleInfo
from ..sampling.bernoulli import bernoulli_skip_lengths

__all__ = ["LoadShedder", "shedding_correction"]


def shedding_correction(segments) -> float:
    """The additive self-join correction ``A = Σ_s N_s (1 − p_s)/p_s``.

    *segments* yields ``(p_s, N_s)`` pairs: a keep-rate and the number of
    tuples that *arrived* under it.  ``second_moment() − A`` is unbiased
    for the full-stream ``F₂`` when kept tuples were inserted with weight
    ``1/p_s``; for one segment ``A = N(1 − p)/p`` has the expectation of
    Prop 14's ``((1 − p)/p²)·|F′|`` but is deterministic.
    """
    return sum(seen * (1.0 - p) / p for p, seen in segments)


@dataclass
class _Segment:
    """One run of chunks shed at a single keep-probability."""

    p: float
    seen: int = 0
    kept: int = 0


class LoadShedder:
    """Stateful Bernoulli(p) filter over a chunked stream, skip-ahead style.

    The kept positions across the concatenation of all chunks are
    distributed exactly as independent Bernoulli selections at the rate in
    force; state (the distance to the next kept tuple) carries across
    chunk boundaries.  Each :meth:`set_p` opens a segment of the rate
    ledger that :meth:`correction` and :meth:`variance_bound` read.
    """

    __slots__ = ("_rng", "_until_next", "_segments")

    def __init__(self, p: float, seed: SeedLike = None) -> None:
        self._segments = [_Segment(_check_rate(p))]
        self._rng = as_generator(seed)
        # Offset (within the upcoming stream) of the next kept tuple.
        self._until_next = int(bernoulli_skip_lengths(self.p, 1, self._rng)[0])

    @property
    def p(self) -> float:
        """The keep-probability currently in force."""
        return self._segments[-1].p

    @property
    def seen(self) -> int:
        """Total tuples that arrived."""
        return sum(segment.seen for segment in self._segments)

    @property
    def kept(self) -> int:
        """Total tuples that survived shedding."""
        return sum(segment.kept for segment in self._segments)

    @property
    def segments(self) -> tuple:
        """The rate ledger: ``(p, seen, kept)`` per run of chunks at one rate."""
        return tuple((s.p, s.seen, s.kept) for s in self._segments)

    def set_p(self, p: float) -> None:
        """Change the keep-probability at a chunk boundary.

        Opens a new ledger segment (or re-rates the current one while no
        tuple has arrived in it) and redraws the pending gap, drawn under
        the old rate, from Geometric(p): by memorylessness the kept
        positions from here on are a fresh Bernoulli(p) process.  An
        invalid *p* is rejected before any state is touched.
        """
        p = _check_rate(p)
        if self._segments[-1].seen:
            self._segments.append(_Segment(p))
        else:
            self._segments[-1].p = p
        self._until_next = int(bernoulli_skip_lengths(self.p, 1, self._rng)[0])

    def state(self) -> dict:
        """JSON-serializable snapshot of the filter state and rate ledger.

        :meth:`restore` resumes the kept-position sequence from it
        bit-identically.
        """
        return {
            "p": self.p,
            "seen": self.seen,
            "kept": self.kept,
            "until_next": self._until_next,
            "rng_state": self._rng.bit_generator.state,
            "segments": [
                {"p": s.p, "seen": s.seen, "kept": s.kept} for s in self._segments
            ],
        }

    @classmethod
    def restore(cls, state: dict) -> "LoadShedder":
        """Rebuild a shedder from a :meth:`state` snapshot.

        A missing or mistyped field, a rate outside ``(0, 1]``, or a ledger
        that disagrees with the recorded rate and totals raises
        :class:`~repro.errors.CheckpointError`.
        """
        try:
            segments = [
                _Segment(_check_rate(s["p"]), _count(s["seen"]), _count(s["kept"]))
                for s in state["segments"]
            ]
            p = _check_rate(state["p"])
            totals = (_count(state["seen"]), _count(state["kept"]))
            shedder = cls(p)
            shedder._rng.bit_generator.state = state["rng_state"]
            shedder._until_next = _count(state["until_next"])
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(f"malformed shedder state: {error!r}") from error
        shedder._segments = segments
        if (
            not segments
            or segments[-1].p != p
            or (shedder.seen, shedder.kept) != totals
            or any(segment.kept > segment.seen for segment in segments)
        ):
            raise CheckpointError(
                f"shedder ledger {shedder.segments} disagrees with its rate "
                f"{p} and totals (seen, kept) = {totals}"
            )
        return shedder

    def mark(self) -> tuple:
        """An undo point for :meth:`rewind`: tallies, pending gap, RNG state."""
        segment, rng_state = self._segments[-1], self._rng.bit_generator.state
        return segment, segment.seen, segment.kept, self._until_next, rng_state

    def rewind(self, mark: tuple) -> None:
        """Undo every :meth:`filter` since *mark* (no :meth:`set_p` between).

        The next :meth:`filter` then keeps what the undone ones kept.
        """
        segment, seen, kept, until_next, rng_state = mark
        segment.seen, segment.kept = seen, kept
        self._until_next = until_next
        self._rng.bit_generator.state = rng_state

    def filter(self, keys) -> np.ndarray:
        """Return the surviving tuples of one chunk, preserving order."""
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ConfigurationError(f"keys must be 1-D, got shape {keys.shape}")
        current = self._segments[-1]
        length = keys.size
        current.seen += length
        if current.p >= 1.0:
            current.kept += length
            return keys
        positions = self._kept_positions(length, current.p)
        current.kept += positions.size
        return keys[positions]

    def _kept_positions(self, length: int, p: float) -> np.ndarray:
        """Positions kept within a chunk of *length*, advancing the state."""
        collected: list[np.ndarray] = []
        position = self._until_next
        while position < length:
            # Draw a batch of gaps sized to (over-)cover the rest of the chunk.
            remaining = length - position
            batch = max(16, int(remaining * p * 1.5) + 8)
            gaps = bernoulli_skip_lengths(p, batch, self._rng)
            steps = np.empty(batch, dtype=np.int64)
            steps[0] = 0
            np.cumsum(gaps[:-1] + 1, out=steps[1:])
            positions = position + steps
            inside = positions < length
            collected.append(positions[inside])
            if bool(inside.all()):
                # Batch exhausted inside the chunk: continue from the last
                # kept position plus its following gap.
                position = int(positions[-1]) + 1 + int(
                    bernoulli_skip_lengths(p, 1, self._rng)[0]
                )
            else:
                position = int(positions[np.argmin(inside)])
                break
        self._until_next = position - length
        if not collected:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(collected)

    def info(self) -> SampleInfo:
        """Bernoulli draw metadata for the stream consumed so far.

        Only a single-rate stream is one Bernoulli draw: once tuples have
        arrived under more than one rate this raises
        :class:`~repro.errors.EstimationError` (use :meth:`correction` and
        :meth:`variance_bound` with ``1/p``-weighted survivors instead).
        """
        if not self.seen:
            raise InsufficientDataError("no tuples have been processed yet")
        rates = {segment.p for segment in self._segments if segment.seen}
        if len(rates) > 1:
            raise EstimationError(
                f"tuples arrived under keep-rates {sorted(rates)}; a "
                "piecewise-rate stream is not one Bernoulli draw"
            )
        return SampleInfo(
            scheme="bernoulli",
            population_size=self.seen,
            sample_size=self.kept,
            probability=rates.pop(),
        )

    def min_rate(self) -> float:
        """Smallest rate any arrived tuple fell under (else the current rate)."""
        return min(
            (segment.p for segment in self._segments if segment.seen),
            default=self.p,
        )

    def correction(self) -> float:
        """The ledger's self-join correction (:func:`shedding_correction`)."""
        return shedding_correction((s.p, s.seen) for s in self._segments)

    def variance_bound(self, f2: float, n: int) -> float:
        """Conservative variance of the piecewise-rate self-join estimator.

        The widened Props 13–14 bound derived in ``docs/THEORY.md`` §5,
        evaluated at the smallest rate used: a sampling part
        ``4c₁F₂^{3/2} + (4c₂+2c₁²)F₂ + c₃F₁`` with ``c_k = (1−p_m)/p_m^k``
        plus ``(2/n)[(F₂+A)² + sampling]``.  *f2* is the caller's estimate
        of the full-stream ``F₂`` (clamped at 0); *n* is the number of
        averaged basic estimators (buckets for F-AGMS, rows for AGMS).
        """
        if n < 1:
            raise ConfigurationError(f"averaged estimator count must be >= 1, got {n}")
        f2 = max(float(f2), 0.0)
        f1 = float(self.seen)
        p_min = self.min_rate()
        c1 = (1.0 - p_min) / p_min
        c2 = (1.0 - p_min) / p_min**2
        c3 = (1.0 - p_min) / p_min**3
        sampling = 4.0 * c1 * f2**1.5 + (4.0 * c2 + 2.0 * c1**2) * f2 + c3 * f1
        return sampling + (2.0 / n) * ((f2 + self.correction()) ** 2 + sampling)

    def __repr__(self) -> str:
        return f"LoadShedder(p={self.p}, seen={self.seen}, kept={self.kept})"


def _check_rate(p: float) -> float:
    """*p* as a float; ``ConfigurationError`` outside ``(0, 1]``."""
    if not 0 < p <= 1:
        raise ConfigurationError(f"shedding probability must be in (0, 1], got {p}")
    return float(p)


def _count(value) -> int:
    """A restored tally; ``TypeError``/``ValueError`` unless a natural number."""
    count = operator.index(value)
    if count < 0:
        raise ValueError(f"tally {count} is negative")
    return count
