"""Adaptive load shedding: a sketch fed at a *varying* Bernoulli rate.

:class:`AdaptiveSheddingSketcher` is the library's shedding sketcher.  At
a fixed keep-probability it is the paper's Section VI-A sketcher; the
rate may also be retuned between chunks (by a
:class:`~repro.resilience.governor.LoadGovernor` or manually) and the
estimates stay unbiased for the full stream at every moment.

Each kept tuple is inserted Horvitz–Thompson-weighted by ``1/p_s`` (the
rate in force when it arrived), so the counters are unbiased for the
*unsampled* stream; the self-join estimate subtracts the piecewise
correction, and intervals use the widened variance bound, both read from
the :class:`~repro.core.load_shedding.LoadShedder`'s rate ledger.
"""

from __future__ import annotations

import numpy as np

from ..core.load_shedding import LoadShedder
from ..errors import CheckpointError, ConfigurationError
from ..rng import SeedLike
from ..sketches.agms import AgmsSketch
from ..sketches.base import Sketch
from ..sketches.fagms import FagmsSketch
from ..variance.bounds import ConfidenceInterval, interval

__all__ = ["AdaptiveSheddingSketcher", "averaged_estimator_count"]


def averaged_estimator_count(sketch: Sketch) -> int:
    """Number of averaged basic estimators credited in variance bounds.

    F-AGMS: every bucket of a row acts as one averaged basic estimator
    (the paper's "equivalent to averaging 5,000 or 10,000 basic
    estimators"); the median over rows is credited as free.  AGMS: the
    rows for mean combining, one group's worth for median-of-means, and a
    single estimator for pure median — conservative choices that keep the
    bound an upper bound.
    """
    if isinstance(sketch, FagmsSketch):
        return sketch.buckets
    if isinstance(sketch, AgmsSketch):
        if sketch.combine == "mean":
            return sketch.rows
        if sketch.combine == "median-of-means":
            return max(1, sketch.rows // sketch.groups)
        return 1
    raise ConfigurationError(
        f"{type(sketch).__name__} has no unbiased second-moment combiner; "
        "adaptive shedding estimates need an AGMS or F-AGMS sketch"
    )


class AdaptiveSheddingSketcher:
    """A sketch behind a Bernoulli shedder whose rate may change mid-stream.

    Rate, tallies and corrections all come from :attr:`shedder`.  At
    ``p = 1`` the update path is bit-identical to feeding the sketch
    directly.
    """

    __slots__ = ("sketch", "shedder")

    def __init__(self, sketch: Sketch, p: float = 1.0, seed: SeedLike = None) -> None:
        self.sketch = sketch
        self.shedder = LoadShedder(p, seed)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------

    @property
    def rate(self) -> float:
        """The keep-probability currently in force."""
        return self.shedder.p

    @property
    def seen(self) -> int:
        """Total tuples that arrived."""
        return self.shedder.seen

    @property
    def kept(self) -> int:
        """Total tuples that survived shedding and were sketched."""
        return self.shedder.kept

    def process(self, keys) -> int:
        """Consume one chunk of the raw stream; returns tuples sketched.

        Survivors are inserted with Horvitz–Thompson weight ``1/p`` (the
        current rate), keeping the counters unbiased for the full stream.
        At ``p = 1`` the unweighted integer fast path is used, so an
        unshedded adaptive sketcher matches a plain sketch bit for bit.
        When the sketch update raises, the shedder is rewound first, so a
        replay of the chunk is shed and tallied exactly once.
        """
        p = self.shedder.p
        mark = self.shedder.mark()
        kept = self.shedder.filter(keys)
        if kept.size:
            try:
                if p >= 1.0:
                    self.sketch.update(kept)
                else:
                    self.sketch.update(
                        kept, np.full(kept.size, 1.0 / p, dtype=np.float64)
                    )
            except BaseException:
                self.shedder.rewind(mark)
                raise
        return int(kept.size)

    def set_rate(self, p: float) -> None:
        """Retune the keep-probability at a chunk boundary.

        Validates *p* first (state is untouched on rejection), redraws the
        shedder's carried skip-state under the new rate, and opens a new
        segment in its rate ledger.
        """
        self.shedder.set_p(p)

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------

    def self_join_size(self) -> float:
        """Unbiased full-stream ``F₂`` estimate (piecewise Prop 14)."""
        averaged_estimator_count(self.sketch)  # reject min-combined sketches
        return self.sketch.second_moment() - self.shedder.correction()

    def join_size(self, other: "AdaptiveSheddingSketcher") -> float:
        """Unbiased full-stream ``|F ⋈ G|`` estimate (piecewise Prop 13).

        The HT-weighted counters are unbiased for the unsampled streams,
        so the inner product needs no trailing ``1/(pq)`` scale.
        """
        averaged_estimator_count(self.sketch)
        return self.sketch.inner_product(other.sketch)

    def self_join_interval(
        self, confidence: float = 0.95, *, method: str = "chebyshev"
    ) -> ConfidenceInterval:
        """Confidence interval for :meth:`self_join_size`, valid across rates.

        Uses the shedder's conservative piecewise variance bound; the
        default distribution-independent Chebyshev bound keeps empirical
        coverage at or above nominal for any stream.  ``method="clt"``
        gives the narrower normal-approximation interval.
        """
        estimate = self.self_join_size()
        variance = self.shedder.variance_bound(
            estimate, averaged_estimator_count(self.sketch)
        )
        return interval(estimate, variance, confidence, method)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """JSON-serializable shedder state (sketch excluded).

        The rate ledger sits under ``schedule``, apart from the rest of
        the shedder, as in every checkpoint written so far.  The sketch's
        counters/seeds are persisted separately through
        :mod:`repro.sketches.serialization`.
        """
        shedder = self.shedder.state()
        segments = shedder.pop("segments")
        return {"shedder": shedder, "schedule": {"segments": segments}}

    @classmethod
    def restore(cls, sketch: Sketch, state: dict) -> "AdaptiveSheddingSketcher":
        """Rebuild from a reconstructed sketch and a :meth:`state` snapshot.

        Raises :class:`~repro.errors.CheckpointError` when the snapshot is
        malformed (see :meth:`LoadShedder.restore`).
        """
        try:
            shedder = {**state["shedder"], "segments": state["schedule"]["segments"]}
        except (KeyError, TypeError) as error:
            raise CheckpointError(f"malformed shedding state: {error!r}") from error
        sketcher = object.__new__(cls)
        sketcher.sketch = sketch
        sketcher.shedder = LoadShedder.restore(shedder)
        return sketcher

    def __repr__(self) -> str:
        return (
            f"AdaptiveSheddingSketcher(rate={self.rate}, seen={self.seen}, "
            f"kept={self.kept}, sketch={self.sketch!r})"
        )
