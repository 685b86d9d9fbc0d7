"""Immutable, generation-tagged snapshots of the statistics engine.

The serving layer (ROADMAP item 1) needs ingestion and queries to never
block each other.  The mechanism is *snapshot isolation*:
:meth:`~repro.engine.statistics.OnlineStatisticsEngine.consume` mutates
private scan state, while
:meth:`~repro.engine.statistics.OnlineStatisticsEngine.snapshot` publishes
an :class:`EngineSnapshot` — an immutable, self-contained view of every
registered relation at one moment of the scan.  Queries evaluated against
a snapshot can never observe a torn update, because the snapshot's counter
arrays are frozen copies (``writeable = False``) published atomically.

Publication is **copy-on-write at snapshot granularity**: the engine keeps
the last published frozen array per relation, keyed by that relation's
mutation count.  Rotating a snapshot copies only the counters of relations
that actually changed since the previous rotation — an idle relation's
array is shared (by reference) across every snapshot generation, so a
registry rotating after every chunk pays one array copy per *mutated*
relation, not per relation.

Every snapshot carries a **generation** — the engine's total mutation
count at publication time.  Generations are strictly monotone per engine,
which is what lets a concurrent reader prove it never travelled back in
time (see ``tests/serving/test_concurrent_consistency.py``).

A snapshot is the engine's one way out: it answers every estimate of the
scanned prefixes (point frequency, self-join, join, fractions), attaches
the paper's variance-derived confidence intervals via the runtime plug-in
bounds of :mod:`repro.variance.runtime`, and reproduces the engine's
durable checkpoint payload byte for byte
(:meth:`EngineSnapshot.checkpoint_payload`).

Because a snapshot never changes, every per-relation statistic the
query path needs is computed on first use and kept: the per-row raw and
WOR-corrected second moments, their combined values and the unbiasing
constants.  Publication computes none of them, so ingest and rotation
pay nothing for a snapshot nobody queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ..errors import ConfigurationError, InsufficientDataError
from ..sampling.base import SampleInfo
from ..sampling.unbiasing import _expectation_inverse, self_join_correction
from ..sketches._combine import combine_estimates
from ..sketches.fagms import FagmsSketch
from ..sketches.serialization import build_sketch
from ..variance.bounds import ConfidenceInterval, interval
from ..variance.runtime import (
    prefix_join_variance,
    prefix_point_frequency_variance,
    prefix_self_join_variance,
)

__all__ = [
    "EngineSnapshot",
    "RelationMoments",
    "RelationSnapshot",
    "StatisticsSnapshot",
    "join_interval_between",
    "join_scale_between",
    "join_size_between",
    "join_variance_between",
]


@dataclass(frozen=True)
class StatisticsSnapshot:
    """All statistics available at one moment of the scan."""

    fractions: dict
    self_join_sizes: dict
    join_sizes: dict

    def __repr__(self) -> str:
        scanned = ", ".join(
            f"{name}={fraction:.0%}" for name, fraction in self.fractions.items()
        )
        return f"StatisticsSnapshot({scanned})"


@dataclass(frozen=True)
class RelationSnapshot:
    """One relation's frozen scan state at publication time.

    ``counters`` is a read-only ``float64`` array — attempting to write
    through it raises, so a published snapshot can never be torn by later
    ingestion.
    """

    name: str
    total_tuples: int
    scanned: int
    counters: np.ndarray

    @property
    def fraction(self) -> float:
        """Scanned fraction of the relation at publication time."""
        return self.scanned / self.total_tuples if self.total_tuples else 0.0

    def info(self) -> SampleInfo:
        """The WOR draw metadata of the frozen prefix."""
        return SampleInfo(
            scheme="without_replacement",
            population_size=self.total_tuples,
            sample_size=self.scanned,
        )


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class RelationMoments:
    """One frozen relation's query-path statistics, each kept after first use.

    Every value is a pure function of the frozen counters, so keeping it
    is bit-identical to recomputing it per query.  With fewer than 2
    scanned tuples, every WOR-corrected value raises
    :class:`~repro.errors.InsufficientDataError`, on every access.
    """

    def __init__(self, relation: RelationSnapshot, sketch: FagmsSketch) -> None:
        self.relation = relation
        self.sketch = sketch

    def _combine(self, rows: np.ndarray) -> float:
        return combine_estimates(rows, self.sketch.combine, self.sketch.groups)

    @cached_property
    def rows(self) -> np.ndarray:
        """Per-row raw ``Σ_b counter²``."""
        return _frozen(self.sketch.row_second_moments())

    @cached_property
    def second_moment(self) -> float:
        """:attr:`rows` combined: the sketch's raw second moment."""
        return self._combine(self.rows)

    @cached_property
    def correction(self) -> tuple[float, float, float]:
        """The self-join unbiasing ``(scale, random_coefficient, constant)``."""
        relation = self.relation
        if relation.scanned < 2:
            raise InsufficientDataError(
                f"need at least 2 scanned tuples of {relation.name!r} to unbias F2"
            )
        correction = self_join_correction(relation.info())
        return (
            float(correction.scale),
            float(correction.random_coefficient),
            float(correction.constant),
        )

    @cached_property
    def join_factor(self) -> Fraction:
        """``1/α``: two prefixes' join scale is the product of their factors."""
        return _expectation_inverse(self.relation.info())

    @cached_property
    def corrected_rows(self) -> np.ndarray:
        """Per-row unbiased ``F₂``: the correction applied before combining."""
        scale, random_coefficient, constant = self.correction
        return _frozen(
            scale * self.rows
            - random_coefficient * self.relation.scanned
            - constant
        )

    @cached_property
    def corrected_second_moment(self) -> float:
        """:attr:`corrected_rows` combined (the set-expression ``F₂`` term).

        Equals :attr:`self_join_size` in exact arithmetic, since the
        correction is affine with positive scale; the two orders can
        differ in the last bits, and each estimator keeps its own.
        """
        return self._combine(self.corrected_rows)

    @cached_property
    def self_join_size(self) -> float:
        """Unbiased ``F₂``: the correction applied to :attr:`second_moment`."""
        scale, random_coefficient, constant = self.correction
        return (
            scale * self.second_moment
            - random_coefficient * self.relation.scanned
            - constant
        )


class EngineSnapshot:
    """Queryable frozen view of an engine, published at one generation.

    Snapshots are cheap to hold and safe to share across threads: all
    state is immutable, and estimate evaluation only *reads* the frozen
    counters.  Each relation's sketch view and :meth:`moments` (second
    moments per row and combined, raw and WOR-corrected, the unbiasing
    constants and the self-join estimate) are computed on first use and
    kept, so a snapshot served many times computes each of them once.
    Two threads racing on a first use both compute the same value from
    the same frozen counters, so whichever store wins, every reader sees
    that value.  Point and join estimates depend on the key or the
    partner and are computed per call.

    For backward compatibility with the pre-serving API, a snapshot also
    exposes the :class:`~repro.engine.statistics.StatisticsSnapshot`
    surface (``fractions`` / ``self_join_sizes`` / ``join_sizes``), so
    code written against ``engine.snapshot()``'s old return type keeps
    working unchanged.
    """

    __slots__ = (
        "generation",
        "template_header",
        "_relations",
        "_template",
        "_sketches",
        "_moments",
        "_statistics",
    )

    def __init__(
        self,
        *,
        generation: int,
        template_header: dict,
        relations: dict,
        template_sketch: FagmsSketch | None = None,
    ) -> None:
        self.generation = int(generation)
        self.template_header = template_header
        self._relations: dict[str, RelationSnapshot] = dict(relations)
        # Hash families are immutable, so sharing the engine's template
        # lets sketch_view() clone instead of regenerating the families —
        # the hot cost of serving a freshly rotated snapshot.
        self._template = template_sketch
        self._sketches: dict[str, FagmsSketch] = {}
        self._moments: dict[str, RelationMoments] = {}
        self._statistics: StatisticsSnapshot | None = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Names of the relations frozen in this snapshot."""
        return tuple(self._relations)

    def relation(self, name: str) -> RelationSnapshot:
        """The frozen scan state of one relation."""
        try:
            return self._relations[name]
        except KeyError:
            raise ConfigurationError(
                f"snapshot has no relation {name!r}; frozen: {self.names}"
            ) from None

    def fraction_scanned(self, name: str) -> float:
        """Frozen scanned fraction of a relation."""
        return self.relation(name).fraction

    def scanned_tuples(self, name: str) -> int:
        """Frozen scanned-tuple count of a relation."""
        return self.relation(name).scanned

    def sketch_view(self, name: str) -> FagmsSketch:
        """A sketch bound (read-only) to the relation's frozen counters.

        The returned sketch shares the engine's hash families, so
        estimates and cross-snapshot inner products are meaningful; its
        counter storage is the frozen array, so any attempted update
        raises instead of corrupting the snapshot.
        """
        sketch = self._sketches.get(name)
        if sketch is None:
            relation = self.relation(name)
            if self._template is not None:
                sketch = self._template.copy_empty()
            else:
                sketch = build_sketch(self.template_header)
            sketch._adopt_state(relation.counters)
            self._sketches[name] = sketch
        return sketch

    @property
    def averaged_estimators(self) -> int:
        """Basic estimators averaged per estimate (buckets for F-AGMS)."""
        buckets = self.template_header.get("buckets")
        if buckets is None:
            return 1
        return int(buckets)

    # ------------------------------------------------------------------
    # Estimates (bit-identical to repro.core's estimators on plain
    # sketches of the same prefixes)
    # ------------------------------------------------------------------

    def moments(self, name: str) -> RelationMoments:
        """The relation's query-path statistics, each computed on first use."""
        moments = self._moments.get(name)
        if moments is None:
            moments = RelationMoments(self.relation(name), self.sketch_view(name))
            self._moments[name] = moments
        return moments

    def self_join_size(self, name: str) -> float:
        """Unbiased ``F₂`` estimate for the frozen prefix of *name*."""
        return self.moments(name).self_join_size

    def join_size(self, name_a: str, name_b: str) -> float:
        """Unbiased ``|A ⋈ B|`` estimate between two frozen prefixes."""
        if name_a == name_b:
            raise ConfigurationError(
                "join_size needs two distinct relations; use self_join_size "
                "for a relation with itself"
            )
        return join_size_between(self, name_a, self, name_b)

    def point_frequency(self, name: str, key: int) -> float:
        """Estimated full-relation frequency of *key* (prefix-corrected).

        The sketch's raw Count-Sketch estimate targets the *scanned
        prefix*'s frequency; scaling by ``1/α`` (the inverse scanned
        fraction) makes it unbiased for the full relation.
        """
        relation = self.relation(name)
        if relation.scanned < 1:
            raise InsufficientDataError(
                f"need at least 1 scanned tuple of {name!r} for a point query"
            )
        raw = self.sketch_view(name).point_estimate(int(key))
        return raw * (relation.total_tuples / relation.scanned)

    # ------------------------------------------------------------------
    # Confidence intervals (runtime plug-in bounds)
    # ------------------------------------------------------------------

    def self_join_variance_bound(self, name: str) -> float:
        """Conservative variance bound for :meth:`self_join_size`.

        The runtime plug-in bound
        :func:`repro.variance.runtime.prefix_self_join_variance`,
        computable from the snapshot alone.
        """
        relation = self.relation(name)
        return prefix_self_join_variance(
            self.self_join_size(name),
            scanned=relation.scanned,
            total=relation.total_tuples,
            averaged=self.averaged_estimators,
        )

    def point_frequency_variance_bound(
        self, name: str, key: int, *, estimate: float | None = None
    ) -> float:
        """Conservative variance bound for :meth:`point_frequency`.

        Pass *estimate* when :meth:`point_frequency` of the same key is
        already known, to probe the sketch once per answer.
        """
        relation = self.relation(name)
        if estimate is None:
            estimate = self.point_frequency(name, key)
        return prefix_point_frequency_variance(
            estimate,
            self.moments(name).second_moment,
            scanned=relation.scanned,
            total=relation.total_tuples,
            buckets=self.averaged_estimators,
        )

    def self_join_interval(
        self,
        name: str,
        confidence: float = 0.95,
        *,
        method: str = "chebyshev",
    ) -> ConfidenceInterval:
        """Confidence interval for :meth:`self_join_size`.

        Uses :meth:`self_join_variance_bound` and the paper's
        Chebyshev/CLT interval constructions.
        """
        return interval(
            self.self_join_size(name),
            self.self_join_variance_bound(name),
            confidence,
            method,
        )

    def join_interval(
        self,
        name_a: str,
        name_b: str,
        confidence: float = 0.95,
        *,
        method: str = "chebyshev",
    ) -> ConfidenceInterval:
        """Confidence interval for :meth:`join_size`."""
        return join_interval_between(
            self, name_a, self, name_b, confidence, method=method
        )

    def point_frequency_interval(
        self,
        name: str,
        key: int,
        confidence: float = 0.95,
        *,
        method: str = "chebyshev",
    ) -> ConfidenceInterval:
        """Confidence interval for :meth:`point_frequency`."""
        estimate = self.point_frequency(name, key)
        return interval(
            estimate,
            self.point_frequency_variance_bound(name, key, estimate=estimate),
            confidence,
            method,
        )

    # ------------------------------------------------------------------
    # StatisticsSnapshot compatibility surface
    # ------------------------------------------------------------------

    def statistics(self) -> StatisticsSnapshot:
        """The classic all-at-once statistics view of this snapshot.

        Mirrors the original ``engine.snapshot()`` semantics: relations
        with fewer than 2 scanned tuples are omitted from the self-join
        map; pairs with an unscanned member are omitted from the join map.
        """
        if self._statistics is not None:
            return self._statistics
        fractions = {
            name: relation.fraction
            for name, relation in self._relations.items()
        }
        self_joins = {
            name: self.self_join_size(name)
            for name, relation in self._relations.items()
            if relation.scanned >= 2
        }
        joins = {}
        names = list(self._relations)
        for i, name_a in enumerate(names):
            for name_b in names[i + 1 :]:
                if (
                    self._relations[name_a].scanned
                    and self._relations[name_b].scanned
                ):
                    joins[(name_a, name_b)] = self.join_size(name_a, name_b)
        stats = StatisticsSnapshot(
            fractions=fractions,
            self_join_sizes=self_joins,
            join_sizes=joins,
        )
        self._statistics = stats
        return stats

    @property
    def fractions(self) -> dict:
        """Scanned fraction per relation (compatibility accessor)."""
        return self.statistics().fractions

    @property
    def self_join_sizes(self) -> dict:
        """Self-join estimates per relation (compatibility accessor)."""
        return self.statistics().self_join_sizes

    @property
    def join_sizes(self) -> dict:
        """Join estimates per relation pair (compatibility accessor)."""
        return self.statistics().join_sizes

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def checkpoint_payload(self) -> tuple:
        """The engine's durable checkpoint payload, from frozen state.

        Byte-identical to what the live engine would checkpoint at the
        same scan position (pinned by
        ``tests/serving/test_checkpoint_digest.py``).
        """
        state = {
            "template": self.template_header,
            "relations": [
                {
                    "name": relation.name,
                    "total_tuples": relation.total_tuples,
                    "scanned": relation.scanned,
                }
                for relation in self._relations.values()
            ],
        }
        arrays = {
            f"counters.{name}": relation.counters
            for name, relation in self._relations.items()
        }
        return state, arrays

    def __repr__(self) -> str:
        scanned = ", ".join(
            f"{name}={relation.fraction:.0%}"
            for name, relation in self._relations.items()
        )
        return f"EngineSnapshot(generation={self.generation}, {scanned})"


# ----------------------------------------------------------------------
# Cross-snapshot estimates (the serving registry's join path)
# ----------------------------------------------------------------------


def _check_cross(
    snap_a: EngineSnapshot, name_a: str, snap_b: EngineSnapshot, name_b: str
) -> tuple[RelationSnapshot, RelationSnapshot]:
    rel_a = snap_a.relation(name_a)
    rel_b = snap_b.relation(name_b)
    if snap_a is snap_b and name_a == name_b:
        raise ConfigurationError(
            "join between a relation and itself; use self_join_size"
        )
    if rel_a.scanned < 1 or rel_b.scanned < 1:
        raise InsufficientDataError(
            "both relations need scanned tuples before a join estimate"
        )
    return rel_a, rel_b


def join_size_between(
    snap_a: EngineSnapshot,
    name_a: str,
    snap_b: EngineSnapshot,
    name_b: str,
) -> float:
    """Unbiased join-size estimate across two (possibly distinct) snapshots.

    The snapshots may come from different engines — e.g. two named streams
    of a :class:`~repro.serving.registry.SketchRegistry` — as long as the
    engines share their seed (hence hash families); incompatible sketches
    raise :class:`~repro.errors.IncompatibleSketchError`.
    """
    _check_cross(snap_a, name_a, snap_b, name_b)
    raw = snap_a.sketch_view(name_a).inner_product(snap_b.sketch_view(name_b))
    return join_scale_between(snap_a, name_a, snap_b, name_b) * raw


def join_scale_between(
    snap_a: EngineSnapshot,
    name_a: str,
    snap_b: EngineSnapshot,
    name_b: str,
) -> float:
    """The size-of-join scale ``1/(αβ)`` of two frozen prefixes.

    Equal to ``float(join_scale(info_a, info_b))`` of
    :mod:`repro.sampling.unbiasing`, from each snapshot's kept factor.
    """
    return float(
        snap_a.moments(name_a).join_factor * snap_b.moments(name_b).join_factor
    )


def join_variance_between(
    snap_a: EngineSnapshot,
    name_a: str,
    snap_b: EngineSnapshot,
    name_b: str,
    *,
    estimate: float | None = None,
) -> float:
    """Conservative variance bound for :func:`join_size_between`.

    Pass *estimate* when :func:`join_size_between` of the same pair is
    already known, to compute the inner product once per answer.
    """
    rel_a, rel_b = _check_cross(snap_a, name_a, snap_b, name_b)
    if estimate is None:
        estimate = join_size_between(snap_a, name_a, snap_b, name_b)
    return prefix_join_variance(
        estimate,
        _prefix_f2(snap_a, name_a),
        _prefix_f2(snap_b, name_b),
        scanned_f=rel_a.scanned,
        total_f=rel_a.total_tuples,
        scanned_g=rel_b.scanned,
        total_g=rel_b.total_tuples,
        averaged=min(snap_a.averaged_estimators, snap_b.averaged_estimators),
    )


def join_interval_between(
    snap_a: EngineSnapshot,
    name_a: str,
    snap_b: EngineSnapshot,
    name_b: str,
    confidence: float = 0.95,
    *,
    method: str = "chebyshev",
) -> ConfidenceInterval:
    """Confidence interval for :func:`join_size_between`."""
    estimate = join_size_between(snap_a, name_a, snap_b, name_b)
    return interval(
        estimate,
        join_variance_between(snap_a, name_a, snap_b, name_b, estimate=estimate),
        confidence,
        method,
    )


def _prefix_f2(snap: EngineSnapshot, name: str) -> float:
    """Full-relation ``F₂`` plug-in for the variance bounds.

    Falls back to the raw prefix second moment when the prefix is too
    short to unbias (one scanned tuple) — still a valid plug-in, just a
    smaller one; the bound stays an estimate-derived surrogate either way.
    """
    relation = snap.relation(name)
    if relation.scanned >= 2:
        return snap.self_join_size(name)
    return snap.moments(name).second_moment
