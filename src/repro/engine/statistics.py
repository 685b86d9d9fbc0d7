"""A sketch-backed statistics engine for online aggregation (Section VI-C).

The paper's vision: while an online-aggregation engine scans its relations
in random order, it sketches every tuple it passes ("essentially for free"
on spare cores) and the sketches provide — at any moment of the scan —
unbiased estimates of the statistics the engine's decisions need:

* the second frequency moment of any scanned column, and
* the size of join (correlation) between any *pair* of scanned columns.

:class:`OnlineStatisticsEngine` is that component.  All registered
relations share one set of hash/ξ families, so every pair is joinable; the
WOR corrections use each relation's scanned-fraction, so relations may be
scanned at different speeds and statistics stay unbiased throughout.

Usage::

    engine = OnlineStatisticsEngine(buckets=4096, seed=7)
    engine.register("lineitem", total_tuples=6_000_000)
    engine.register("orders",   total_tuples=1_500_000)
    for chunk in lineitem_scan:
        engine.consume("lineitem", chunk)
        ...
    snapshot = engine.snapshot()          # the one way out, any time
    snapshot.self_join_size("lineitem")   # F2 estimate
    snapshot.join_size("lineitem", "orders")
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import CheckpointError, ConfigurationError, SerializationError
from ..observability.observer import Observer, as_observer
from ..rng import SeedLike, as_seed_sequence
from ..sketches.fagms import FagmsSketch
from ..sketches.serialization import build_sketch, restore_sketch, sketch_header
from .snapshot import EngineSnapshot, RelationSnapshot, StatisticsSnapshot

__all__ = ["OnlineStatisticsEngine", "ScanState", "StatisticsSnapshot"]


@dataclass
class ScanState:
    """Progress of one registered relation's scan.

    ``mutations`` counts the chunks consumed into this relation — the
    copy-on-write key for snapshot publication: a published frozen
    counter array is reused verbatim while the mutation count it was
    taken at still matches.
    """

    name: str
    total_tuples: int
    sketch: FagmsSketch
    scanned: int = 0
    mutations: int = 0

    @property
    def fraction(self) -> float:
        """Scanned fraction of the relation."""
        return self.scanned / self.total_tuples if self.total_tuples else 0.0


class OnlineStatisticsEngine:
    """Maintains sketch statistics over concurrently scanned relations.

    Parameters
    ----------
    buckets, rows:
        F-AGMS shape shared by every relation's sketch.
    seed:
        One seed for all sketches — required so cross-relation inner
        products are meaningful.
    observer:
        Optional :class:`~repro.observability.Observer` receiving the
        engine's row/update counters and estimate gauges; defaults to
        the near-free null observer.
    """

    def __init__(
        self,
        buckets: int = 4096,
        rows: int = 1,
        seed: SeedLike = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self._template = FagmsSketch(
            buckets, rows, as_seed_sequence(seed)
        )
        self._relations: dict[str, ScanState] = {}
        self._observer = as_observer(observer)
        # Snapshot-publication state: the engine's total mutation count
        # (the generation stamped onto published snapshots) and the
        # copy-on-write cache of frozen counter arrays, keyed per
        # relation by the mutation count each was taken at.
        self._generation = 0
        self._published: dict[str, tuple[int, np.ndarray]] = {}

    @property
    def observer(self) -> Observer:
        """The attached observer (the shared null observer when disabled)."""
        return self._observer

    # ------------------------------------------------------------------
    # Registration and scanning
    # ------------------------------------------------------------------

    def register(self, name: str, total_tuples: int) -> None:
        """Register a relation before scanning it.

        ``total_tuples`` must be known (online aggregation scans stored
        relations whose cardinality the catalog provides).
        """
        if not name:
            raise ConfigurationError("relation name must be non-empty")
        if name in self._relations:
            raise ConfigurationError(f"relation {name!r} already registered")
        if total_tuples < 2:
            raise ConfigurationError(
                f"relation {name!r} needs at least 2 tuples, got {total_tuples}"
            )
        self._relations[name] = ScanState(
            name=name,
            total_tuples=total_tuples,
            sketch=self._template.copy_empty(),
        )

    @property
    def relations(self) -> tuple[str, ...]:
        """Names of registered relations."""
        return tuple(self._relations)

    def _state(self, name: str) -> ScanState:
        try:
            return self._relations[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown relation {name!r}; registered: {self.relations}"
            ) from None

    def consume(self, name: str, keys) -> None:
        """Feed the next chunk of *name*'s random-order scan.

        Updates run through the row-batched :mod:`repro.kernels` path,
        so chunked scanning costs one fused accumulation per chunk;
        empty chunks are accepted and skipped outright.
        """
        state = self._state(name)
        keys = np.asarray(keys)
        if state.scanned + keys.size > state.total_tuples:
            raise ConfigurationError(
                f"scan of {name!r} overflows its declared cardinality "
                f"({state.total_tuples})"
            )
        if keys.size:
            state.sketch.update(keys)
            state.scanned += int(keys.size)
            state.mutations += 1
            self._generation += 1
            obs = self._observer
            obs.counter("engine.rows.consumed", relation=name).inc(int(keys.size))
            obs.counter("engine.chunks.consumed", relation=name).inc()
            obs.gauge("engine.fraction_scanned", relation=name).set(state.fraction)

    def fraction_scanned(self, name: str) -> float:
        """Scanned fraction of a relation."""
        return self._state(name).fraction

    def scanned_tuples(self, name: str) -> int:
        """Number of tuples consumed from a relation so far."""
        return self._state(name).scanned

    @property
    def generation(self) -> int:
        """Total chunks consumed across all relations (monotone)."""
        return self._generation

    def _publish(self) -> EngineSnapshot:
        """Build an immutable snapshot of the current scan state.

        Copy-on-write: a relation whose mutation count is unchanged
        since the last publication reuses the previously frozen counter
        array by reference; only mutated relations pay an array copy.
        No observer side effects — :meth:`snapshot` adds those.
        """
        relations = {}
        for name, state in self._relations.items():
            cached = self._published.get(name)
            if cached is not None and cached[0] == state.mutations:
                counters = cached[1]
            else:
                counters = state.sketch.counters_snapshot()
                self._published[name] = (state.mutations, counters)
            relations[name] = RelationSnapshot(
                name=name,
                total_tuples=state.total_tuples,
                scanned=state.scanned,
                counters=counters,
            )
        return EngineSnapshot(
            generation=self._generation,
            template_header=sketch_header(self._template),
            relations=relations,
            template_sketch=self._template,
        )

    def snapshot(self) -> EngineSnapshot:
        """Publish an immutable, generation-tagged view of the scan.

        The returned :class:`~repro.engine.snapshot.EngineSnapshot`
        answers every estimate lazily from frozen counters (and exposes
        the classic ``fractions`` / ``self_join_sizes`` / ``join_sizes``
        maps with the original omission rules), so it is safe to hand to
        concurrent readers while :meth:`consume` keeps mutating the scan.
        """
        snap = self._publish()
        self._observer.counter("engine.snapshots").inc()
        if self._observer.enabled:
            # Preserve the eager gauge semantics of the pre-snapshot API:
            # a monitored engine publishes its current self-join estimates
            # at every snapshot.  (The unmonitored path stays lazy.)
            for name, estimate in snap.self_join_sizes.items():
                self._observer.gauge(
                    "engine.self_join_estimate", relation=name
                ).set(estimate)
        return snap

    # ------------------------------------------------------------------
    # Persistence (repro.resilience checkpoint payload)
    # ------------------------------------------------------------------

    def checkpoint_state(self) -> tuple:
        """Split the engine into a JSON state blob and counter arrays.

        Returns ``(state, arrays)`` in the shape expected by
        :meth:`repro.resilience.checkpoint.CheckpointManager.save`: the
        shared template header plus per-relation scan progress in *state*,
        and one CRC-protected counter array per relation in *arrays*.
        The payload is derived from a published snapshot (same frozen
        arrays the serving layer reads), so checkpointing and serving
        share one publication path; bytes are pinned against the
        pre-snapshot implementation by
        ``tests/serving/test_checkpoint_digest.py``.
        """
        return self._publish().checkpoint_payload()

    @classmethod
    def from_checkpoint_state(cls, state: dict, arrays: dict) -> "OnlineStatisticsEngine":
        """Rebuild an engine from a :meth:`checkpoint_state` snapshot.

        Every relation's sketch is reconstructed from the shared template
        header (so cross-relation inner products remain meaningful) and
        its checkpointed counters, checked by
        :func:`~repro.sketches.serialization.restore_sketch`.  Raises
        :class:`~repro.errors.CheckpointError` on a malformed template, on
        counters of the wrong shape or dtype or with a non-finite value,
        and on a malformed relation record: a missing field, a
        non-integer count or a repeated name.
        """
        header = state.get("template")
        relations = state.get("relations")
        if not isinstance(relations, list):
            raise CheckpointError("engine checkpoint has no relation list")
        engine = object.__new__(cls)
        engine._observer = as_observer(None)
        engine._generation = 0
        engine._published = {}
        try:
            engine._template = build_sketch(header)
        except SerializationError as error:
            raise CheckpointError(
                f"engine checkpoint template is malformed: {error}"
            ) from error
        if not isinstance(engine._template, FagmsSketch):
            raise CheckpointError(
                f"engine checkpoint template is a "
                f"{type(engine._template).__name__}, expected an F-AGMS sketch"
            )
        engine._relations = {}
        for raw in relations:
            try:
                name = raw["name"]
                total_tuples = operator.index(raw["total_tuples"])
                scanned = operator.index(raw["scanned"])
            except (KeyError, TypeError) as error:
                raise CheckpointError(
                    f"malformed engine checkpoint relation {raw!r}: {error!r}"
                ) from error
            if not isinstance(name, str) or name in engine._relations:
                raise CheckpointError(
                    f"engine checkpoint relation name {name!r} is invalid or "
                    "repeated"
                )
            counters = arrays.get(f"counters.{name}")
            if counters is None:
                raise CheckpointError(
                    f"engine checkpoint is missing counters for relation {name!r}"
                )
            try:
                sketch = restore_sketch(header, counters)
            except SerializationError as error:
                raise CheckpointError(
                    f"engine checkpoint counters for {name!r}: {error}"
                ) from error
            scan = ScanState(
                name=name,
                total_tuples=total_tuples,
                sketch=sketch,
                scanned=scanned,
            )
            if not 0 <= scan.scanned <= scan.total_tuples:
                raise CheckpointError(
                    f"engine checkpoint scan progress for {name!r} is invalid: "
                    f"{scan.scanned}/{scan.total_tuples}"
                )
            engine._relations[name] = scan
        return engine

    def __repr__(self) -> str:
        scans = ", ".join(
            f"{name}:{state.fraction:.0%}"
            for name, state in self._relations.items()
        )
        return f"OnlineStatisticsEngine({scans or 'no relations'})"
