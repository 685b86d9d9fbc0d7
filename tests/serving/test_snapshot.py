"""EngineSnapshot: immutability, copy-on-write publication, estimates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import estimate_join_size, estimate_self_join_size
from repro.engine import (
    EngineSnapshot,
    OnlineStatisticsEngine,
    StatisticsSnapshot,
    join_interval_between,
    join_size_between,
)
from repro.errors import (
    ConfigurationError,
    IncompatibleSketchError,
    InsufficientDataError,
)
from repro.sampling import SampleInfo
from repro.sketches import FagmsSketch


def make_engine(*, buckets=256, rows=3, seed=42):
    engine = OnlineStatisticsEngine(buckets=buckets, rows=rows, seed=seed)
    engine.register("f", 1000)
    engine.register("g", 800)
    return engine


def fill(engine, *, nf=600, ng=400, seed=5):
    rng = np.random.default_rng(seed)
    engine.consume("f", rng.integers(0, 100, size=nf))
    engine.consume("g", rng.integers(0, 100, size=ng))
    return engine


class TestImmutability:
    def test_counters_are_read_only(self):
        snap = fill(make_engine()).snapshot()
        with pytest.raises(ValueError):
            snap.relation("f").counters[0, 0] = 99.0

    def test_sketch_view_rejects_updates(self):
        snap = fill(make_engine()).snapshot()
        view = snap.sketch_view("f")
        with pytest.raises(ValueError):
            view.update(np.array([1, 2, 3]))

    def test_snapshot_estimates_survive_later_ingestion(self):
        engine = fill(make_engine())
        snap = engine.snapshot()
        before = snap.self_join_size("f")
        point_before = snap.point_frequency("f", 7)
        engine.consume("f", np.full(200, 7))
        assert snap.self_join_size("f") == before
        assert snap.point_frequency("f", 7) == point_before
        # A fresh snapshot, by contrast, moved on.
        assert engine.snapshot().self_join_size("f") != before


class TestCopyOnWrite:
    def test_idle_relations_share_published_arrays(self):
        engine = fill(make_engine())
        first = engine.snapshot()
        second = engine.snapshot()
        assert second.relation("f").counters is first.relation("f").counters
        assert second.relation("g").counters is first.relation("g").counters

    def test_only_mutated_relation_is_recopied(self):
        engine = fill(make_engine())
        first = engine.snapshot()
        engine.consume("f", np.array([1, 2, 3]))
        second = engine.snapshot()
        assert second.relation("f").counters is not first.relation("f").counters
        assert second.relation("g").counters is first.relation("g").counters


class TestGenerations:
    def test_generation_counts_total_mutations(self):
        engine = make_engine()
        assert engine.snapshot().generation == 0
        fill(engine)
        assert engine.snapshot().generation == 2
        engine.consume("g", np.array([4]))
        assert engine.snapshot().generation == 3

    def test_generations_are_monotone_across_snapshots(self):
        engine = make_engine()
        generations = []
        rng = np.random.default_rng(0)
        for _ in range(5):
            engine.consume("f", rng.integers(0, 50, size=20))
            generations.append(engine.snapshot().generation)
        assert generations == sorted(generations)
        assert len(set(generations)) == len(generations)


def _plain_prefix(keys, total):
    """A plain sketch of a scanned prefix and the prefix's WOR draw."""
    sketch = FagmsSketch(256, rows=3, seed=42)
    sketch.update(keys)
    info = SampleInfo(
        scheme="without_replacement", population_size=total, sample_size=keys.size
    )
    return sketch, info


class TestEstimates:
    def test_estimates_match_core_estimators_bit_for_bit(self):
        """The reference check of the engine's one answer path.

        Snapshot estimates equal :mod:`repro.core`'s estimators on plain
        sketches of the same prefixes, exactly, at short and long prefixes.
        """
        rng = np.random.default_rng(5)
        keys_f = rng.integers(0, 100, size=1000)
        keys_g = rng.integers(0, 100, size=800)
        engine = make_engine()
        done_f = done_g = 0
        for cut_f, cut_g in ((2, 1), (150, 320), (600, 400), (1000, 800)):
            engine.consume("f", keys_f[done_f:cut_f])
            engine.consume("g", keys_g[done_g:cut_g])
            done_f, done_g = cut_f, cut_g
            snap = engine.snapshot()
            sketch_f, info_f = _plain_prefix(keys_f[:cut_f], 1000)
            sketch_g, info_g = _plain_prefix(keys_g[:cut_g], 800)
            assert snap.self_join_size("f") == (
                estimate_self_join_size(sketch_f, info_f).value
            )
            assert snap.join_size("f", "g") == (
                estimate_join_size(sketch_f, info_f, sketch_g, info_g).value
            )
            if cut_g >= 2:
                assert snap.self_join_size("g") == (
                    estimate_self_join_size(sketch_g, info_g).value
                )

    def test_point_frequency_scales_to_full_relation(self):
        engine = make_engine()
        engine.consume("f", np.full(500, 3))  # half the relation, one key
        snap = engine.snapshot()
        # alpha = 0.5: raw prefix estimate is ~500, full-relation ~1000.
        assert snap.point_frequency("f", 3) == pytest.approx(1000.0, rel=0.05)

    def test_join_size_requires_distinct_relations(self):
        snap = fill(make_engine()).snapshot()
        with pytest.raises(ConfigurationError):
            snap.join_size("f", "f")

    def test_unknown_relation_raises(self):
        snap = fill(make_engine()).snapshot()
        with pytest.raises(ConfigurationError):
            snap.self_join_size("nope")

    def test_short_prefix_raises_insufficient_data(self):
        engine = make_engine()
        engine.consume("f", np.array([1]))
        snap = engine.snapshot()
        with pytest.raises(InsufficientDataError):
            snap.self_join_size("f")
        with pytest.raises(InsufficientDataError):
            snap.point_frequency("g", 1)  # g has zero scanned tuples


class TestIntervals:
    def test_interval_brackets_estimate(self):
        snap = fill(make_engine()).snapshot()
        estimate = snap.self_join_size("f")
        interval = snap.self_join_interval("f")
        assert interval.low <= estimate <= interval.high
        assert interval.half_width > 0

    def test_chebyshev_wider_than_clt(self):
        snap = fill(make_engine()).snapshot()
        cheb = snap.self_join_interval("f", method="chebyshev")
        clt = snap.self_join_interval("f", method="clt")
        assert cheb.half_width > clt.half_width

    def test_unknown_method_raises(self):
        snap = fill(make_engine()).snapshot()
        with pytest.raises(ConfigurationError):
            snap.self_join_interval("f", method="bootstrap")

    def test_point_and_join_intervals(self):
        snap = fill(make_engine()).snapshot()
        pt = snap.point_frequency_interval("f", 7)
        assert pt.low <= snap.point_frequency("f", 7) <= pt.high
        join = snap.join_interval("f", "g", method="clt")
        assert join.low <= snap.join_size("f", "g") <= join.high


class TestCrossSnapshotJoins:
    def test_join_between_engines_sharing_a_seed(self):
        a = OnlineStatisticsEngine(buckets=256, rows=3, seed=9)
        b = OnlineStatisticsEngine(buckets=256, rows=3, seed=9)
        a.register("f", 1000)
        b.register("g", 800)
        rng = np.random.default_rng(5)
        a.consume("f", rng.integers(0, 100, size=600))
        b.consume("g", rng.integers(0, 100, size=400))
        cross = join_size_between(a.snapshot(), "f", b.snapshot(), "g")
        # Same sketch families, same data: identical to the one-engine join.
        merged = fill(make_engine(seed=9))
        assert cross == merged.snapshot().join_size("f", "g")
        interval = join_interval_between(a.snapshot(), "f", b.snapshot(), "g")
        assert interval.low <= cross <= interval.high

    def test_mismatched_seeds_raise(self):
        a = OnlineStatisticsEngine(buckets=256, rows=3, seed=1)
        b = OnlineStatisticsEngine(buckets=256, rows=3, seed=2)
        a.register("f", 10)
        b.register("g", 10)
        a.consume("f", np.arange(5))
        b.consume("g", np.arange(5))
        with pytest.raises(IncompatibleSketchError):
            join_size_between(a.snapshot(), "f", b.snapshot(), "g")


class TestCompatibilitySurface:
    def test_statistics_view_matches_accessors(self):
        snap = fill(make_engine()).snapshot()
        stats = snap.statistics()
        assert isinstance(stats, StatisticsSnapshot)
        assert snap.fractions == stats.fractions
        assert snap.self_join_sizes == stats.self_join_sizes
        assert snap.join_sizes == stats.join_sizes
        assert stats.fractions == {"f": 0.6, "g": 0.5}
        assert set(stats.self_join_sizes) == {"f", "g"}
        assert set(stats.join_sizes) == {("f", "g")}

    def test_unscanned_relations_are_omitted_from_estimates(self):
        engine = make_engine()
        engine.consume("f", np.random.default_rng(1).integers(0, 50, 100))
        stats = engine.snapshot().statistics()
        assert set(stats.fractions) == {"f", "g"}
        assert set(stats.self_join_sizes) == {"f"}
        assert stats.join_sizes == {}

    def test_statistics_are_cached(self):
        snap = fill(make_engine()).snapshot()
        assert snap.statistics() is snap.statistics()


class TestCheckpointPayload:
    def test_payload_matches_engine_checkpoint_state(self):
        engine = fill(make_engine())
        state, arrays = engine.checkpoint_state()
        snap_state, snap_arrays = engine.snapshot().checkpoint_payload()
        assert snap_state == state
        assert set(snap_arrays) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(snap_arrays[name], arrays[name])

    def test_roundtrip_through_from_checkpoint_state(self):
        engine = fill(make_engine())
        state, arrays = engine.snapshot().checkpoint_payload()
        restored = OnlineStatisticsEngine.from_checkpoint_state(state, arrays)
        before = engine.snapshot()
        after = restored.snapshot()
        assert after.self_join_size("f") == before.self_join_size("f")
        assert after.join_size("f", "g") == before.join_size("f", "g")


def test_repr_mentions_generation_and_progress():
    snap = fill(make_engine()).snapshot()
    assert isinstance(snap, EngineSnapshot)
    text = repr(snap)
    assert "generation=2" in text
    assert "f=60%" in text
