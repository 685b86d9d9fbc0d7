"""SketchRegistry: rotation policies, served queries, provenance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, InsufficientDataError
from repro.observability import Observer
from repro.serving import QueryResult, RotationPolicy, SketchRegistry


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_registry(**kwargs):
    kwargs.setdefault("buckets", 256)
    kwargs.setdefault("rows", 3)
    kwargs.setdefault("seed", 17)
    registry = SketchRegistry(**kwargs)
    registry.register_stream("f", 1000)
    registry.register_stream("g", 800)
    return registry


def fill(registry, *, seed=5):
    rng = np.random.default_rng(seed)
    registry.ingest("f", rng.integers(0, 100, size=600))
    registry.ingest("g", rng.integers(0, 100, size=400))
    return registry


class TestRegistration:
    def test_streams_are_queryable_immediately(self):
        registry = make_registry()
        snap = registry.snapshot("f")
        assert snap.generation == 0
        assert snap.scanned_tuples("f") == 0
        with pytest.raises(InsufficientDataError):
            registry.self_join_query("f")

    def test_duplicate_registration_raises(self):
        registry = make_registry()
        with pytest.raises(ConfigurationError):
            registry.register_stream("f", 10)

    def test_unknown_stream_raises(self):
        with pytest.raises(ConfigurationError):
            make_registry().ingest("nope", np.arange(3))

    def test_bad_policy_raises(self):
        with pytest.raises(ConfigurationError):
            RotationPolicy(every_chunks=0)
        with pytest.raises(ConfigurationError):
            RotationPolicy(min_interval=-1.0)


class TestRotation:
    def test_default_policy_rotates_every_chunk(self):
        registry = make_registry()
        registry.ingest("f", np.arange(10))
        assert registry.snapshot("f").scanned_tuples("f") == 10
        registry.ingest("f", np.arange(5))
        assert registry.snapshot("f").scanned_tuples("f") == 15

    def test_every_chunks_defers_publication(self):
        registry = make_registry(policy=RotationPolicy(every_chunks=3))
        for _ in range(3):
            # Nothing published until the third chunk lands.
            assert registry.snapshot("f").scanned_tuples("f") == 0
            registry.ingest("f", np.arange(10))
        assert registry.snapshot("f").scanned_tuples("f") == 30

    def test_min_interval_gates_rotation(self):
        clock = FakeClock()
        registry = make_registry(
            policy=RotationPolicy(min_interval=10.0), clock=clock
        )
        registry.ingest("f", np.arange(10))  # interval closed: no rotation
        assert registry.snapshot("f").scanned_tuples("f") == 0
        clock.advance(10.0)
        registry.ingest("f", np.arange(10))  # interval open: publishes all
        assert registry.snapshot("f").scanned_tuples("f") == 20

    def test_forced_rotate_bypasses_policy(self):
        registry = make_registry(policy=RotationPolicy(every_chunks=100))
        registry.ingest("f", np.arange(10))
        assert registry.snapshot("f").scanned_tuples("f") == 0
        snap = registry.rotate("f")
        assert snap.scanned_tuples("f") == 10
        assert registry.snapshot("f") is snap

    def test_per_stream_policy_override(self):
        registry = SketchRegistry(buckets=64, seed=1)
        registry.register_stream("eager", 100)
        registry.register_stream(
            "lazy", 100, policy=RotationPolicy(every_chunks=5)
        )
        registry.ingest("eager", np.arange(4))
        registry.ingest("lazy", np.arange(4))
        assert registry.snapshot("eager").scanned_tuples("eager") == 4
        assert registry.snapshot("lazy").scanned_tuples("lazy") == 0


class TestQueries:
    def test_query_results_match_snapshot_estimates(self):
        registry = fill(make_registry())
        snap_f = registry.snapshot("f")
        result = registry.self_join_query("f")
        assert isinstance(result, QueryResult)
        assert result.op == "self_join"
        assert result.estimate == snap_f.self_join_size("f")
        assert result.variance_bound == snap_f.self_join_variance_bound("f")
        assert result.interval.low <= result.estimate <= result.interval.high

    def test_point_query(self):
        registry = fill(make_registry())
        result = registry.point_query("f", 7, method="clt")
        assert result.op == "point"
        assert result.estimate == registry.snapshot("f").point_frequency("f", 7)
        assert result.interval.method == "clt"

    def test_join_query_spans_two_streams(self):
        registry = fill(make_registry())
        result = registry.join_query("f", "g")
        assert result.op == "join"
        assert [meta.name for meta in result.streams] == ["f", "g"]
        assert result.estimate != 0.0

    def test_expression_query(self):
        registry = fill(make_registry())
        union = registry.expression_query("union", ["f", "g"])
        intersection = registry.expression_query("intersection", ["f", "g"])
        assert union.op == "union"
        assert union.estimate > intersection.estimate > 0
        assert union.variance_bound > 0

    def test_unknown_interval_method_raises(self):
        registry = fill(make_registry())
        with pytest.raises(ConfigurationError):
            registry.self_join_query("f", method="bootstrap")


class TestProvenance:
    def test_metadata_reports_frozen_scan_position(self):
        registry = fill(make_registry())
        meta = registry.self_join_query("f").streams[0]
        assert meta.name == "f"
        assert meta.scanned == 600
        assert meta.total == 1000
        assert meta.fraction == 0.6
        assert meta.generation == registry.snapshot("f").generation

    def test_staleness_tracks_time_since_rotation(self):
        clock = FakeClock()
        registry = make_registry(clock=clock)
        fill(registry)
        clock.advance(7.5)
        meta = registry.self_join_query("f").streams[0]
        assert meta.staleness_seconds == pytest.approx(7.5)

    def test_queries_see_published_not_live_state(self):
        registry = make_registry(policy=RotationPolicy(every_chunks=100))
        rng = np.random.default_rng(3)
        registry.ingest("f", rng.integers(0, 50, size=300))
        registry.rotate("f")
        published = registry.self_join_query("f")
        registry.ingest("f", rng.integers(0, 50, size=300))  # not rotated
        again = registry.self_join_query("f")
        assert again.estimate == published.estimate
        assert again.streams[0].scanned == 300


class TestDeterminismAndObservability:
    def test_same_seed_registries_serve_identical_estimates(self):
        a = fill(make_registry(seed=123))
        b = fill(make_registry(seed=123))
        assert (
            a.self_join_query("f").estimate == b.self_join_query("f").estimate
        )
        assert a.join_query("f", "g").estimate == (
            b.join_query("f", "g").estimate
        )

    def test_serving_metrics_are_emitted(self):
        observer = Observer(clock=FakeClock())
        registry = fill(make_registry(observer=observer, clock=FakeClock()))
        registry.self_join_query("f")
        registry.join_query("f", "g")
        metrics = observer.metrics.snapshot()
        assert metrics.counter_value("serving.ingest.chunks", stream="f") == 1
        assert metrics.counter_value("serving.rotations", stream="f") >= 1
        assert metrics.counter_value("serving.queries", op="self_join") == 1
        assert metrics.counter_value("serving.queries", op="join") == 1
