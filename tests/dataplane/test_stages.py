"""Operators and sinks: per-stage contracts (reseal, cursor, flush)."""

import numpy as np
import pytest

from repro.core.load_shedding import LoadShedder
from repro.dataplane import (
    CallbackSink,
    CheckpointSink,
    CollectSink,
    EngineOperator,
    RegistrySink,
    ShedOperator,
    SketchUpdateOperator,
    SketcherSink,
)
from repro.engine import OnlineStatisticsEngine
from repro.errors import ConfigurationError, StreamIntegrityError
from repro.resilience import (
    AdaptiveSheddingSketcher,
    CheckpointManager,
    make_envelope,
    verify_payload,
)
from repro.serving import SketchRegistry
from repro.sketches import FagmsSketch


def _envelope(sequence=0, n=32, seed=0):
    return make_envelope(
        sequence, np.asarray(np.random.default_rng(seed).integers(0, 100, n))
    )


class TestOperators:
    def test_shed_at_full_rate_passes_through_without_rng(self):
        envelope = _envelope()
        shed = ShedOperator(1.0, seed=11)
        rng_state = shed.shedder.state()["rng_state"]
        out = shed.process(envelope)
        assert out is envelope  # untouched, not resealed
        assert shed.shedder.state()["rng_state"] == rng_state  # no draws
        # The shedder still tallies the draw its info() describes.
        info = shed.shedder.info()
        assert info.population_size == info.sample_size == envelope.count
        assert info.probability == 1.0

    def test_shed_below_full_rate_matches_load_shedder(self):
        batch = np.asarray(_envelope(seed=6, n=128).keys)
        shed = ShedOperator(0.3, seed=21)
        out = shed.process(make_envelope(0, batch))
        assert np.array_equal(
            verify_payload(out), LoadShedder(0.3, seed=21).filter(batch)
        )
        assert shed.shedder.seen == 128
        assert shed.shedder.kept == out.count

    def test_sketch_update_feeds_sketch_and_forwards(self):
        sketch = FagmsSketch(64, 3, seed=31)
        mirror = FagmsSketch(64, 3, seed=31)
        operator = SketchUpdateOperator(sketch)
        envelope = _envelope()
        out = operator.process(envelope)
        assert out is envelope
        mirror.update(np.asarray(envelope.keys))
        assert np.array_equal(sketch.counters, mirror.counters)
        assert operator.tuples == envelope.count

    def test_engine_operator_consumes_one_relation(self):
        engine = OnlineStatisticsEngine(buckets=128, seed=41)
        engine.register("flows", 32)
        operator = EngineOperator(engine, "flows")
        envelope = _envelope()
        out = operator.process(envelope)
        assert out is envelope
        assert engine.scanned_tuples("flows") == envelope.count

class TestSinkCursor:
    def test_duplicates_are_skipped(self):
        sink = CollectSink()
        envelope = _envelope()
        assert sink.accept(envelope) == envelope.count
        assert sink.accept(envelope) == 0
        assert sink.duplicates == 1
        assert len(sink.chunks) == 1

    def test_gaps_raise(self):
        sink = CollectSink()
        with pytest.raises(StreamIntegrityError):
            sink.accept(_envelope(sequence=2))

    def test_start_offset_resumes_mid_stream(self):
        sink = CollectSink(start=2)
        assert sink.accept(_envelope(sequence=1)) == 0  # replayed prefix
        assert sink.accept(_envelope(sequence=2)) > 0


class TestSinks:
    def test_callback_sink_invokes_fn_and_flush(self):
        seen, flushed = [], []
        sink = CallbackSink(seen.append, on_flush=lambda: flushed.append(True))
        envelope = _envelope()
        sink.accept(envelope)
        sink.flush()
        assert seen == [envelope]
        assert flushed == [True]

    def test_sketcher_sink_terminates_in_a_shedding_sketcher(self):
        sketcher = AdaptiveSheddingSketcher(
            FagmsSketch(64, 3, seed=51), 0.5, seed=52
        )
        sink = SketcherSink(sketcher)
        envelope = _envelope(n=100)
        sink.accept(envelope)
        assert 0 < sink.kept <= 100
        assert sink.last_kept == sink.kept == sketcher.kept
        assert sketcher.seen == 100

    def test_sketcher_sink_exposes_adaptive_rate_controls(self):
        sink = SketcherSink(
            AdaptiveSheddingSketcher(FagmsSketch(64, 3, seed=53), 0.8, seed=54)
        )
        assert sink.rate == 0.8
        sink.set_rate(0.25)
        assert sink.rate == 0.25

    def test_checkpoint_sink_cadence_and_final_flush(self, tmp_path):
        sketch = FagmsSketch(32, 2, seed=61)
        sink = CheckpointSink(
            tmp_path, lambda: ({"note": "t"}, {"counters": sketch.counters}), every=2
        )
        for sequence in range(5):
            sink.accept(_envelope(sequence=sequence, seed=sequence))
        assert sink.written == 2  # after envelopes 2 and 4
        sink.flush()
        assert sink.written == 3  # the tail envelope
        sink.flush()
        assert sink.written == 3  # nothing new: no extra snapshot
        latest = CheckpointManager(tmp_path).latest()
        assert latest.position == 5
        assert np.array_equal(latest.arrays["counters"], sketch.counters)

    def test_checkpoint_sink_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointSink(tmp_path, lambda: ({}, {}), every=0)

    def test_registry_sink_rotates_on_flush(self):
        registry = SketchRegistry(buckets=256, seed=71)
        registry.register_stream("flows", 200)
        sink = RegistrySink(registry, "flows")
        keys = np.asarray(np.random.default_rng(72).integers(0, 50, 200))
        sink.accept(make_envelope(0, keys))
        sink.flush()
        assert sink.rotations >= 1
        assert registry.self_join_query("flows").estimate > 0
