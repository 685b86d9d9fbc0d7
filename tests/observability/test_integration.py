"""Observer wiring through engine, lockstep scan, and stream runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import OnlineStatisticsEngine, run_lockstep_scan
from repro.errors import StreamIntegrityError
from repro.observability import Observer
from repro.resilience.runtime import (
    ChunkEnvelope,
    StreamRuntime,
    envelope_stream,
    make_envelope,
)
from repro.sketches.fagms import FagmsSketch
from repro.streams.base import Relation, iter_chunks


@pytest.fixture
def relations() -> dict:
    rng = np.random.default_rng(7)
    return {
        "lineitem": Relation(rng.integers(0, 500, 4000), name="lineitem"),
        "orders": Relation(rng.integers(0, 500, 1000), name="orders"),
    }


class TestEngineObserver:
    def test_consume_updates_row_and_chunk_counters(self, observer):
        engine = OnlineStatisticsEngine(buckets=256, seed=5, observer=observer)
        engine.register("lineitem", 100)
        engine.consume("lineitem", np.arange(40))
        engine.consume("lineitem", np.arange(10))
        snapshot = observer.metrics.snapshot()
        assert snapshot.counter_value(
            "engine.rows.consumed", relation="lineitem"
        ) == 50
        assert snapshot.counter_value(
            "engine.chunks.consumed", relation="lineitem"
        ) == 2
        assert snapshot.gauge_value(
            "engine.fraction_scanned", relation="lineitem"
        ) == 0.5

    def test_snapshot_publishes_estimate_gauges(self, observer):
        engine = OnlineStatisticsEngine(buckets=256, seed=5, observer=observer)
        engine.register("lineitem", 100)
        engine.consume("lineitem", np.arange(50))
        engine.snapshot()
        metrics = observer.metrics.snapshot()
        assert metrics.counter_value("engine.snapshots") == 1
        assert metrics.gauge_value(
            "engine.self_join_estimate", relation="lineitem"
        ) is not None

    def test_default_observer_is_the_null_observer(self):
        engine = OnlineStatisticsEngine(buckets=64, seed=5)
        assert engine.observer.enabled is False


class TestScanObserver:
    def test_scan_emits_fraction_and_chunk_spans(self, observer, relations):
        engine = OnlineStatisticsEngine(buckets=256, seed=6, observer=observer)
        list(run_lockstep_scan(engine, relations, checkpoints=(0.5, 1.0)))
        names = [record.name for record in observer.tracer.finished]
        assert names.count("scan.fraction") == 2
        assert names.count("scan.chunk") == 4  # two relations per fraction
        metrics = observer.metrics.snapshot()
        assert metrics.counter_value("scan.fractions.completed") == 2

    def test_explicit_observer_overrides_the_engines(self, relations):
        engine = OnlineStatisticsEngine(buckets=256, seed=6)
        explicit = Observer()
        list(
            run_lockstep_scan(
                engine, relations, checkpoints=(1.0,), observer=explicit
            )
        )
        assert explicit.metrics.snapshot().counter_value(
            "scan.fractions.completed"
        ) == 1


class TestRuntimeObserver:
    def _runtime(self, observer, **kwargs) -> StreamRuntime:
        return StreamRuntime(
            FagmsSketch(128, rows=2, seed=9), observer=observer, **kwargs
        )

    def test_accepted_chunks_count_tuples_and_spans(self, observer):
        runtime = self._runtime(observer)
        keys = np.arange(1000, dtype=np.int64)
        runtime.run(envelope_stream(iter_chunks(keys, 256)))
        metrics = observer.metrics.snapshot()
        assert metrics.counter_value("runtime.chunks.accepted") == 4
        assert metrics.counter_value("runtime.tuples.seen") == 1000
        assert metrics.counter_value("runtime.tuples.sketched") == 1000
        assert metrics.gauge_value("resilience.shed.rate") == 1.0
        names = [record.name for record in observer.tracer.finished]
        assert names.count("runtime.chunk") == 4

    def test_duplicates_and_rejections_are_labeled(self, observer):
        runtime = self._runtime(observer)
        chunk = make_envelope(0, np.arange(10, dtype=np.int64))
        runtime.process(chunk)
        runtime.process(chunk)  # replay → duplicate
        with pytest.raises(StreamIntegrityError):
            runtime.process(make_envelope(5, np.arange(3, dtype=np.int64)))
        bad = ChunkEnvelope(
            sequence=1,
            keys=np.arange(4, dtype=np.int64),
            count=4,
            crc32=0xDEAD,
        )
        with pytest.raises(StreamIntegrityError):
            runtime.process(bad)
        metrics = observer.metrics.snapshot()
        assert metrics.counter_value("runtime.chunks.duplicate") == 1
        assert metrics.counter_value(
            "runtime.chunks.rejected", reason="gap"
        ) == 1
        assert metrics.counter_value(
            "runtime.chunks.rejected", reason="crc"
        ) == 1

    def test_recovery_attaches_observer_and_counts(self, observer, tmp_path):
        runtime = self._runtime(None, checkpoint_dir=tmp_path)
        keys = np.arange(2000, dtype=np.int64)
        runtime.run(envelope_stream(iter_chunks(keys, 256)))

        recovered = StreamRuntime.recover(tmp_path, observer=observer)
        assert recovered.observer is observer
        metrics = observer.metrics.snapshot()
        assert metrics.counter_value("runtime.recoveries") == 1
        names = [record.name for record in observer.tracer.finished]
        assert "runtime.checkpoint.restore" in names

        # The recovered runtime keeps feeding the same observer.
        recovered.run(envelope_stream(iter_chunks(keys, 256)))
        metrics = observer.metrics.snapshot()
        assert metrics.counter_value("runtime.chunks.duplicate") == 8

    def test_checkpoint_writes_are_counted(self, observer, tmp_path):
        runtime = self._runtime(
            observer, checkpoint_dir=tmp_path, checkpoint_every=2
        )
        keys = np.arange(1024, dtype=np.int64)
        runtime.run(envelope_stream(iter_chunks(keys, 256)))
        metrics = observer.metrics.snapshot()
        assert metrics.counter_value("runtime.checkpoints.written") == 2
        assert runtime.checkpoints_written == 2
