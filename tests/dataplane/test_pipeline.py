"""Pipeline semantics: cursor, governor wiring, threading, observability."""

import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.dataplane import (
    CallbackSink,
    CollectSink,
    EngineOperator,
    FileSource,
    IterableSource,
    Operator,
    Pipeline,
    RuntimeSink,
    ShedOperator,
    SketchUpdateOperator,
    SketcherSink,
    SocketSource,
    send_frames,
)
from repro.engine import OnlineStatisticsEngine
from repro.errors import ConfigurationError, StreamIntegrityError
from repro.observability import Observer
from repro.resilience import (
    AdaptiveSheddingSketcher,
    ChunkEnvelope,
    LoadGovernor,
    ManualClock,
    StreamRuntime,
    make_envelope,
)
from repro.sketches import FagmsSketch
from repro.streams import iter_chunks
from repro.streams.io import write_stream


def _chunks(seed, count=6, size=50):
    rng = np.random.default_rng(seed)
    return [np.asarray(rng.integers(0, 200, size)) for _ in range(count)]


def test_sync_run_delivers_the_whole_stream_in_order(tmp_path):
    chunks = _chunks(1)
    path = tmp_path / "stream.bin"
    write_stream(path, chunks, 1000)
    collect = CollectSink()
    result = Pipeline(FileSource(path, 50), sinks=[collect], queue_depth=0).run()
    assert result.envelopes == len(chunks)
    assert result.tuples_in == result.tuples_out == 300
    assert result.duplicates == 0
    assert result.max_queue_depth == 0  # synchronous: no queue at all
    assert np.array_equal(collect.keys(), np.concatenate(chunks))


def test_threaded_run_matches_sync_run(tmp_path):
    chunks = _chunks(2, count=12)
    path = tmp_path / "stream.bin"
    write_stream(path, chunks, 1000)
    sync, threaded = CollectSink(), CollectSink()
    Pipeline(FileSource(path, 50), sinks=[sync], queue_depth=0).run()
    result = Pipeline(FileSource(path, 50), sinks=[threaded], queue_depth=3).run()
    assert np.array_equal(threaded.keys(), sync.keys())
    assert result.max_queue_depth <= 3


def test_duplicates_are_skipped_before_operators():
    chunks = _chunks(3, count=4)
    sealed = [make_envelope(i, chunk) for i, chunk in enumerate(chunks)]
    replayed = [sealed[0], sealed[1], sealed[0], sealed[1], sealed[2], sealed[3]]

    def shed_pipeline(envelopes):
        sketch = FagmsSketch(128, 3, seed=33)
        pipeline = Pipeline(
            IterableSource(envelopes),
            ShedOperator(0.5, seed=34),
            SketchUpdateOperator(sketch),
            queue_depth=0,
        )
        return pipeline.run(), sketch

    clean_result, clean_sketch = shed_pipeline(sealed)
    replay_result, replay_sketch = shed_pipeline(replayed)
    assert replay_result.duplicates == 2
    assert replay_result.envelopes == clean_result.envelopes
    # Replays never reach the shedder, so its RNG stream — and the
    # resulting counters — are bit-identical to the clean run.
    assert np.array_equal(replay_sketch.counters, clean_sketch.counters)


def test_head_cursor_survives_across_runs():
    chunks = _chunks(4)
    collect = CollectSink()
    pipeline = Pipeline(IterableSource(chunks), sinks=[collect], queue_depth=0)
    first = pipeline.run()
    second = pipeline.run()  # same source replayed end to end
    assert first.envelopes == len(chunks)
    assert second.envelopes == 0
    assert second.duplicates == len(chunks)
    assert np.array_equal(collect.keys(), np.concatenate(chunks))


def _stateful_stage(kind):
    """``(operator, state())`` for one stateful operator of each kind."""
    if kind == "engine":
        engine = OnlineStatisticsEngine(buckets=64, seed=37)
        engine.register("r", 100)

        def state():
            counters = engine.snapshot().relation("r").counters
            return engine.scanned_tuples("r"), counters

        return EngineOperator(engine, "r"), state
    if kind == "sketch":
        sketch = FagmsSketch(64, 3, seed=38)
        operator = SketchUpdateOperator(sketch)
        return operator, lambda: (operator.tuples, sketch.counters)
    operator = ShedOperator(0.5, seed=1)
    return operator, lambda: (None, operator.shedder.state())


def _failing_once_at(sequence):
    """A sink that raises on *sequence* the first time it sees it."""
    fired = []

    def write(envelope):
        if envelope.sequence == sequence and not fired:
            fired.append(sequence)
            raise OSError(f"sink failed at chunk {sequence}")

    return CallbackSink(write)


@pytest.mark.parametrize("queue_depth", [0, 2])
@pytest.mark.parametrize("kind", ["engine", "sketch", "shed"])
def test_rerun_after_a_sink_fault_applies_each_operator_once(kind, queue_depth):
    def run(fail_at):
        operator, state = _stateful_stage(kind)
        collect = CollectSink()
        sinks = [collect] if fail_at is None else [collect, _failing_once_at(fail_at)]
        pipeline = Pipeline(
            IterableSource(list(iter_chunks(np.arange(100) % 17, 10))),
            operator,
            sinks=sinks,
            queue_depth=queue_depth,
        )
        if fail_at is not None:
            with pytest.raises(OSError, match="sink failed"):
                pipeline.run()
        result = pipeline.run()
        return state(), collect.keys(), pipeline, result

    (tuples, stage_state), keys, _, _ = run(None)
    (rerun_tuples, rerun_state), rerun_keys, pipeline, result = run(3)
    assert rerun_tuples == tuples
    if kind == "shed":
        assert rerun_state == stage_state
    else:
        assert tuples == 100
        assert np.array_equal(rerun_state, stage_state)
    assert np.array_equal(rerun_keys, keys)
    assert pipeline.position == 10
    assert result.duplicates == 3
    assert pipeline.tuples_in == 100


def test_rerun_after_an_operator_fault_resumes_at_that_operator():
    class FailsOnce(FagmsSketch):
        failed = False

        def update(self, keys, *args, **kwargs):
            if not self.failed:
                self.failed = True
                raise OSError("sketch failed")
            return super().update(keys, *args, **kwargs)

    def run(sketch):
        shed = ShedOperator(0.5, seed=40)
        pipeline = Pipeline(
            IterableSource(_chunks(41, count=5)),
            shed,
            SketchUpdateOperator(sketch),
            queue_depth=0,
        )
        if isinstance(sketch, FailsOnce):
            with pytest.raises(OSError, match="sketch failed"):
                pipeline.run()
        pipeline.run()
        return shed.shedder.state(), sketch.counters

    clean_shedder, clean_counters = run(FagmsSketch(64, 3, seed=42))
    shedder, counters = run(FailsOnce(64, 3, seed=42))
    assert shedder == clean_shedder  # the shed stage ran once per chunk
    assert np.array_equal(counters, clean_counters)


def test_rerun_rejects_a_different_payload_for_the_failed_chunk():
    sketch = FagmsSketch(64, 3, seed=39)
    envelopes = [make_envelope(i, np.arange(10) + i) for i in range(3)]
    pipeline = Pipeline(
        IterableSource(envelopes),
        SketchUpdateOperator(sketch),
        sinks=[_failing_once_at(1)],
        queue_depth=0,
    )
    with pytest.raises(OSError):
        pipeline.run()
    before = sketch.counters.copy()
    envelopes[1] = make_envelope(1, np.arange(10) + 50)
    with pytest.raises(StreamIntegrityError, match="re-delivered"):
        pipeline.run()
    assert np.array_equal(sketch.counters, before)
    envelopes[1] = make_envelope(1, np.arange(10) + 1)  # the original again
    pipeline.run()
    assert pipeline.position == 3
    expected = FagmsSketch(64, 3, seed=39)
    expected.update(np.concatenate([np.arange(10) + i for i in range(3)]))
    assert np.array_equal(sketch.counters, expected.counters)


@pytest.mark.parametrize(
    "bad",
    [
        lambda envelope: None,
        lambda envelope: iter([envelope]),
        lambda envelope: make_envelope(envelope.sequence + 1, envelope.keys),
    ],
    ids=["none", "generator", "other-sequence"],
)
def test_an_operator_must_return_its_envelope(bad):
    class OddsGoAstray(Operator):
        def process(self, envelope):
            return envelope if envelope.sequence % 2 == 0 else bad(envelope)

    collect = CollectSink()
    pipeline = Pipeline(
        IterableSource([np.arange(3)] * 4),
        OddsGoAstray(),
        sinks=[collect],
        queue_depth=0,
    )
    with pytest.raises(StreamIntegrityError, match="stage 0.*for chunk 1"):
        pipeline.run()
    assert collect.position == 1
    assert len(collect.chunks) == 1


def test_an_operator_that_drops_every_key_reseals_an_empty_envelope():
    class DropAll(Operator):
        def process(self, envelope):
            return make_envelope(envelope.sequence, np.empty(0, dtype=np.int64))

    collect = CollectSink()
    result = Pipeline(
        IterableSource([np.arange(3)] * 4),
        DropAll(),
        sinks=[collect],
        queue_depth=0,
    ).run()
    assert collect.position == 4
    assert [chunk.size for chunk in collect.chunks] == [0, 0, 0, 0]
    assert (result.tuples_in, result.tuples_out) == (12, 0)


def test_gap_raises():
    envelopes = [make_envelope(0, np.arange(4)), make_envelope(2, np.arange(4))]
    pipeline = Pipeline(
        IterableSource(envelopes), sinks=[CollectSink()], queue_depth=0
    )
    with pytest.raises(StreamIntegrityError):
        pipeline.run()


def test_payload_verification_at_the_head():
    good = make_envelope(0, np.arange(8))
    truncated = ChunkEnvelope(
        sequence=1, keys=np.arange(3), count=8, crc32=good.crc32
    )
    pipeline = Pipeline(
        IterableSource([good, truncated]), sinks=[CollectSink()], queue_depth=0
    )
    with pytest.raises(StreamIntegrityError):
        pipeline.run()


def test_producer_failure_propagates_in_threaded_mode():
    def broken():
        yield make_envelope(0, np.arange(4))
        raise OSError("source died")

    pipeline = Pipeline(
        IterableSource(broken()), sinks=[CollectSink()], queue_depth=2
    )
    with pytest.raises(OSError, match="source died"):
        pipeline.run()


def test_sink_failure_does_not_wait_on_a_blocked_source():
    """A failing sink raises while the producer is parked in ``recv``."""

    def failing_write(envelope):
        raise OSError("sink died")

    writer, reader = socket.socketpair()
    executor = ThreadPoolExecutor(1)
    before = set(threading.enumerate())
    producers = []
    try:
        send_frames(writer, [np.arange(8)])  # one frame; the writer stays open
        pipeline = Pipeline(
            SocketSource(reader),
            sinks=[CallbackSink(failing_write)],
            queue_depth=2,
        )
        future = executor.submit(pipeline.run)
        # Times out (TimeoutError) when run() waits on the producer.
        error = future.exception(timeout=5.0)
        assert isinstance(error, OSError) and str(error) == "sink died"
        producers = [
            thread
            for thread in set(threading.enumerate()) - before
            if thread.name == "dataplane-source"
        ]
        assert len(producers) == 1  # still parked in recv
    finally:
        writer.close()  # EOF: a producer parked in recv returns
        executor.shutdown(wait=True)
        for thread in producers:
            thread.join(5.0)
        reader.close()
    assert not producers[0].is_alive()


def test_governor_retunes_the_shed_stage():
    clock = ManualClock()
    sketcher = AdaptiveSheddingSketcher(FagmsSketch(64, 2, seed=43), 1.0, seed=44)
    shed = SketcherSink(sketcher)
    governor = LoadGovernor(0.001, smoothing=1.0)

    def slow(envelope):
        clock.advance(1.0)  # every chunk costs 1s against a 1ms budget

    from repro.dataplane import CallbackSink

    pipeline = Pipeline(
        IterableSource(_chunks(5)),
        sinks=[shed, CallbackSink(slow)],
        governor=governor,
        clock=clock,
        queue_depth=0,
    )
    result = pipeline.run()
    assert pipeline.retune is shed
    assert result.retunes >= 1
    assert sketcher.rate < 1.0  # the governor pulled the keep-rate down
    # Every rate the governor chose is on the sketcher's ledger.
    assert len(sketcher.shedder.segments) == result.retunes + 1


def test_governor_finds_a_retunable_sink():
    sink = SketcherSink(
        AdaptiveSheddingSketcher(FagmsSketch(64, 2, seed=45), 1.0, seed=46)
    )
    pipeline = Pipeline(
        IterableSource(_chunks(6)),
        sinks=[sink],
        governor=LoadGovernor(1.0),
        queue_depth=0,
    )
    assert pipeline.retune is sink


def test_governor_without_retunable_stage_is_rejected():
    with pytest.raises(ConfigurationError):
        Pipeline(
            IterableSource([]),
            sinks=[CollectSink()],
            governor=LoadGovernor(1.0),
        )


def test_explicit_retune_stage_must_honour_the_contract():
    with pytest.raises(ConfigurationError):
        Pipeline(IterableSource([]), sinks=[CollectSink()], retune=object())


def test_shed_operator_is_not_retunable():
    # A shed stage forwards unweighted survivors, which no downstream
    # sketch can unbias once the rate changes: it keeps no rate controls
    # or tallies of its own, and a governor can neither find nor drive it.
    shed = ShedOperator(0.5, seed=48)
    for attr in ("rate", "set_rate", "last_kept", "seen", "kept"):
        assert not hasattr(shed, attr)
    with pytest.raises(ConfigurationError):
        Pipeline(
            IterableSource([]),
            shed,
            sinks=[CollectSink()],
            governor=LoadGovernor(1.0),
        )
    with pytest.raises(ConfigurationError):
        Pipeline(IterableSource([]), shed, retune=shed)


@pytest.mark.parametrize("queue_depth", [0, 2])
def test_each_sink_is_flushed_once_per_run_in_list_order(queue_depth):
    log = []

    def recording_sink(label):
        return CallbackSink(
            lambda envelope: log.append((label, envelope.sequence)),
            on_flush=lambda: log.append((label, "flush")),
        )

    labels = ("a", "b", "c")
    chunks = _chunks(6, count=4)
    pipeline = Pipeline(
        IterableSource(chunks),
        sinks=[recording_sink(label) for label in labels],
        queue_depth=queue_depth,
    )
    pipeline.run()
    deliveries = [(label, seq) for seq in range(len(chunks)) for label in labels]
    flushes = [(label, "flush") for label in labels]
    assert log == deliveries + flushes
    # A replayed run delivers nothing new but still ends the stream once.
    pipeline.run()
    assert log == deliveries + flushes + flushes


def test_rejects_bad_configuration():
    with pytest.raises(ConfigurationError):
        Pipeline(IterableSource([]), queue_depth=-1)
    with pytest.raises(ConfigurationError):
        Pipeline(IterableSource([]), start=-1)


def test_observer_receives_dataplane_metrics():
    observer = Observer()
    chunks = _chunks(7, count=3)
    Pipeline(
        IterableSource(chunks),
        ShedOperator(1.0, seed=49),
        sinks=[CollectSink()],
        observer=observer,
        queue_depth=0,
    ).run()
    assert observer.counter("dataplane.chunks.accepted").value == 3
    assert observer.counter("dataplane.tuples.seen").value == 150
    assert observer.counter("dataplane.tuples.delivered").value == 150
    assert observer.counter("dataplane.stage.envelopes", stage="shed").value == 3
    assert observer.counter("dataplane.stage.envelopes", stage="collect").value == 3
    spans = [record["name"] for record in observer.tracer.export_spans()]
    assert "dataplane.run" in spans


def test_stream_runtime_run_rides_the_dataplane(tmp_path):
    chunks = _chunks(8)
    runtime = StreamRuntime(
        FagmsSketch(128, 3, seed=55),
        p=1.0,
        seed=56,
        checkpoint_dir=tmp_path,
        checkpoint_every=2,
    )
    kept = runtime.run(chunks)
    assert kept == 300
    assert runtime.position == len(chunks)
    # The delegate path leaves verification to the runtime's own cursor:
    # replaying sealed envelopes through StreamRuntime.run is still safe.
    sealed = [make_envelope(i, chunk) for i, chunk in enumerate(chunks)]
    assert runtime.run(sealed[:3]) == 0  # pure replay, all duplicates
    assert runtime.duplicates == 3


def test_runtime_sink_counts_kept_tuples():
    runtime = StreamRuntime(FagmsSketch(64, 2, seed=57), p=1.0, seed=58)
    sink = RuntimeSink(runtime)
    envelope = make_envelope(0, np.arange(20))
    sink.accept(envelope)
    assert sink.kept == 20
    assert sink.tuples == 20
