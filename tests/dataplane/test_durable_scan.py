"""A durable engine scan: ``FileSource`` → ``EngineOperator`` → ``CheckpointSink``.

The resume recipe: after a crash, restore the engine from the newest
checkpoint with ``OnlineStatisticsEngine.from_checkpoint_state`` (or
build a fresh one when none was written) and run a new pipeline at
``start=latest.position``.  The replayed prefix is skipped as
duplicates, and the scan ends bit-identical to an undisturbed run.
``tests/resilience/test_interrupted_run.py`` runs the same recipe after
a real process death.
"""

import numpy as np
import pytest

from repro.dataplane import (
    CallbackSink,
    CheckpointSink,
    EngineOperator,
    FileSource,
    Pipeline,
)
from repro.engine import OnlineStatisticsEngine
from repro.resilience import CheckpointManager, SimulatedCrash
from repro.streams.io import write_stream

CHUNK = 50
CHUNKS = 12
EVERY = 3
DOMAIN = 500


@pytest.fixture
def stream(tmp_path):
    keys = np.random.default_rng(171).zipf(1.3, CHUNK * CHUNKS).clip(0, DOMAIN - 1)
    path = tmp_path / "stream.bin"
    write_stream(path, [keys], DOMAIN)
    return path, keys


def _engine():
    engine = OnlineStatisticsEngine(buckets=128, rows=3, seed=172)
    engine.register("r", CHUNK * CHUNKS)
    return engine


def _scan(path, engine, directory, *, start=0, crash_at=None):
    sinks = [
        CheckpointSink(
            directory, engine.checkpoint_state, every=EVERY, start=start
        )
    ]
    if crash_at is not None:

        def crash(envelope):
            if envelope.sequence == crash_at:
                raise SimulatedCrash(f"crash at chunk {crash_at}")

        sinks.append(CallbackSink(crash))
    return Pipeline(
        FileSource(path, CHUNK),
        EngineOperator(engine, "r"),
        sinks=sinks,
        queue_depth=0,
        start=start,
    ).run()


@pytest.mark.parametrize(
    "crash_at",
    [1, EVERY - 1, 2 * EVERY + 1],
    ids=["before-first-checkpoint", "at-a-checkpoint", "between-checkpoints"],
)
def test_crashed_scan_resumes_bit_identically(tmp_path, stream, crash_at):
    path, keys = stream
    reference = _engine()
    reference.consume("r", keys)

    directory = tmp_path / "ckpt"
    with pytest.raises(SimulatedCrash):
        _scan(path, _engine(), directory, crash_at=crash_at)

    latest = CheckpointManager(directory).latest()
    if latest is None:
        engine, position = _engine(), 0
    else:
        engine = OnlineStatisticsEngine.from_checkpoint_state(
            latest.state, latest.arrays
        )
        position = latest.position
    # The checkpoint sink runs ahead of the crash, so a crash on a
    # cadence hit still leaves that hit's snapshot behind.
    assert position == (crash_at + 1) // EVERY * EVERY
    result = _scan(path, engine, directory, start=position)

    assert result.duplicates == position
    assert engine.scanned_tuples("r") == reference.scanned_tuples("r")
    assert np.array_equal(
        engine.snapshot().relation("r").counters,
        reference.snapshot().relation("r").counters,
    )
    final = CheckpointManager(directory).latest()
    assert final.position == CHUNKS
    restored = OnlineStatisticsEngine.from_checkpoint_state(
        final.state, final.arrays
    )
    assert np.array_equal(
        restored.snapshot().relation("r").counters,
        reference.snapshot().relation("r").counters,
    )


def test_failed_save_is_retried_at_the_same_position(tmp_path, stream):
    path, keys = stream
    reference = _engine()
    reference.consume("r", keys)
    engine = _engine()
    failures = [OSError("disk full")]

    def payload():
        if failures:
            raise failures.pop()
        return engine.checkpoint_state()

    directory = tmp_path / "ckpt"
    sink = CheckpointSink(directory, payload, every=EVERY)
    pipeline = Pipeline(
        FileSource(path, CHUNK),
        EngineOperator(engine, "r"),
        sinks=[sink],
        queue_depth=0,
    )
    with pytest.raises(OSError, match="disk full"):
        pipeline.run()
    assert sink.position == EVERY - 1  # the failed save held the cursor
    pipeline.run()

    assert sink.written == CHUNKS // EVERY
    latest = CheckpointManager(directory).latest()
    assert latest.position == CHUNKS
    restored = OnlineStatisticsEngine.from_checkpoint_state(
        latest.state, latest.arrays
    )
    assert restored.scanned_tuples("r") == CHUNK * CHUNKS
    assert np.array_equal(
        restored.snapshot().relation("r").counters,
        reference.snapshot().relation("r").counters,
    )
