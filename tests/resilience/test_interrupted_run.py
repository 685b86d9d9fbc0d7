"""End-to-end interrupted-run smoke test: SIGKILL a real process mid-scan.

A child Python process runs a durable engine scan, ``FileSource`` →
``EngineOperator`` → ``CheckpointSink``, and is killed (``SIGKILL``, no
cleanup) partway through the file.  The parent restores the engine from
the newest checkpoint with ``OnlineStatisticsEngine.from_checkpoint_state``
and runs a new pipeline at ``start=latest.position``; the scan must end
with counters and scanned tuples bit-identical to an uninterrupted run.
This is the one test where the crash is a real process death rather than
a simulated exception, so it also exercises checkpoint durability across
process boundaries.  CI runs it in the ``resilience`` job.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dataplane import CheckpointSink, EngineOperator, FileSource, Pipeline
from repro.engine import OnlineStatisticsEngine
from repro.resilience import CheckpointManager
from repro.streams import zipf_relation
from repro.streams.io import write_stream

TUPLES = 20_000
CHUNK = 1_000
CHUNKS = TUPLES // CHUNK
EVERY = 3
#: The child stops making progress after applying this chunk, so the
#: kill lands between two cadence hits.
PARK_AT = 7

CHILD_SCRIPT = textwrap.dedent(
    """
    import sys, time
    from repro.dataplane import (
        CallbackSink, CheckpointSink, EngineOperator, FileSource, Pipeline,
    )
    from repro.engine import OnlineStatisticsEngine

    path, directory = sys.argv[1], sys.argv[2]
    engine = OnlineStatisticsEngine(buckets=512, seed=9)
    engine.register("r", {tuples})

    def progress(envelope):
        print("CHUNK-DONE", envelope.sequence, flush=True)
        if envelope.sequence == {park_at}:
            time.sleep(60)  # wait here for the parent's SIGKILL

    Pipeline(
        FileSource(path, {chunk}),
        EngineOperator(engine, "r"),
        sinks=[
            CheckpointSink(directory, engine.checkpoint_state, every={every}),
            CallbackSink(progress),
        ],
        queue_depth=0,
    ).run()
    print("FINISHED", flush=True)
    """
).format(tuples=TUPLES, chunk=CHUNK, every=EVERY, park_at=PARK_AT)


def _engine() -> OnlineStatisticsEngine:
    engine = OnlineStatisticsEngine(buckets=512, seed=9)
    engine.register("r", TUPLES)
    return engine


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_killed_scan_resumes_bit_identically(tmp_path):
    keys = zipf_relation(TUPLES, 2_000, skew=1.0, seed=31).keys
    path = tmp_path / "stream.bin"
    write_stream(path, [keys], 2_000)
    directory = tmp_path / "scan-ckpts"
    src_root = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)

    child = subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(path), str(directory)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        # Wait until the child has applied PARK_AT, then kill it hard.
        deadline = time.monotonic() + 60
        while True:
            line = child.stdout.readline()
            if not line:
                pytest.fail(f"child exited early: {child.stderr.read()}")
            if line.split() == ["CHUNK-DONE", str(PARK_AT)]:
                break
            assert time.monotonic() < deadline, "child made no progress"
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL

    # Resume from whatever the dead process left on disk.
    latest = CheckpointManager(directory).latest()
    assert latest is not None
    assert 0 < latest.position < CHUNKS
    engine = OnlineStatisticsEngine.from_checkpoint_state(
        latest.state, latest.arrays
    )
    assert engine.scanned_tuples("r") == latest.position * CHUNK
    result = Pipeline(
        FileSource(path, CHUNK),
        EngineOperator(engine, "r"),
        sinks=[
            CheckpointSink(
                directory,
                engine.checkpoint_state,
                every=EVERY,
                start=latest.position,
            )
        ],
        queue_depth=0,
        start=latest.position,
    ).run()
    assert result.duplicates == latest.position
    assert result.envelopes == CHUNKS - latest.position

    # Reference: the same scan, never interrupted.
    reference = _engine()
    reference.consume("r", keys)
    assert engine.scanned_tuples("r") == reference.scanned_tuples("r") == TUPLES
    resumed, expected = engine.snapshot(), reference.snapshot()
    assert np.array_equal(
        resumed.relation("r").counters, expected.relation("r").counters
    )
    assert resumed.self_join_size("r") == expected.self_join_size("r")
    assert CheckpointManager(directory).latest().position == CHUNKS
