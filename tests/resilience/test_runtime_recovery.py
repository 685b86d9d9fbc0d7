"""Crash/recover round-trips must be bit-identical, everywhere.

The matrix: every kernel backend × every sketch type.  A runtime is
killed mid-stream, recovered from its newest checkpoint, and replayed;
the final counters must equal an uninterrupted run's bit for bit
(``np.array_equal``, not ``allclose``).
"""

import copy

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigurationError, StreamIntegrityError
from repro.kernels import backend_name, native_available, set_backend
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.runtime import StreamRuntime, envelope_stream, make_envelope
from repro.sketches.agms import AgmsSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.fagms import FagmsSketch
from repro.streams import iter_chunks

BACKENDS = ["reference", "numpy"] + (["native"] if native_available() else [])

SKETCHES = {
    "agms": lambda: AgmsSketch(rows=32, seed=17),
    "fagms": lambda: FagmsSketch(buckets=64, rows=3, seed=17),
    "countmin": lambda: CountMinSketch(buckets=64, rows=3, seed=17),
}


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = backend_name()
    yield
    set_backend(previous)


def _run_to_completion(make_sketch, chunks, directory, *, interrupt_at=None, p=1.0):
    runtime = StreamRuntime(
        make_sketch(), p=p, seed=1234, checkpoint_dir=directory, checkpoint_every=4
    )
    for index, envelope in enumerate(envelope_stream(chunks)):
        if interrupt_at is not None and index == interrupt_at:
            return runtime
        runtime.process(envelope)
    return runtime


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", sorted(SKETCHES))
def test_recovery_is_bit_identical(tmp_path, backend, kind, stream_chunks):
    set_backend(backend)
    make_sketch = SKETCHES[kind]

    reference = StreamRuntime(make_sketch(), p=1.0, seed=1234)
    reference.run(list(stream_chunks))

    _run_to_completion(
        make_sketch, stream_chunks, tmp_path / "ck", interrupt_at=13
    )  # dies with 13 chunks applied, 3 past the last checkpoint
    recovered = StreamRuntime.recover(tmp_path / "ck")
    assert 0 < recovered.position <= 13
    recovered.run(list(stream_chunks))
    assert recovered.position == len(stream_chunks)
    assert np.array_equal(
        recovered.sketch._state(), reference.sketch._state()
    )


@pytest.mark.parametrize("kind", ["agms", "fagms"])
def test_recovery_under_shedding_is_bit_identical(tmp_path, kind, stream_chunks):
    make_sketch = SKETCHES[kind]
    uninterrupted = _run_to_completion(
        make_sketch, stream_chunks, tmp_path / "a", p=0.3
    )
    _run_to_completion(
        make_sketch, stream_chunks, tmp_path / "b", interrupt_at=11, p=0.3
    )
    recovered = StreamRuntime.recover(tmp_path / "b")
    recovered.run(list(stream_chunks))
    assert np.array_equal(
        recovered.sketch._state(), uninterrupted.sketch._state()
    )
    assert recovered.sketcher.seen == uninterrupted.sketcher.seen
    assert recovered.sketcher.kept == uninterrupted.sketcher.kept
    assert recovered.self_join_size() == pytest.approx(
        uninterrupted.self_join_size()
    )


def test_unshedded_runtime_matches_plain_sketch(stream_chunks):
    runtime = StreamRuntime(FagmsSketch(buckets=64, seed=3))
    runtime.run(list(stream_chunks))
    plain = FagmsSketch(buckets=64, seed=3)
    for chunk in stream_chunks:
        plain.update(chunk)
    assert np.array_equal(runtime.sketch._state(), plain._state())


def test_duplicate_chunks_apply_once(stream_chunks):
    runtime = StreamRuntime(FagmsSketch(buckets=64, seed=3))
    doubled = []
    for envelope in envelope_stream(stream_chunks[:6]):
        doubled.extend([envelope, envelope])
    runtime.run(doubled)
    assert runtime.duplicates == 6
    plain = FagmsSketch(buckets=64, seed=3)
    for chunk in stream_chunks[:6]:
        plain.update(chunk)
    assert np.array_equal(runtime.sketch._state(), plain._state())


def test_truncated_chunk_raises(stream_chunks):
    runtime = StreamRuntime(FagmsSketch(buckets=64, seed=3))
    sealed = make_envelope(0, stream_chunks[0])
    torn = type(sealed)(
        sequence=0,
        keys=sealed.keys[:-3],
        count=sealed.count,
        crc32=sealed.crc32,
    )
    with pytest.raises(StreamIntegrityError, match="truncated"):
        runtime.process(torn)
    # nothing was applied: the intact redelivery still lands at cursor 0
    runtime.process(sealed)
    assert runtime.position == 1


def test_bit_flipped_payload_raises(stream_chunks):
    runtime = StreamRuntime(FagmsSketch(buckets=64, seed=3))
    sealed = make_envelope(0, stream_chunks[0])
    flipped_keys = sealed.keys.copy()
    flipped_keys[5] ^= 0x10
    flipped = type(sealed)(
        sequence=0, keys=flipped_keys, count=sealed.count, crc32=sealed.crc32
    )
    with pytest.raises(StreamIntegrityError, match="CRC32"):
        runtime.process(flipped)


def test_gap_in_sequence_raises(stream_chunks):
    runtime = StreamRuntime(FagmsSketch(buckets=64, seed=3))
    runtime.process(make_envelope(0, stream_chunks[0]))
    with pytest.raises(StreamIntegrityError, match="gap"):
        runtime.process(make_envelope(2, stream_chunks[2]))


class _FailsOnceAtKey30(FagmsSketch):
    """Raises once, on the (possibly shed) chunk of keys 30 to 39."""

    failed = False

    def update(self, keys, *args, **kwargs):
        if not self.failed and 30 <= int(keys[0]) < 40:
            self.failed = True
            raise RuntimeError("transient sketch failure")
        return super().update(keys, *args, **kwargs)


def test_rerun_over_the_same_one_shot_iterator_raises():
    """A generator cannot replay: its remainder must not be renumbered."""
    runtime = StreamRuntime(_FailsOnceAtKey30(buckets=64, seed=3))
    chunks = iter_chunks(np.arange(100), 10)
    with pytest.raises(RuntimeError, match="transient"):
        runtime.run(chunks)
    assert runtime.position == 3
    with pytest.raises(ConfigurationError, match="one-shot"):
        runtime.run(chunks)
    assert runtime.position == 3
    # A fresh iterator replays from the first chunk: the applied prefix
    # is skipped as duplicates and the rest lands.
    runtime.run(iter_chunks(np.arange(100), 10))
    assert (runtime.position, runtime.duplicates) == (10, 3)
    plain = FagmsSketch(buckets=64, seed=3)
    plain.update(np.arange(100))
    assert np.array_equal(runtime.sketch._state(), plain._state())


def test_failed_update_is_shed_and_tallied_once_on_replay():
    """The shedder rewinds when the sketch raises, so the replay matches."""
    clean = StreamRuntime(FagmsSketch(buckets=64, seed=3), p=0.5, seed=1)
    clean.run(iter_chunks(np.arange(100), 10))
    flaky = _FailsOnceAtKey30(buckets=64, seed=3)
    runtime = StreamRuntime(flaky, p=0.5, seed=1)
    with pytest.raises(RuntimeError, match="transient"):
        runtime.run(iter_chunks(np.arange(100), 10))
    assert flaky.failed and runtime.position == 3
    assert runtime.sketcher.seen == 30
    runtime.run(iter_chunks(np.arange(100), 10))
    assert (runtime.sketcher.seen, runtime.sketcher.kept) == (100, clean.sketcher.kept)
    assert runtime.sketcher.state() == clean.sketcher.state()
    assert np.array_equal(runtime.sketch._state(), clean.sketch._state())


def test_recover_requires_a_checkpoint(tmp_path):
    with pytest.raises(CheckpointError, match="no usable checkpoint"):
        StreamRuntime.recover(tmp_path / "empty")


#: Ways a checkpoint's shedder state can be malformed: each edits the
#: ``sketcher`` record of a valid two-segment checkpoint in place.
MALFORMED_SHEDDER_STATE = {
    "until_next missing": lambda s: s["shedder"].pop("until_next"),
    "rng_state without state": lambda s: s["shedder"]["rng_state"].pop("state"),
    "segment seen missing": lambda s: s["schedule"]["segments"][0].pop("seen"),
    "segment p a string": lambda s: s["schedule"]["segments"][0].update(p="0.5"),
    "segment tallies disagree": lambda s: s["schedule"]["segments"][0].update(
        seen=s["schedule"]["segments"][0]["seen"] + 5
    ),
}


#: Ways a checkpoint's sketch can be malformed: each edits the state and
#: the counter arrays of a valid checkpoint in place.
MALFORMED_SKETCH = {
    "counters NaN": lambda s, a: a["counters"].__setitem__((0, 0), np.nan),
    "counters complex": lambda s, a: a.update(
        counters=a["counters"].astype(np.complex128)
    ),
    "header rows a string": lambda s, a: s["sketch"].update(rows="3"),
    "header type unknown": lambda s, a: s["sketch"].update(type="MysterySketch"),
}


@pytest.fixture
def shed_checkpoint(tmp_path, stream_chunks):
    """A valid two-segment shed checkpoint in *tmp_path*: its manager."""
    runtime = StreamRuntime(
        FagmsSketch(buckets=64, rows=3, seed=17),
        p=0.5,
        seed=1234,
        checkpoint_dir=tmp_path,
    )
    runtime.run(list(stream_chunks[:5]))
    runtime.sketcher.set_rate(0.25)
    runtime.run(list(stream_chunks[:10]))
    runtime.checkpoint()
    return CheckpointManager(tmp_path)


def _rewrite_latest(manager, edit):
    """Overwrite the newest checkpoint with a copy that *edit* changed."""
    snapshot = manager.latest()
    state = copy.deepcopy(snapshot.state)
    arrays = {name: np.array(array) for name, array in snapshot.arrays.items()}
    edit(state, arrays)
    manager.save(position=snapshot.position, state=state, arrays=arrays)


@pytest.mark.parametrize("fault", sorted(MALFORMED_SHEDDER_STATE))
def test_malformed_shedder_state_is_a_checkpoint_error(
    tmp_path, fault, shed_checkpoint
):
    _rewrite_latest(
        shed_checkpoint,
        lambda state, arrays: MALFORMED_SHEDDER_STATE[fault](state["sketcher"]),
    )
    with pytest.raises(CheckpointError):
        StreamRuntime.recover(tmp_path)


@pytest.mark.parametrize("fault", sorted(MALFORMED_SKETCH))
def test_malformed_sketch_is_a_checkpoint_error(tmp_path, fault, shed_checkpoint):
    # The untouched checkpoint recovers; only the corruption makes it fail.
    assert np.isfinite(StreamRuntime.recover(tmp_path).self_join_size())
    _rewrite_latest(shed_checkpoint, MALFORMED_SKETCH[fault])
    with pytest.raises(CheckpointError):
        StreamRuntime.recover(tmp_path)
