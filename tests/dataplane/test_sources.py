"""Sources: every head of a pipeline seals the same envelope contract."""

import socket
import threading

import numpy as np
import pytest

from repro.dataplane import (
    CallbackSink,
    CollectSink,
    FileSource,
    IterableSource,
    Pipeline,
    SocketSource,
    send_frames,
)
from repro.dataplane.sources import MAX_FRAME_KEYS
from repro.errors import ConfigurationError, StreamIntegrityError
from repro.resilience import make_envelope, verify_payload
from repro.streams import iter_chunks
from repro.streams.io import write_stream


def _keys(seed, n):
    return np.asarray(np.random.default_rng(seed).integers(0, 1000, n))


def _collect(source):
    envelopes = list(source.envelopes())
    for envelope in envelopes:
        verify_payload(envelope)  # every source seals valid envelopes
    return envelopes


class TestIterableSource:
    def test_seals_raw_chunks_sequentially(self):
        chunks = [_keys(1, 10), _keys(2, 4), _keys(3, 7)]
        envelopes = _collect(IterableSource(chunks))
        assert [e.sequence for e in envelopes] == [0, 1, 2]
        for chunk, envelope in zip(chunks, envelopes):
            assert np.array_equal(envelope.keys, chunk)

    def test_presealed_envelopes_pass_through_and_renumber_the_tail(self):
        sealed = make_envelope(5, _keys(4, 3))
        envelopes = _collect(IterableSource([sealed, _keys(5, 2)]))
        assert envelopes[0] is sealed
        # A raw chunk after a sealed envelope continues its numbering.
        assert envelopes[1].sequence == 6

    def test_start_offsets_the_numbering(self):
        envelopes = _collect(IterableSource([_keys(6, 2)], start=9))
        assert envelopes[0].sequence == 9

    def test_rejects_negative_start(self):
        with pytest.raises(ConfigurationError):
            IterableSource([], start=-1)

    @pytest.mark.parametrize("one_shot", [False, True], ids=["list", "generator"])
    def test_rerun_after_a_fault_replays_a_list_and_rejects_a_generator(
        self, one_shot
    ):
        chunks = iter_chunks(np.arange(100), 10)
        failed = []

        def fail_once_on_chunk_3(envelope):
            if envelope.sequence == 3 and not failed:
                failed.append(envelope.sequence)
                raise RuntimeError("sink fault")

        collect = CollectSink()
        pipeline = Pipeline(
            IterableSource(chunks if one_shot else list(chunks)),
            sinks=[CallbackSink(fail_once_on_chunk_3), collect],
            queue_depth=0,
        )
        with pytest.raises(RuntimeError, match="sink fault"):
            pipeline.run()
        if one_shot:
            # The generator's chunks 0-3 are spent; renumbering the rest
            # from 0 would skip fresh chunks as duplicates.
            with pytest.raises(ConfigurationError, match="one-shot"):
                pipeline.run()
        else:
            pipeline.run()
            assert np.array_equal(collect.keys(), np.arange(100))


class TestFileSource:
    def test_round_trips_a_stream_file(self, tmp_path):
        keys = _keys(7, 100)
        path = tmp_path / "stream.bin"
        write_stream(path, [keys], 1000)
        envelopes = _collect(FileSource(path, 32))
        assert [e.sequence for e in envelopes] == [0, 1, 2, 3]
        assert np.array_equal(
            np.concatenate([np.asarray(e.keys) for e in envelopes]), keys
        )

    def test_window_and_sequence_start_support_resume(self, tmp_path):
        keys = _keys(8, 60)
        path = tmp_path / "stream.bin"
        write_stream(path, [keys], 1000)
        envelopes = _collect(
            FileSource(path, 10, start=20, limit=25, sequence_start=2)
        )
        assert [e.sequence for e in envelopes] == [2, 3, 4]
        assert np.array_equal(
            np.concatenate([np.asarray(e.keys) for e in envelopes]),
            keys[20:45],
        )

    def test_is_reiterable(self, tmp_path):
        path = tmp_path / "stream.bin"
        write_stream(path, [_keys(9, 16)], 1000)
        source = FileSource(path, 8)
        first = [np.asarray(e.keys) for e in source.envelopes()]
        second = [np.asarray(e.keys) for e in source.envelopes()]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_rejects_negative_sequence_start(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FileSource(tmp_path / "x.bin", 8, sequence_start=-1)

    def test_bad_chunk_size_raises_on_iteration(self, tmp_path):
        path = tmp_path / "stream.bin"
        write_stream(path, [_keys(10, 4)], 1000)
        source = FileSource(path, 0)
        with pytest.raises(ConfigurationError):
            next(source.envelopes())


class TestSocketSource:
    def test_frames_round_trip(self):
        left, right = socket.socketpair()
        chunks = [_keys(11, 5), _keys(12, 3), np.empty(0, dtype=np.int64)]

        def write():
            with left:
                send_frames(left, chunks)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        with right:
            envelopes = _collect(SocketSource(right))
        writer.join(timeout=5.0)
        assert [e.sequence for e in envelopes] == [0, 1, 2]
        assert [e.count for e in envelopes] == [5, 3, 0]
        for chunk, envelope in zip(chunks, envelopes):
            assert np.array_equal(np.asarray(envelope.keys), chunk)

    def test_send_frames_reports_tuples_sent(self):
        left, right = socket.socketpair()
        with left, right:
            sent = send_frames(left, [np.arange(4), np.arange(2)])
        assert sent == 6

    def test_mid_frame_eof_raises(self):
        left, right = socket.socketpair()
        with left:
            # A header promising 100 keys, then only one: the writer dies
            # mid-frame.
            left.sendall((100).to_bytes(8, "little") + (7).to_bytes(8, "little"))
        with right:
            with pytest.raises(StreamIntegrityError):
                list(SocketSource(right).envelopes())

    @pytest.mark.parametrize("count", [1 << 61, MAX_FRAME_KEYS + 1])
    def test_oversized_frame_count_raises_before_reading_payload(self, count):
        left, right = socket.socketpair()
        key = (7).to_bytes(8, "little")
        with left:
            # Only the header and one key are sent: the reader must reject
            # the declared count without asking for its payload.
            left.sendall(count.to_bytes(8, "little") + key)
        with right:
            with pytest.raises(StreamIntegrityError, match="frame limit"):
                list(SocketSource(right).envelopes())
            assert right.recv(16) == key  # the payload was never read
