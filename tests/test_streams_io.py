"""File-backed stream round trips and guards."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DomainError
from repro.streams import zipf_relation
from repro.streams.io import (
    read_stream,
    stream_domain_size,
    stream_length,
    stream_to_relation,
    write_stream,
)


@pytest.fixture
def stream_file(tmp_path):
    return tmp_path / "keys.rprs"


def test_round_trip(stream_file):
    relation = zipf_relation(10_000, 500, 1.0, seed=1)
    written = write_stream(stream_file, relation.chunks(1_000), 500)
    assert written == 10_000
    assert stream_domain_size(stream_file) == 500
    assert stream_length(stream_file) == 10_000
    back = stream_to_relation(stream_file)
    assert np.array_equal(back.keys, relation.keys)
    assert back.domain_size == 500


def test_chunked_read_boundaries(stream_file):
    keys = np.arange(1000) % 97
    write_stream(stream_file, [keys], 97)
    chunks = list(read_stream(stream_file, chunk_size=333))
    assert [c.size for c in chunks] == [333, 333, 333, 1]
    assert np.array_equal(np.concatenate(chunks), keys)


def test_empty_stream(stream_file):
    write_stream(stream_file, [], 10)
    assert stream_length(stream_file) == 0
    assert list(read_stream(stream_file)) == []
    relation = stream_to_relation(stream_file)
    assert len(relation) == 0
    assert relation.domain_size == 10


def test_append(stream_file):
    write_stream(stream_file, [np.array([1, 2])], 10)
    write_stream(stream_file, [np.array([3])], 10, append=True)
    assert stream_length(stream_file) == 3
    assert np.array_equal(stream_to_relation(stream_file).keys, [1, 2, 3])


def test_append_domain_mismatch(stream_file):
    write_stream(stream_file, [np.array([1])], 10)
    with pytest.raises(DomainError):
        write_stream(stream_file, [np.array([1])], 20, append=True)


def test_out_of_domain_keys_rejected(stream_file):
    with pytest.raises(DomainError):
        write_stream(stream_file, [np.array([10])], 10)
    with pytest.raises(DomainError):
        write_stream(stream_file, [np.array([-1])], 10)


def test_bad_header_detected(tmp_path):
    bogus = tmp_path / "not_a_stream.bin"
    bogus.write_bytes(b"GARBAGEGARBAGE")
    with pytest.raises(ConfigurationError):
        stream_length(bogus)
    with pytest.raises(ConfigurationError):
        list(read_stream(bogus))


def test_truncated_payload_detected(stream_file):
    write_stream(stream_file, [np.array([1, 2, 3])], 10)
    raw = stream_file.read_bytes()
    stream_file.write_bytes(raw[:-3])  # cut mid-key
    with pytest.raises(ConfigurationError):
        stream_length(stream_file)


def test_max_tuples_guard(stream_file):
    write_stream(stream_file, [np.arange(100)], 100)
    with pytest.raises(ConfigurationError):
        stream_to_relation(stream_file, max_tuples=50)
    relation = stream_to_relation(stream_file, max_tuples=100)
    assert len(relation) == 100


def test_streaming_consumption_feeds_sketch(stream_file):
    """End to end: spill to disk, re-stream through a shedding sketcher."""
    from repro.resilience import AdaptiveSheddingSketcher
    from repro.sketches import FagmsSketch

    relation = zipf_relation(20_000, 1_000, 1.0, seed=2)
    write_stream(stream_file, relation.chunks(4_096), 1_000)
    sketcher = AdaptiveSheddingSketcher(FagmsSketch(1_024, seed=3), p=0.2, seed=4)
    for chunk in read_stream(stream_file, chunk_size=4_096):
        sketcher.process(chunk)
    truth = relation.self_join_size()
    assert sketcher.self_join_size() == pytest.approx(truth, rel=0.35)
