"""Sketch save/load: exact state round-trip and family compatibility."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sketches import (
    AgmsSketch,
    CountMinSketch,
    FagmsSketch,
    load_sketch,
    save_sketch,
)

FACTORIES = [
    lambda seed: AgmsSketch(rows=6, seed=seed, combine="median-of-means", groups=3),
    lambda seed: AgmsSketch(rows=4, seed=seed, sign_family="eh3"),
    lambda seed: FagmsSketch(buckets=32, rows=2, seed=seed),
    lambda seed: CountMinSketch(buckets=16, rows=3, seed=seed),
]


@pytest.mark.parametrize("factory", FACTORIES)
def test_round_trip_preserves_state_and_estimates(factory, tmp_path, rng):
    sketch = factory(123)
    sketch.update(rng.integers(0, 100, size=500))
    path = tmp_path / "sketch.npz"
    save_sketch(sketch, path)
    loaded = load_sketch(path)
    assert type(loaded) is type(sketch)
    assert np.array_equal(loaded._state(), sketch._state())
    assert loaded.seed_id == sketch.seed_id


@pytest.mark.parametrize("factory", FACTORIES)
def test_loaded_sketch_has_same_families(factory, tmp_path, rng):
    """Updating original and loaded sketch with new data stays identical —
    proving the hash/ξ families were reconstructed, not just the state."""
    sketch = factory(7)
    path = tmp_path / "sketch.npz"
    save_sketch(sketch, path)
    loaded = load_sketch(path)
    fresh_keys = rng.integers(0, 100, size=300)
    sketch.update(fresh_keys)
    loaded.update(fresh_keys)
    assert np.array_equal(loaded._state(), sketch._state())


def test_distributed_merge_through_files(tmp_path, rng):
    """Two sites sketch partitions, a coordinator merges the files."""
    site_a = FagmsSketch(buckets=64, rows=2, seed=99)
    site_b = site_a.copy_empty()
    part_a = rng.integers(0, 200, size=1000)
    part_b = rng.integers(0, 200, size=1000)
    site_a.update(part_a)
    site_b.update(part_b)
    save_sketch(site_a, tmp_path / "a.npz")
    save_sketch(site_b, tmp_path / "b.npz")

    merged = load_sketch(tmp_path / "a.npz")
    merged.merge(load_sketch(tmp_path / "b.npz"))
    reference = FagmsSketch(buckets=64, rows=2, seed=99)
    reference.update(np.concatenate([part_a, part_b]))
    assert np.allclose(merged._state(), reference._state())


def test_spawned_seed_round_trip(tmp_path):
    """Sketches seeded with spawned SeedSequences reload correctly too."""
    child = np.random.SeedSequence(5).spawn(3)[2]
    sketch = FagmsSketch(buckets=16, rows=1, seed=child)
    sketch.update(np.arange(50))
    save_sketch(sketch, tmp_path / "s.npz")
    loaded = load_sketch(tmp_path / "s.npz")
    loaded2 = FagmsSketch(
        buckets=16, rows=1, seed=np.random.SeedSequence(5).spawn(3)[2]
    )
    loaded2.update(np.arange(50))
    assert np.array_equal(loaded._state(), sketch._state())
    assert np.array_equal(loaded2._state(), sketch._state())
    assert loaded.seed_id == sketch.seed_id


def test_load_rejects_corrupt_header(tmp_path):
    sketch = AgmsSketch(rows=2, seed=1)
    path = tmp_path / "s.npz"
    save_sketch(sketch, path)
    import json

    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        counters = data["counters"]
    header["type"] = "MysterySketch"
    np.savez(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        counters=counters,
    )
    with pytest.raises(ConfigurationError):
        load_sketch(path)

    header["type"] = "AgmsSketch"
    header["version"] = 999
    np.savez(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        counters=counters,
    )
    with pytest.raises(ConfigurationError):
        load_sketch(path)


def test_load_raises_serialization_error_on_garbage_file(tmp_path):
    from repro.errors import SerializationError

    path = tmp_path / "garbage.npz"
    path.write_bytes(b"this is not an npz archive")
    with pytest.raises(SerializationError):
        load_sketch(path)


def test_load_raises_serialization_error_on_truncated_file(tmp_path):
    import gc
    import warnings

    from repro.errors import SerializationError

    sketch = FagmsSketch(buckets=16, seed=3)
    path = tmp_path / "s.npz"
    save_sketch(sketch, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 3])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(SerializationError):
            load_sketch(path)
        gc.collect()
    # The file is closed, not left to the garbage collector.
    leaks = [w for w in caught if w.category is ResourceWarning]
    assert [str(w.message) for w in leaks] == []


def test_load_rejects_counter_shape_mismatch(tmp_path):
    import json

    from repro.errors import SerializationError

    sketch = FagmsSketch(buckets=16, rows=2, seed=3)
    path = tmp_path / "s.npz"
    save_sketch(sketch, path)
    with np.load(path) as data:
        header = bytes(data["header"])
        counters = data["counters"]
    np.savez(path, header=np.frombuffer(header, dtype=np.uint8),
             counters=counters[:, :8])
    with pytest.raises(SerializationError, match="shape"):
        load_sketch(path)
    json.loads(header.decode())  # header itself is still well-formed


def test_load_rejects_missing_header_fields(tmp_path):
    import json

    from repro.errors import SerializationError

    sketch = FagmsSketch(buckets=16, seed=3)
    path = tmp_path / "s.npz"
    save_sketch(sketch, path)
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        counters = data["counters"]
    del header["rows"]
    np.savez(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        counters=counters,
    )
    with pytest.raises(SerializationError, match="rows"):
        load_sketch(path)


def test_load_rejects_complex_counters(tmp_path):
    import json

    from repro.errors import SerializationError

    sketch = FagmsSketch(buckets=16, seed=3)
    path = tmp_path / "s.npz"
    save_sketch(sketch, path)
    with np.load(path) as data:
        header = bytes(data["header"])
        counters = data["counters"]
    np.savez(
        path,
        header=np.frombuffer(header, dtype=np.uint8),
        counters=counters.astype(np.complex128),
    )
    with pytest.raises(SerializationError, match="dtype"):
        load_sketch(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_rejects_non_finite_counters(tmp_path, bad):
    from repro.errors import SerializationError

    sketch = FagmsSketch(buckets=16, seed=3)
    path = tmp_path / "s.npz"
    save_sketch(sketch, path)
    with np.load(path) as data:
        header = bytes(data["header"])
        counters = data["counters"].copy()
    counters[0, 5] = bad
    np.savez(path, header=np.frombuffer(header, dtype=np.uint8), counters=counters)
    with pytest.raises(SerializationError, match="finite"):
        load_sketch(path)


def test_serialization_error_is_a_configuration_error():
    from repro.errors import SerializationError

    assert issubclass(SerializationError, ConfigurationError)
