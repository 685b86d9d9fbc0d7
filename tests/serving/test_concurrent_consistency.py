"""Concurrent ingest + query consistency.

The serving contract under concurrency, asserted end to end:

* **Generation monotonicity** — every reader thread observes a
  non-decreasing sequence of snapshot generations (no time travel, no
  torn publication).
* **Prefix bit-identity** — every estimate served DURING the live scan
  is bit-identical to an offline engine replaying exactly the same
  ``scanned``-tuple prefix of the same key stream with the same seed.
  Serving adds concurrency, not approximation.
* **Set-expression consistency** — expressions served from concurrently
  rotating snapshots match an offline evaluation over the same two
  prefixes, bit for bit.

Ingest runs the way a caller runs it in production: a
:class:`~repro.dataplane.Pipeline` ending in a
:class:`~repro.dataplane.RegistrySink`.  Reader threads are stopped in a
``finally``, so a failing ingest fails the test instead of leaving them
polling for the rest of the session.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.dataplane import IterableSource, Pipeline, RegistrySink
from repro.errors import ConfigurationError, EstimationError
from repro.serving import RotationPolicy, SketchRegistry

BUCKETS, ROWS, SEED = 256, 3, 1234


def paced(chunks, delay=0.002):
    """Yield chunks with a small pause so readers see many generations."""
    for chunk in chunks:
        time.sleep(delay)
        yield chunk


def ingest(registry, name, chunks):
    """Drain *chunks* into one stream through a pipeline, then rotate."""
    Pipeline(
        IterableSource(chunks),
        sinks=[RegistrySink(registry, name)],
        queue_depth=0,
    ).run()


def offline_snapshot(name, keys, total, scanned):
    """A fresh registry replaying exactly *scanned* tuples of *name*."""
    registry = SketchRegistry(buckets=BUCKETS, rows=ROWS, seed=SEED)
    registry.register_stream(name, total)
    if scanned:
        registry.ingest(name, keys[:scanned])
    return registry.snapshot(name)


class Reader(threading.Thread):
    """Polls one stream's snapshot until told to stop."""

    def __init__(self, registry, name, key):
        super().__init__(daemon=True)
        self.registry = registry
        self.stream = name
        self.key = key
        self.generations = []
        self.observations = []  # (scanned, self_join, point)
        self.stop = threading.Event()

    def run(self):
        while not self.stop.is_set():
            snapshot = self.registry.snapshot(self.stream)
            self.generations.append(snapshot.generation)
            scanned = snapshot.scanned_tuples(self.stream)
            if scanned >= 2:
                self.observations.append(
                    (
                        scanned,
                        snapshot.self_join_size(self.stream),
                        snapshot.point_frequency(self.stream, self.key),
                    )
                )


def test_concurrent_readers_see_monotone_bitexact_prefixes():
    total = 8000
    keys = np.random.default_rng(77).integers(0, 300, size=total)
    registry = SketchRegistry(buckets=BUCKETS, rows=ROWS, seed=SEED)
    registry.register_stream("s", total)

    readers = [Reader(registry, "s", key=42) for _ in range(3)]
    for reader in readers:
        reader.start()
    try:
        ingest(registry, "s", paced(np.array_split(keys, 160)))
    finally:
        for reader in readers:
            reader.stop.set()
        for reader in readers:
            reader.join(10.0)
    assert not any(reader.is_alive() for reader in readers)

    # Monotone generations per reader, and real concurrency happened:
    # at least one reader saw several distinct mid-scan snapshots.
    for reader in readers:
        assert reader.generations == sorted(reader.generations)
    distinct = {g for reader in readers for g in reader.generations}
    assert len(distinct) > 5

    # One snapshot per scan position: identical scanned => identical
    # estimates across readers (published snapshots are shared state).
    by_scanned = {}
    for reader in readers:
        for scanned, sj, point in reader.observations:
            by_scanned.setdefault(scanned, set()).add((sj, point))
    assert all(len(values) == 1 for values in by_scanned.values())

    # Bit-identity against offline replay of the same prefix.  The
    # replay consumes each prefix in ONE chunk — counter updates are
    # exact integer adds in float64, so chunking cannot matter.
    for scanned in sorted(by_scanned):
        served_sj, served_point = next(iter(by_scanned[scanned]))
        offline = offline_snapshot("s", keys, total, scanned)
        assert served_sj == offline.self_join_size("s")
        assert served_point == offline.point_frequency("s", 42)


def test_expressions_match_merged_offline_evaluation():
    total_a, total_b = 6000, 5000
    rng = np.random.default_rng(5)
    keys_a = rng.integers(0, 400, size=total_a)
    keys_b = rng.integers(200, 600, size=total_b)

    registry = SketchRegistry(
        buckets=BUCKETS,
        rows=ROWS,
        seed=SEED,
        policy=RotationPolicy(every_chunks=2),
    )
    registry.register_stream("a", total_a)
    registry.register_stream("b", total_b)

    observed = []
    stop = threading.Event()

    def query_loop():
        while not stop.is_set():
            try:
                result = registry.expression_query("union", ["a", "b"])
            except (ConfigurationError, EstimationError):
                continue  # a stream is still too short — keep polling
            meta = {m.name: m.scanned for m in result.streams}
            observed.append((meta["a"], meta["b"], result.estimate))

    threads = [threading.Thread(target=query_loop, daemon=True) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            scans = [
                pool.submit(ingest, registry, "a", paced(np.array_split(keys_a, 120))),
                pool.submit(ingest, registry, "b", paced(np.array_split(keys_b, 100))),
            ]
            for scan in scans:
                scan.result()  # re-raises an ingest failure here
    finally:
        stop.set()
        for thread in threads:
            thread.join(10.0)
    assert not any(thread.is_alive() for thread in threads)

    unique = sorted(set(observed))
    assert unique, "readers never caught a queryable snapshot pair"
    # Replaying every pair is wasteful; a spread of ~12 pairs (always
    # including the first and last) covers early, mid, and final scans.
    step = max(1, len(unique) // 12)
    sampled = unique[::step] + [unique[-1]]
    for scanned_a, scanned_b, served in sampled:
        offline = SketchRegistry(buckets=BUCKETS, rows=ROWS, seed=SEED)
        offline.register_stream("a", total_a)
        offline.register_stream("b", total_b)
        offline.ingest("a", keys_a[:scanned_a])
        offline.ingest("b", keys_b[:scanned_b])
        assert served == offline.expression_query("union", ["a", "b"]).estimate
