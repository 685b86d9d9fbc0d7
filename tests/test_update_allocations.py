"""The numpy update path's working set: bounded, and private to each thread.

``NumpyKernelBackend.fused_update`` (every ``Sketch.update``) runs a
chunk in key blocks inside a workspace owned by the calling thread.
Three contracts:

* **Bounded transient.**  After warm-up, an update's transient
  allocation does not grow with the chunk: a 40,000-key update peaks
  within 1.5× of a 4,096-key one, weighted and unweighted.  Measured with
  ``tracemalloc``, which sees numpy's buffers and, unlike page-fault
  counts, does not depend on the allocator.
* **Nothing retained per plan.**  Updating 50 distinct sketches once each
  keeps less than 1 MiB beyond their counters.
* **Per-thread workspaces.**  Writer threads updating their own sketches
  concurrently, with unpaced multi-block chunks, end bit-identical to
  serial updates.  numpy releases the GIL inside its loops, so a
  workspace shared across threads would corrupt counters.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.kernels import use_backend
from repro.sketches import AgmsSketch, CountMinSketch, FagmsSketch

WEIGHTING = pytest.mark.parametrize(
    "weighted", [False, True], ids=["unweighted", "weighted"]
)


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _chunk(seed: int, n: int, weighted: bool) -> tuple:
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 10**6, size=n)
    return keys, (rng.standard_normal(n) if weighted else None)


def _transient_peak(sketch, keys, weights) -> int:
    """Peak bytes one update holds beyond what was live before it."""
    live = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    sketch.update(keys, weights)
    return tracemalloc.get_traced_memory()[1] - live


@WEIGHTING
def test_transient_peak_does_not_grow_with_the_chunk(traced, weighted):
    small = _chunk(1, 4_096, weighted)
    large = _chunk(2, 40_000, weighted)
    with use_backend("numpy"):
        sketch = FagmsSketch(4096, rows=5, seed=3)
        for _ in range(2):  # build the plan and grow this thread's workspace
            sketch.update(*small)
            sketch.update(*large)
        small_peak = _transient_peak(sketch, *small)
        large_peak = _transient_peak(sketch, *large)
    assert large_peak <= 1.5 * small_peak, (small_peak, large_peak)


@WEIGHTING
def test_many_sketches_retain_no_workspace(traced, weighted):
    keys, weights = _chunk(4, 4_096, weighted)
    with use_backend("numpy"):
        FagmsSketch(4096, rows=5, seed=0).update(keys, weights)
        live = tracemalloc.get_traced_memory()[0]
        sketches = [FagmsSketch(4096, rows=5, seed=seed) for seed in range(1, 51)]
        for sketch in sketches:
            sketch.update(keys, weights)
        retained = tracemalloc.get_traced_memory()[0] - live
    counters = sum(sketch.counters.nbytes for sketch in sketches)
    assert retained - counters < 2**20, (retained, counters)


WRITER_SKETCHES = [
    lambda seed: FagmsSketch(4096, rows=5, seed=seed),
    lambda seed: CountMinSketch(1000, rows=3, seed=seed),
    lambda seed: AgmsSketch(7, seed=seed),
    lambda seed: FagmsSketch(96, rows=2, seed=seed),
]
#: More writers than a CI runner has cores, so threads interleave.
WRITERS = 6
CHUNKS = 6


def _writer_chunks(writer: int) -> list:
    """Unpaced multi-block chunks, alternating unweighted and weighted."""
    return [
        _chunk(100 * writer + i, 40_000, weighted=bool(i % 2))
        for i in range(CHUNKS)
    ]


def test_concurrent_writers_match_serial_updates():
    factories = [WRITER_SKETCHES[w % len(WRITER_SKETCHES)] for w in range(WRITERS)]
    chunks = [_writer_chunks(w) for w in range(WRITERS)]
    start = threading.Barrier(WRITERS, timeout=30)
    errors = []

    def write(sketch, writer_chunks):
        try:
            start.wait()
            for keys, weights in writer_chunks:
                sketch.update(keys, weights)
        except Exception as exc:  # reported below, after the join
            errors.append(exc)

    with use_backend("numpy"):
        concurrent = [factory(seed) for seed, factory in enumerate(factories)]
        threads = [
            threading.Thread(target=write, args=(sketch, writer_chunks))
            for sketch, writer_chunks in zip(concurrent, chunks)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

        for seed, (factory, writer_chunks) in enumerate(zip(factories, chunks)):
            serial = factory(seed)
            for keys, weights in writer_chunks:
                serial.update(keys, weights)
            assert np.array_equal(concurrent[seed]._state(), serial._state()), seed
