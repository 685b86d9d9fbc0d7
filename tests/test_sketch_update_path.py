"""``Sketch.update`` runs a cached one-entry fused plan.

Two contracts:

* **Reference.**  Every sketch's ``update`` leaves its counters
  bit-identical to the separate-path primitives of the same backend
  (``bucket_indices`` / ``parity_signs`` / the scatter and sign
  reductions), replayed entry by entry through the base-class seam
  method ``KernelBackend.fused_update``.  ``tests/test_fused_kernels.py``
  compares ``fused_update`` with ``update``, which now share one path;
  this file keeps an independent reference for both.
* **Plan lifetime.**  The cached plan (raw C pointers on the native
  backend) belongs to one sketch instance: rebinding the counter storage
  drops it, clones never share it, and pickle / ``copy.deepcopy`` never
  carry it.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.errors import DomainError
from repro.kernels import (
    KernelBackend,
    available_backends,
    get_backend,
    make_fused_plan,
    use_backend,
)
from repro.sketches import AgmsSketch, CountMinSketch, FagmsSketch


def _usable_backends() -> list:
    usable = []
    for name in available_backends():
        try:
            with use_backend(name):
                pass
        except Exception:
            continue
        usable.append(name)
    return usable


BACKENDS = _usable_backends()

SKETCHES = {
    "agms-fourwise": lambda: AgmsSketch(7, seed=21),
    "agms-eh3": lambda: AgmsSketch(7, seed=21, sign_family="eh3"),
    "fagms-fourwise": lambda: FagmsSketch(96, rows=3, seed=21),
    "fagms-eh3": lambda: FagmsSketch(96, rows=3, seed=21, sign_family="eh3"),
    "countmin": lambda: CountMinSketch(96, rows=3, seed=21),
}


def _chunks(n: int, dtype, weighted: bool) -> list:
    """Two chunks, so the second update runs the already-cached plan."""
    rng = np.random.default_rng(n)
    chunks = []
    for _ in range(2):
        keys = rng.integers(0, 2**31 - 1, size=n).astype(dtype)
        weights = rng.standard_normal(n) if weighted else None
        chunks.append((keys, weights))
    return chunks


def _replay(sketch, keys, weights) -> None:
    """The separate-path primitives of the active backend, entry by entry."""
    plan = make_fused_plan([sketch])
    KernelBackend.fused_update(get_backend(), plan, keys.astype(np.uint64), weights)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", sorted(SKETCHES))
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("n", [1, 2048, 40_000])
def test_update_matches_replayed_primitives(backend, kind, weighted, dtype, n):
    with use_backend(backend):
        sketch = SKETCHES[kind]()
        reference = sketch.copy_empty()
        for keys, weights in _chunks(n, dtype, weighted):
            sketch.update(keys, weights)
            _replay(reference, keys, weights)
        assert np.array_equal(sketch._state(), reference._state())
        assert sketch._state().any()


@pytest.mark.parametrize("backend", BACKENDS)
def test_eh3_agms_keeps_the_sign_family_key_domain(backend):
    """EH3 takes keys below 2**31, one more than the polynomial families."""
    with use_backend(backend):
        sketch = SKETCHES["agms-eh3"]()
        reference = sketch.copy_empty()
        top = np.array([2**31 - 1], dtype=np.int64)
        sketch.update(top)
        _replay(reference, top, None)
        assert np.array_equal(sketch._state(), reference._state())
        with pytest.raises(DomainError):
            sketch.update(np.array([2**31], dtype=np.int64))


# ----------------------------------------------------------------------
# Plan lifetime
# ----------------------------------------------------------------------

LIFETIME_KINDS = ["agms-fourwise", "fagms-fourwise", "countmin"]


def _keys(seed: int, n: int = 512) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 10_000, size=n)


def _expected(factory, *chunks) -> np.ndarray:
    """Counters of a fresh sketch fed *chunks* in order."""
    sketch = factory()
    for keys in chunks:
        sketch.update(keys)
    return sketch._state()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", LIFETIME_KINDS)
def test_bind_state_redirects_the_next_update(backend, kind):
    factory = SKETCHES[kind]
    with use_backend(backend):
        sketch = factory()
        sketch.update(_keys(1))
        old = sketch._state()
        frozen_old = old.copy()
        new = np.zeros_like(old)
        sketch._bind_state(new)
        sketch.update(_keys(2))
        assert sketch._state() is new
        assert np.array_equal(old, frozen_old)
        assert np.array_equal(new, _expected(factory, _keys(1), _keys(2)))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", LIFETIME_KINDS)
def test_clones_write_only_their_own_counters(backend, kind):
    factory = SKETCHES[kind]
    with use_backend(backend):
        sketch = factory()
        sketch.update(_keys(1))
        empty = sketch.copy_empty()
        full = sketch.copy()
        empty.update(_keys(2))
        full.update(_keys(3))
        sketch.update(_keys(4))
        assert np.array_equal(sketch._state(), _expected(factory, _keys(1), _keys(4)))
        assert np.array_equal(empty._state(), _expected(factory, _keys(2)))
        assert np.array_equal(full._state(), _expected(factory, _keys(1), _keys(3)))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", LIFETIME_KINDS)
@pytest.mark.parametrize(
    "duplicate",
    [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_copies_of_an_updated_sketch_are_independent(backend, kind, duplicate):
    factory = SKETCHES[kind]
    with use_backend(backend):
        sketch = factory()
        sketch.update(_keys(1))  # builds and caches the plan
        before = sketch._state().copy()
        twin = duplicate(sketch)
        twin.update(_keys(2))
        assert np.array_equal(sketch._state(), before)
        assert np.array_equal(twin._state(), _expected(factory, _keys(1), _keys(2)))
        sketch.update(_keys(3))
        assert np.array_equal(sketch._state(), _expected(factory, _keys(1), _keys(3)))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", LIFETIME_KINDS)
def test_read_only_counters_reject_updates(backend, kind):
    """A sketch over frozen counters (a snapshot view) raises, never writes."""
    with use_backend(backend):
        sketch = SKETCHES[kind]()
        frozen = np.zeros_like(sketch._state())
        frozen.flags.writeable = False
        sketch._adopt_state(frozen)
        with pytest.raises(ValueError):
            sketch.update(_keys(1))
        assert not frozen.any()
