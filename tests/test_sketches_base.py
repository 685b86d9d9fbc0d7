"""Shared Sketch-interface behaviors across all sketch types."""

import numpy as np
import pytest

from repro.errors import DomainError, IncompatibleSketchError
from repro.frequency import FrequencyVector
from repro.sketches import (
    AgmsSketch,
    CountMinSketch,
    FagmsSketch,
    join_size,
    self_join_size,
)

FACTORIES = [
    lambda seed: AgmsSketch(rows=5, seed=seed),
    lambda seed: FagmsSketch(buckets=16, rows=2, seed=seed),
    lambda seed: CountMinSketch(buckets=16, rows=2, seed=seed),
]

IDS = ["agms", "fagms", "countmin"]


@pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
class TestSharedBehavior:
    def test_update_one_equals_batch(self, factory):
        a = factory(1)
        b = a.copy_empty()
        a.update_one(3)
        a.update_one(3, weight=2.0)
        b.update(np.array([3, 3]), np.array([1.0, 2.0]))
        assert np.allclose(a._state(), b._state())

    def test_update_rejects_bad_inputs(self, factory):
        sketch = factory(1)
        with pytest.raises(DomainError):
            sketch.update(np.ones((2, 2), dtype=np.int64))
        with pytest.raises(DomainError):
            sketch.update(np.array([1.5]))
        with pytest.raises(DomainError):
            sketch.update(np.array([1, 2]), np.array([1.0]))
        with pytest.raises(DomainError):
            sketch.update(np.array([], np.int64), np.array([1.0]))

    def test_clear(self, factory):
        sketch = factory(1)
        sketch.update(np.array([1, 2, 3]))
        sketch.clear()
        assert np.allclose(sketch._state(), 0.0)

    def test_copy_is_independent(self, factory):
        sketch = factory(1)
        sketch.update(np.array([1, 2]))
        clone = sketch.copy()
        clone.update(np.array([3]))
        assert not np.allclose(sketch._state(), clone._state())
        assert sketch.seed_id == clone.seed_id

    def test_update_frequency_vector_empty(self, factory):
        sketch = factory(1)
        sketch.update_frequency_vector(FrequencyVector.zeros(8))
        assert np.allclose(sketch._state(), 0.0)

    def test_merge_after_clear_is_identity(self, factory):
        a = factory(2)
        b = a.copy_empty()
        a.update(np.array([5, 6, 7]))
        before = a._state().copy()
        a.merge(b)  # merging an empty sketch changes nothing
        assert np.allclose(a._state(), before)

    def test_seed_entropy_recorded(self, factory):
        sketch = factory(77)
        assert sketch.seed_entropy == 77
        assert sketch.seed_spawn_key == ()

    def test_repr_mentions_class(self, factory):
        sketch = factory(1)
        assert type(sketch).__name__ in repr(sketch)


def test_free_function_wrappers():
    fv = FrequencyVector([3, 1, 0, 2])
    a = AgmsSketch(rows=500, seed=9)
    b = a.copy_empty()
    a.update_frequency_vector(fv)
    b.update_frequency_vector(fv)
    assert join_size(a, b) == pytest.approx(a.inner_product(b))
    assert self_join_size(a) == pytest.approx(a.second_moment())


def test_cross_type_merge_rejected():
    agms = AgmsSketch(rows=2, seed=1)
    fagms = FagmsSketch(buckets=2, rows=1, seed=1)
    with pytest.raises(IncompatibleSketchError):
        agms.merge(fagms)
