"""Coordinator guarantees: bit-identity, reproducibility, retries, estimates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, EstimationError, RetryExhaustedError
from repro.kernels import available_backends, use_backend
from repro.parallel import (
    WorkerPool,
    parallel_update,
    run_sharded_sketch,
)
from repro.resilience.chaos import ChaosInjector
from repro.sketches.agms import AgmsSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.fagms import FagmsSketch


def _usable_backends() -> list:
    """Backends that activate on this machine (native may lack a compiler)."""
    usable = []
    for name in available_backends():
        try:
            with use_backend(name):
                pass
        except Exception:
            continue
        usable.append(name)
    return usable


def _templates() -> list:
    return [
        FagmsSketch(64, rows=3, seed=17),
        AgmsSketch(16, seed=17),
        CountMinSketch(64, rows=3, seed=17),
    ]


# ----------------------------------------------------------------------
# The headline guarantee: hash mode is bit-identical to sequential, for
# every sketch type and every kernel backend.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", _usable_backends())
@pytest.mark.parametrize(
    "template", _templates(), ids=lambda t: type(t).__name__
)
def test_hash_mode_bit_identical_to_sequential(skewed_keys, template, backend):
    with use_backend(backend):
        sequential = template.copy_empty()
        sequential.update(skewed_keys)
        result = run_sharded_sketch(skewed_keys, template, shards=4, mode="hash")
        assert np.array_equal(sequential._state(), result.sketch._state())


@pytest.mark.parametrize(
    "template", _templates(), ids=lambda t: type(t).__name__
)
def test_range_mode_bit_identical_without_shedding(skewed_keys, template):
    """At p=1 even range shards add back exactly (integer accumulation)."""
    sequential = template.copy_empty()
    sequential.update(skewed_keys)
    result = run_sharded_sketch(skewed_keys, template, shards=4, mode="range")
    assert np.array_equal(sequential._state(), result.sketch._state())


def test_shard_count_does_not_change_bits(skewed_keys):
    template = FagmsSketch(64, rows=3, seed=17)
    one = run_sharded_sketch(skewed_keys, template, shards=1)
    many = run_sharded_sketch(skewed_keys, template, shards=7)
    assert np.array_equal(one.sketch._state(), many.sketch._state())


def test_process_pool_matches_inline(skewed_keys, process_pool):
    """The process boundary adds nothing: same plan, same bytes."""
    template = FagmsSketch(64, rows=3, seed=17)
    inline = run_sharded_sketch(
        skewed_keys, template, shards=4, p=0.3, seed=99
    )
    pooled = run_sharded_sketch(
        skewed_keys, template, shards=4, p=0.3, seed=99, pool=process_pool
    )
    assert np.array_equal(inline.sketch._state(), pooled.sketch._state())
    assert inline.info() == pooled.info()


# Both transports over a real process boundary.  With shared_memory=False
# every ShardTask / PartialUpdateTask and every result is pickled through
# the pool's pipe, so anything unpicklable placed in a task fails here.
TRANSPORTS = pytest.mark.parametrize(
    "shared_memory", [False, True], ids=["pipe", "shm"]
)


@TRANSPORTS
def test_run_sharded_sketch_over_processes_is_bit_identical(
    skewed_keys, process_pool, shared_memory
):
    sequential = FagmsSketch(64, rows=3, seed=17)
    sequential.update(skewed_keys)
    result = run_sharded_sketch(
        skewed_keys,
        sequential.copy_empty(),
        shards=4,
        pool=process_pool,
        shared_memory=shared_memory,
    )
    assert np.array_equal(sequential._state(), result.sketch._state())


@TRANSPORTS
def test_parallel_update_over_processes_is_bit_identical(
    skewed_keys, process_pool, shared_memory
):
    sequential = FagmsSketch(64, rows=3, seed=17)
    sequential.update(skewed_keys)
    sharded = FagmsSketch(64, rows=3, seed=17)
    parallel_update(
        sharded, skewed_keys, pool=process_pool, shared_memory=shared_memory
    )
    assert np.array_equal(sequential._state(), sharded._state())


# ----------------------------------------------------------------------
# Shedding: reproducibility, independence, estimator correctness
# ----------------------------------------------------------------------


def test_shedding_reproducible_for_fixed_seed(skewed_keys):
    template = FagmsSketch(64, rows=3, seed=17)
    a = run_sharded_sketch(skewed_keys, template, shards=4, p=0.2, seed=5)
    b = run_sharded_sketch(skewed_keys, template, shards=4, p=0.2, seed=5)
    assert np.array_equal(a.sketch._state(), b.sketch._state())
    assert a.sample_sizes().tolist() == b.sample_sizes().tolist()


def test_shard_substreams_are_independent(skewed_keys):
    """Different shards draw different Bernoulli patterns from one root."""
    template = FagmsSketch(64, rows=3, seed=17)
    result = run_sharded_sketch(skewed_keys, template, shards=4, p=0.5, seed=5)
    sizes = result.sample_sizes()
    assert len(set(sizes.tolist())) > 1  # astronomically unlikely to collide


def test_combined_ledger_aggregates_shards(skewed_keys):
    result = run_sharded_sketch(
        skewed_keys, FagmsSketch(64, rows=3, seed=17), shards=4, p=0.25, seed=8
    )
    info = result.info()
    assert info.population_size == skewed_keys.size
    assert info.sample_size == int(result.sample_sizes().sum())
    assert info.probability == pytest.approx(0.25)


def test_self_join_estimate_tracks_truth(skewed_keys):
    truth = float((np.bincount(skewed_keys).astype(np.float64) ** 2).sum())
    template = FagmsSketch(2_048, rows=5, seed=17)
    result = run_sharded_sketch(skewed_keys, template, shards=4, p=0.3, seed=2)
    assert result.self_join_size() == pytest.approx(truth, rel=0.25)


def test_unshedded_estimate_has_no_correction(skewed_keys):
    template = FagmsSketch(2_048, rows=5, seed=17)
    result = run_sharded_sketch(skewed_keys, template, shards=4)
    assert result.self_join_size() == pytest.approx(
        result.sketch.second_moment()
    )


def test_join_size_between_sharded_scans(skewed_keys):
    rng = np.random.default_rng(31)
    other_keys = rng.permutation(skewed_keys)
    template = FagmsSketch(2_048, rows=5, seed=17)
    res_f = run_sharded_sketch(skewed_keys, template, shards=3, p=0.5, seed=1)
    res_g = run_sharded_sketch(other_keys, template, shards=3, p=0.5, seed=2)
    truth = float((np.bincount(skewed_keys).astype(np.float64) ** 2).sum())
    assert res_f.join_size(res_g) == pytest.approx(truth, rel=0.3)


def test_countmin_second_moment_still_raises(skewed_keys):
    result = run_sharded_sketch(
        skewed_keys, CountMinSketch(64, rows=3, seed=17), shards=2
    )
    with pytest.raises(EstimationError):
        result.self_join_size()


def test_shard_sketch_reconstruction(skewed_keys):
    template = FagmsSketch(64, rows=3, seed=17)
    result = run_sharded_sketch(skewed_keys, template, shards=3)
    rebuilt = result.shard_sketch(1)
    assert np.array_equal(rebuilt._state(), result.shard_results[1].counters)
    # Shard sketches merge back to the reduced sketch.
    total = result.shard_sketch(0)
    total.merge(result.shard_sketch(1))
    total.merge(result.shard_sketch(2))
    assert np.array_equal(total._state(), result.sketch._state())


# ----------------------------------------------------------------------
# Failure handling
# ----------------------------------------------------------------------


def test_chaos_killed_workers_resume_bit_identically(tmp_path, skewed_keys):
    template = FagmsSketch(64, rows=3, seed=17)
    baseline = run_sharded_sketch(
        skewed_keys, template, shards=3, p=0.5, seed=7, chunk_size=512
    )
    injector = ChaosInjector(seed=13, crash_rate=0.15, max_faults=3)
    survived = run_sharded_sketch(
        skewed_keys,
        template,
        shards=3,
        p=0.5,
        seed=7,
        chunk_size=512,
        checkpoint_dir=tmp_path,
        checkpoint_every=4,
        max_retries=5,
        injector=injector,
    )
    assert survived.retries > 0
    assert np.array_equal(baseline.sketch._state(), survived.sketch._state())
    assert baseline.info() == survived.info()


def test_retries_exhaust_into_typed_error(skewed_keys):
    injector = ChaosInjector(seed=1, crash_rate=1.0, max_faults=10_000)
    with pytest.raises(RetryExhaustedError):
        run_sharded_sketch(
            skewed_keys,
            FagmsSketch(64, rows=3, seed=17),
            shards=2,
            chunk_size=512,
            max_retries=2,
            injector=injector,
        )


def test_injector_requires_inline_pool(skewed_keys, process_pool):
    with pytest.raises(ConfigurationError):
        run_sharded_sketch(
            skewed_keys,
            FagmsSketch(64, rows=3, seed=17),
            shards=2,
            pool=process_pool,
            injector=ChaosInjector(seed=1, crash_rate=0.5),
        )


def test_rejects_bad_shard_count(skewed_keys):
    with pytest.raises(ConfigurationError):
        run_sharded_sketch(
            skewed_keys, FagmsSketch(64, rows=3, seed=17), shards=0
        )


# ----------------------------------------------------------------------
# parallel_update
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["hash", "range"])
def test_parallel_update_equals_sequential_update(skewed_keys, mode):
    """Chunked parallel_update, sequential update and the sharded scan in
    either shard mode (no shedding) all produce the same counters."""
    direct = FagmsSketch(64, rows=3, seed=17)
    direct.update(skewed_keys)
    sharded = FagmsSketch(64, rows=3, seed=17)
    parallel_update(sharded, skewed_keys, shards=4)
    assert np.array_equal(direct._state(), sharded._state())
    scan = run_sharded_sketch(
        skewed_keys, direct.copy_empty(), shards=4, mode=mode
    )
    assert np.array_equal(sharded._state(), scan.sketch._state())


def test_parallel_update_accumulates(skewed_keys):
    """Repeated parallel updates keep adding, like repeated update calls."""
    direct = FagmsSketch(64, rows=3, seed=17)
    direct.update(skewed_keys)
    direct.update(skewed_keys)
    sharded = FagmsSketch(64, rows=3, seed=17)
    parallel_update(sharded, skewed_keys, shards=3)
    parallel_update(sharded, skewed_keys, shards=5)
    assert np.array_equal(direct._state(), sharded._state())


def test_parallel_update_with_process_pool(skewed_keys, process_pool):
    direct = FagmsSketch(64, rows=3, seed=17)
    direct.update(skewed_keys)
    sharded = FagmsSketch(64, rows=3, seed=17)
    parallel_update(sharded, skewed_keys, pool=process_pool)
    assert np.array_equal(direct._state(), sharded._state())


def test_pool_alone_defaults_shard_count(skewed_keys):
    with WorkerPool(0) as pool:
        sketch = FagmsSketch(64, rows=3, seed=17)
        parallel_update(sketch, skewed_keys, pool=pool)
    direct = FagmsSketch(64, rows=3, seed=17)
    direct.update(skewed_keys)
    assert np.array_equal(direct._state(), sketch._state())
