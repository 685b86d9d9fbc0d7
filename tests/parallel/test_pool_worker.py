"""Pool lifecycle and per-shard worker semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels import backend_name
from repro.parallel import ShardTask, WorkerPool, run_shard
from repro.parallel.worker import PartialUpdateTask, run_partial_update
from repro.sketches.fagms import FagmsSketch
from repro.sketches.serialization import sketch_header


def _task(keys, **overrides) -> ShardTask:
    template = FagmsSketch(128, rows=3, seed=21)
    fields = dict(
        index=0,
        keys=np.asarray(keys, dtype=np.int64),
        header=sketch_header(template),
        p=0.5,
        seed_entropy=1234,
        seed_spawn_key=(0,),
        chunk_size=256,
    )
    fields.update(overrides)
    return ShardTask(**fields)


# ----------------------------------------------------------------------
# WorkerPool
# ----------------------------------------------------------------------


def test_pool_rejects_negative_workers():
    with pytest.raises(ConfigurationError):
        WorkerPool(-1)


def test_inline_pool_runs_synchronously(inline_pool):
    assert inline_pool.inline
    assert inline_pool.submit(len, [1, 2, 3]).result() == 3


def test_inline_pool_propagates_errors(inline_pool):
    future = inline_pool.submit(int, "not a number")
    with pytest.raises(ValueError):
        future.result()


def test_pool_map_preserves_order(inline_pool):
    assert inline_pool.map(abs, [-3, 1, -2]) == [3, 1, 2]


def test_process_pool_executes_remotely(process_pool):
    assert not process_pool.inline
    assert process_pool.workers >= 1
    assert process_pool.map(abs, [-5, -6]) == [5, 6]


def test_process_pool_pins_backend(process_pool):
    results = process_pool.map(_report_backend, range(process_pool.workers))
    assert set(results) == {process_pool.backend}


def _report_backend(_index):
    return backend_name()


def test_pool_close_is_idempotent():
    pool = WorkerPool(0)
    pool.close()
    pool.close()
    assert pool.inline


def test_inline_pool_recycle_is_a_no_op(inline_pool):
    inline_pool.recycle()
    assert inline_pool.inline
    assert inline_pool.revivals == 0


# ----------------------------------------------------------------------
# run_shard
# ----------------------------------------------------------------------


def test_run_shard_deterministic(skewed_keys):
    a = run_shard(_task(skewed_keys))
    b = run_shard(_task(skewed_keys))
    assert np.array_equal(a.counters, b.counters)
    assert (a.seen, a.kept, a.p) == (b.seen, b.kept, b.p)


def test_run_shard_result_ledger(skewed_keys):
    result = run_shard(_task(skewed_keys))
    assert result.seen == skewed_keys.size
    assert 0 < result.kept < result.seen
    info = result.info()
    assert info.scheme == "bernoulli"
    assert info.population_size == result.seen
    assert info.sample_size == result.kept


def test_run_shard_unshedded_matches_plain_sketch(skewed_keys):
    result = run_shard(_task(skewed_keys, p=1.0))
    plain = FagmsSketch(128, rows=3, seed=21)
    plain.update(skewed_keys)
    assert np.array_equal(result.counters, plain.counters)
    assert result.kept == result.seen


# ----------------------------------------------------------------------
# run_partial_update
# ----------------------------------------------------------------------


def test_partial_update_matches_direct_update(skewed_keys):
    template = FagmsSketch(128, rows=3, seed=21)
    counters = run_partial_update(
        PartialUpdateTask(index=0, keys=skewed_keys, header=sketch_header(template))
    )
    plain = template.copy_empty()
    plain.update(skewed_keys)
    assert np.array_equal(counters, plain.counters)


def test_partial_update_empty_shard():
    template = FagmsSketch(64, rows=2, seed=4)
    counters = run_partial_update(
        PartialUpdateTask(
            index=0,
            keys=np.empty(0, dtype=np.int64),
            header=sketch_header(template),
        )
    )
    assert not counters.any()
