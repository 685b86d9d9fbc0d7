"""Pool lifecycle and per-shard worker semantics."""

from __future__ import annotations

import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels import backend_name
from repro.parallel import SharedBlock, ShardTask, WorkerPool, run_shard
from repro.parallel.worker import PartialUpdateTask, run_partial_update
from repro.sketches.fagms import FagmsSketch
from repro.sketches.serialization import sketch_header


def _template() -> FagmsSketch:
    return FagmsSketch(128, rows=3, seed=21)


@contextmanager
def _blocks(keys, template):
    """A key block holding *keys* and a one-slot counter block.

    The slot starts as NaN, so a worker that leaves any counter unwritten
    fails the comparison with a plain sketch.
    """
    keys = np.asarray(keys, dtype=np.int64)
    key_block = SharedBlock.create(keys.shape, np.int64)
    counter_block = SharedBlock.create(
        (1,) + template._state().shape, np.float64
    )
    try:
        key_block.array[...] = keys
        counter_block.array[...] = np.nan
        yield key_block, counter_block
    finally:
        key_block.destroy()
        counter_block.destroy()


def _run_shard(keys, **overrides):
    """run_shard over *keys*; returns the result with its slot's counters."""
    template = _template()
    with _blocks(keys, template) as (key_block, counter_block):
        fields = dict(
            index=0,
            header=sketch_header(template),
            shm_keys=key_block.descriptor,
            keys_range=(0, len(keys)),
            shm_counters=counter_block.descriptor,
            slot=0,
            p=0.5,
            seed_entropy=1234,
            seed_spawn_key=(0,),
            chunk_size=256,
        )
        fields.update(overrides)
        result = run_shard(ShardTask(**fields))
        assert result.counters is None
        return replace(result, counters=counter_block.array[0].copy())


def _run_partial_update(keys) -> np.ndarray:
    """run_partial_update over *keys*; returns its slot's counters."""
    template = _template()
    with _blocks(keys, template) as (key_block, counter_block):
        task = PartialUpdateTask(
            index=0,
            header=sketch_header(template),
            shm_keys=key_block.descriptor,
            keys_range=(0, len(keys)),
            shm_counters=counter_block.descriptor,
        )
        assert run_partial_update(task) is None
        return counter_block.array[0].copy()


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


def test_recycle_settles_every_future():
    # One worker sleeps in a task and the executor's call queue holds two
    # more, so the last two stay queued; the caller cancels the fourth.
    # recycle() must still settle the fifth.
    pool = WorkerPool(1)
    try:
        futures = [pool.submit(time.sleep, 30.0) for _ in range(5)]
        assert futures[3].cancel()
        pool.recycle()
        assert all(future.done() for future in futures)
        assert futures[4].cancelled()
        for future in futures[:3]:
            assert future.cancelled() or isinstance(
                future.exception(), BrokenProcessPool
            )
        assert pool.revivals == 1
    finally:
        pool.close()


# ----------------------------------------------------------------------
# run_shard
# ----------------------------------------------------------------------


def test_run_shard_deterministic(skewed_keys):
    a = _run_shard(skewed_keys)
    b = _run_shard(skewed_keys)
    assert np.array_equal(a.counters, b.counters)
    assert (a.seen, a.kept, a.p) == (b.seen, b.kept, b.p)


def test_run_shard_result_ledger(skewed_keys):
    result = _run_shard(skewed_keys)
    assert result.seen == skewed_keys.size
    assert 0 < result.kept < result.seen
    info = result.info()
    assert info.scheme == "bernoulli"
    assert info.population_size == result.seen
    assert info.sample_size == result.kept


def test_run_shard_unshedded_matches_plain_sketch(skewed_keys):
    result = _run_shard(skewed_keys, p=1.0)
    plain = _template()
    plain.update(skewed_keys)
    assert np.array_equal(result.counters, plain.counters)
    assert result.kept == result.seen


# ----------------------------------------------------------------------
# run_partial_update
# ----------------------------------------------------------------------


def test_partial_update_matches_direct_update(skewed_keys):
    counters = _run_partial_update(skewed_keys)
    plain = _template()
    plain.update(skewed_keys)
    assert np.array_equal(counters, plain.counters)


def test_partial_update_empty_shard():
    counters = _run_partial_update(np.empty(0, dtype=np.int64))
    assert not counters.any()
