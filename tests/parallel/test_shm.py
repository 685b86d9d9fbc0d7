"""Shared-memory transport: block lifecycle, leak-freedom, bit-identity.

The contract under test (see ``src/repro/parallel/shm.py``): every
segment the coordinator creates is destroyed in a ``finally`` — after a
normal run, after a worker dies to SIGKILL mid-task, and after retries
exhaust into :class:`~repro.errors.RetryExhaustedError` — so no code path
leaves an entry behind in ``/dev/shm``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, RetryExhaustedError
from repro.parallel import (
    SharedBlock,
    WorkerPool,
    merge_tree,
    parallel_update,
    reduce_counter_tree,
    run_sharded_sketch,
)
from repro.resilience.chaos import ChaosShardWorker, ParallelChaosPlan, WorkerFault
from repro.sketches.fagms import FagmsSketch


def _shm_entries() -> list:
    """Current ``/dev/shm`` names (empty list where the OS has none)."""
    try:
        return sorted(os.listdir("/dev/shm"))
    except (FileNotFoundError, NotADirectoryError):
        return []


@pytest.fixture
def shm_ledger():
    """Snapshot ``/dev/shm`` and assert it is unchanged after the test."""
    before = _shm_entries()
    yield
    leaked = set(_shm_entries()) - set(before)
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _kill_worker(task, **kwargs):
    """A shard 'worker' that dies like a segfaulting process would."""
    os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# SharedBlock unit behavior
# ----------------------------------------------------------------------


def test_block_roundtrip_through_descriptor(shm_ledger):
    block = SharedBlock.create((3, 4), np.float64)
    try:
        assert not block.array.any()  # created zero-filled
        block.array[...] = np.arange(12, dtype=np.float64).reshape(3, 4)
        attached = SharedBlock.attach(block.descriptor)
        try:
            assert np.array_equal(attached.array, block.array)
            attached.array[1, 2] = -5.0
            assert block.array[1, 2] == -5.0  # same physical memory
        finally:
            attached.close()
    finally:
        block.destroy()


def test_block_descriptor_is_plain_data(shm_ledger):
    block = SharedBlock.create((8,), np.int64)
    try:
        name, shape, dtype = block.descriptor
        assert isinstance(name, str)
        assert shape == (8,)
        assert np.dtype(dtype) == np.int64
    finally:
        block.destroy()


def test_block_itself_refuses_to_pickle(shm_ledger):
    import pickle

    block = SharedBlock.create((4,), np.float64)
    try:
        with pytest.raises(TypeError):
            pickle.dumps(block)
    finally:
        block.destroy()


def test_close_and_destroy_are_idempotent(shm_ledger):
    block = SharedBlock.create((4,), np.float64)
    block.destroy()
    block.destroy()
    block.close()
    with pytest.raises(ConfigurationError):
        block.array


def test_close_survives_a_live_view(shm_ledger):
    block = SharedBlock.create((16,), np.float64)
    view = block.array
    block.destroy()  # BufferError from the live view is swallowed
    assert view.size == 16  # the mapping outlives the name until GC


# ----------------------------------------------------------------------
# reduce_counter_tree ≡ merge_tree
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2, 3, 5, 8])
def test_reduce_counter_tree_matches_merge_tree(shards):
    """Same pairing at every level — bit-identical floats, odd counts too."""
    rng = np.random.default_rng(shards)
    sketches = []
    for _ in range(shards):
        sketch = FagmsSketch(32, rows=3, seed=11)
        sketch.update(
            rng.integers(0, 500, size=1_000),
            rng.standard_normal(1_000),  # float weights: association matters
        )
        sketches.append(sketch)
    stack = np.stack([sketch._state() for sketch in sketches])
    assert np.array_equal(
        reduce_counter_tree(stack), merge_tree(sketches)._state()
    )


def test_reduce_counter_tree_rejects_empty():
    with pytest.raises(ConfigurationError):
        reduce_counter_tree(np.empty((0, 3)))


def test_reduce_counter_tree_does_not_mutate_input():
    stack = np.arange(12, dtype=np.float64).reshape(4, 3)
    original = stack.copy()
    reduce_counter_tree(stack)
    assert np.array_equal(stack, original)


# ----------------------------------------------------------------------
# Normal-exit lifecycle: segments unlinked, results bit-identical
# ----------------------------------------------------------------------


def test_sharded_scan_over_processes_leaves_no_segments(
    shm_ledger, process_pool, skewed_keys
):
    template = FagmsSketch(64, rows=3, seed=17)
    sequential = template.copy_empty()
    sequential.update(skewed_keys)
    result = run_sharded_sketch(skewed_keys, template, shards=4, pool=process_pool)
    assert np.array_equal(sequential._state(), result.sketch._state())
    # Counters were backfilled from the block before it was destroyed.
    merged = result.shard_results[0].counters.copy()
    for shard in result.shard_results[1:]:
        assert shard.counters is not None
        merged += shard.counters
    assert np.allclose(merged, result.sketch._state())


def test_parallel_update_over_processes_leaves_no_segments(
    shm_ledger, process_pool, skewed_keys
):
    direct = FagmsSketch(64, rows=3, seed=17)
    direct.update(skewed_keys)
    sharded = FagmsSketch(64, rows=3, seed=17)
    parallel_update(sharded, skewed_keys, pool=process_pool, chunk_size=4_096)
    assert np.array_equal(direct._state(), sharded._state())


def test_inline_runs_are_bit_identical_and_leave_no_segments(
    shm_ledger, skewed_keys
):
    """An inline pool runs the same segment transport as a process pool."""
    direct = FagmsSketch(64, rows=3, seed=17)
    direct.update(skewed_keys)
    result = run_sharded_sketch(skewed_keys, direct.copy_empty(), shards=3)
    assert np.array_equal(direct._state(), result.sketch._state())
    sharded = FagmsSketch(64, rows=3, seed=17)
    parallel_update(sharded, skewed_keys, shards=4, chunk_size=2_048)
    assert np.array_equal(direct._state(), sharded._state())


def test_shedding_with_processes_matches_inline(shm_ledger, process_pool, skewed_keys):
    """HT-weighted (float) counters also survive the shm round-trip exactly."""
    template = FagmsSketch(64, rows=3, seed=17)
    inline = run_sharded_sketch(skewed_keys, template, shards=4, p=0.3, seed=99)
    pooled = run_sharded_sketch(
        skewed_keys, template, shards=4, p=0.3, seed=99, pool=process_pool
    )
    assert np.array_equal(inline.sketch._state(), pooled.sketch._state())
    assert inline.info() == pooled.info()


# ----------------------------------------------------------------------
# Failure lifecycles: SIGKILL'd workers and exhausted retries
# ----------------------------------------------------------------------


def test_sigkilled_worker_leaves_no_segments(shm_ledger, skewed_keys):
    """A worker dying like a segfault must not leak the transport blocks.

    The pool breaks permanently (BrokenProcessPool), run_sharded_sketch
    propagates the failure, and the coordinator's ``finally`` still
    destroys both segments.
    """
    with WorkerPool(2) as pool:
        with pytest.raises(Exception) as excinfo:
            run_sharded_sketch(
                skewed_keys,
                FagmsSketch(64, rows=3, seed=17),
                shards=2,
                pool=pool,
                max_retries=1,
                _worker=_kill_worker,
            )
    assert not isinstance(excinfo.value, AssertionError)


def test_retry_exhaustion_leaves_no_segments(shm_ledger, skewed_keys):
    """Chaos crashes through every retry; the finally still unlinks."""
    plan = ParallelChaosPlan(
        faults=tuple(
            ((shard, attempt), WorkerFault("corrupt_slot"))
            for shard in range(2)
            for attempt in range(3)
        )
    )
    with pytest.raises(RetryExhaustedError):
        run_sharded_sketch(
            skewed_keys,
            FagmsSketch(64, rows=3, seed=17),
            shards=2,
            chunk_size=512,
            max_retries=2,
            _worker=ChaosShardWorker(plan),
        )


def test_chaos_retries_with_shared_slots_stay_bit_identical(shm_ledger, skewed_keys):
    """A retried shard writes its own slot; the failed attempt's is never read."""
    template = FagmsSketch(64, rows=3, seed=17)
    baseline = run_sharded_sketch(
        skewed_keys, template, shards=3, p=0.5, seed=7, chunk_size=512
    )
    # A dropped attempt leaves finished counters in its slot and a torn
    # one leaves NaN; neither slot reaches the merge.
    plan = ParallelChaosPlan(
        faults=(
            ((0, 0), WorkerFault("drop")),
            ((1, 0), WorkerFault("corrupt_slot")),
            ((1, 1), WorkerFault("hang", 0.0)),
            ((2, 0), WorkerFault("corrupt_slot")),
        )
    )
    survived = run_sharded_sketch(
        skewed_keys,
        template,
        shards=3,
        p=0.5,
        seed=7,
        chunk_size=512,
        max_retries=5,
        _worker=ChaosShardWorker(plan),
    )
    assert survived.retries == plan.total_faults
    assert np.array_equal(baseline.sketch._state(), survived.sketch._state())
    assert baseline.info() == survived.info()


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no tmpfs segment directory"
)
def test_destroy_survives_external_unlink(shm_ledger):
    """An externally removed segment must not mask the caller's error path.

    ``destroy()`` runs in coordinator ``finally`` blocks; if an operator
    (or the OS) already removed the ``/dev/shm`` entry, the resulting
    ``FileNotFoundError`` would shadow whatever exception was actually
    unwinding.  It is swallowed instead.
    """
    block = SharedBlock.create((4,), np.float64)
    name = block.descriptor[0]
    os.unlink(f"/dev/shm/{name}")
    block.destroy()  # must not raise
    with pytest.raises(ConfigurationError):
        block.array


def test_triple_destroy_and_interleaved_close(shm_ledger):
    block = SharedBlock.create((4,), np.int64)
    block.close()
    block.destroy()
    block.destroy()
    block.destroy()
    block.close()


def test_attached_view_destroy_never_unlinks(shm_ledger):
    """Only the owner unlinks; a view's destroy() is just a close()."""
    owner = SharedBlock.create((4,), np.float64)
    try:
        view = SharedBlock.attach(owner.descriptor)
        view.destroy()
        view.destroy()
        # The segment must still exist for the owner.
        again = SharedBlock.attach(owner.descriptor)
        again.close()
    finally:
        owner.destroy()


# ----------------------------------------------------------------------
# Workers share the coordinator's resource tracker
# ----------------------------------------------------------------------

#: Run in a fresh interpreter, so no earlier test has started the
#: tracker: prints the tracker pid a forked worker sees, then the
#: coordinator's.
_TRACKER_SCRIPT = """
from multiprocessing import resource_tracker
from repro.parallel import WorkerPool

def tracker_pid():
    return resource_tracker._resource_tracker._pid

with WorkerPool(1) as pool:
    worker = pool.submit(tracker_pid).result(timeout=60)
print(worker, resource_tracker._resource_tracker._pid)
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="WorkerPool forks only where the platform offers fork",
)
def test_forked_workers_share_the_coordinator_tracker():
    """A worker with a private tracker would unlink the coordinator's
    segments a second time when it exits."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    process = subprocess.run(
        [sys.executable, "-c", _TRACKER_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    worker, coordinator = process.stdout.split()
    assert coordinator != "None"
    assert worker == coordinator
