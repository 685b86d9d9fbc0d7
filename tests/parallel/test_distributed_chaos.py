"""Chaos matrix for the supervised sharded engine.

The contract: whatever the fault schedule does to individual dispatches
— SIGKILLed workers (which break the whole ``ProcessPoolExecutor``),
hangs culled by deadline, stragglers, dropped results, torn counter
slots — a run that completes is **bit-identical** to the sequential
scan, leaves zero ``/dev/shm`` segments behind and no abandoned task
holding the pool, and a run that degrades returns honestly widened
intervals that cover the truth.

Faults are scheduled by seeded :class:`ParallelChaosPlan`s keyed on
``(shard, attempt)``; ``REPRO_CHAOS_SEEDS`` widens the matrix in CI.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, RetryExhaustedError
from repro.observability import Observer
from repro.parallel import DegradedScanResult, WorkerPool, run_sharded_sketch
from repro.resilience.chaos import (
    ChaosShardWorker,
    ParallelChaosPlan,
    WorkerFault,
    make_parallel_chaos_plan,
)
from repro.sketches.fagms import FagmsSketch


def _shm_entries() -> list:
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


def _template() -> FagmsSketch:
    return FagmsSketch(64, rows=3, seed=17)


def _sequential_state(keys) -> np.ndarray:
    sketch = _template()
    sketch.update(keys)
    return sketch._state()


def _always_fail(shard: int, attempts: int = 8) -> tuple:
    """Faults exhausting every retry of *shard* (inline-safe: no kill)."""
    return tuple(
        ((shard, attempt), WorkerFault("hang", 0.0)) for attempt in range(attempts)
    )


# ----------------------------------------------------------------------
# Complete runs are bit-identical to the sequential scan
# ----------------------------------------------------------------------


class TestChaosMatrix:
    @pytest.mark.parametrize("shards", [3, 5])
    def test_seeded_chaos_is_bit_identical_over_processes(
        self, shm_ledger, process_pool, skewed_keys, chaos_seed, shards
    ):
        plan = make_parallel_chaos_plan(
            1000 + chaos_seed,
            shards,
            kinds=("kill", "slow", "drop", "corrupt_slot"),
            rate=0.5,
            duration=0.02,
        )
        result = run_sharded_sketch(
            skewed_keys,
            _template(),
            shards=shards,
            pool=process_pool,
            max_retries=4,
            _worker=ChaosShardWorker(plan),
        )
        assert np.array_equal(result.sketch._state(), _sequential_state(skewed_keys))
        # A slow dispatch completes; every other fault fails its dispatch
        # (a kill also fails whatever else its pool was running).
        failing = sum(fault.kind != "slow" for _, fault in plan.faults)
        assert result.retries >= failing
        assert result.surviving_shards() == tuple(range(shards))

    def test_seeded_chaos_is_bit_identical_inline(
        self, shm_ledger, skewed_keys, chaos_seed
    ):
        # The inline matrix adds hang faults (no SIGKILL in-process) and
        # forces the shared-memory transport so slot rebinding is hit.
        plan = make_parallel_chaos_plan(
            2000 + chaos_seed,
            4,
            kinds=("hang", "slow", "drop", "corrupt_slot"),
            rate=0.6,
            duration=0.0,
        )
        result = run_sharded_sketch(
            skewed_keys,
            _template(),
            shards=4,
            shared_memory=True,
            max_retries=4,
            _worker=ChaosShardWorker(plan),
        )
        assert np.array_equal(result.sketch._state(), _sequential_state(skewed_keys))

    def test_sigkill_revives_the_pool(self, shm_ledger, skewed_keys):
        plan = ParallelChaosPlan(faults=(((1, 0), WorkerFault("kill")),))
        with WorkerPool(2) as pool:
            result = run_sharded_sketch(
                skewed_keys,
                _template(),
                shards=3,
                pool=pool,
                max_retries=3,
                _worker=ChaosShardWorker(plan),
            )
            assert pool.revivals >= 1
        assert np.array_equal(result.sketch._state(), _sequential_state(skewed_keys))

    def test_hang_is_culled_by_deadline(self, shm_ledger, process_pool, skewed_keys):
        # The hang sleeps far longer than the test budget; only the
        # no-progress deadline gets the shard retried in time.
        hang = 30.0
        plan = ParallelChaosPlan(faults=(((0, 0), WorkerFault("hang", hang)),))
        start = time.perf_counter()
        result = run_sharded_sketch(
            skewed_keys,
            _template(),
            shards=3,
            pool=process_pool,
            max_retries=2,
            deadline=0.4,
            poll_interval=0.02,
            _worker=ChaosShardWorker(plan),
        )
        assert time.perf_counter() - start < hang / 2
        assert np.array_equal(result.sketch._state(), _sequential_state(skewed_keys))
        assert result.retries >= 1

    @pytest.mark.parametrize("shared_memory", [False, True])
    def test_queued_shards_are_not_culled(
        self, shm_ledger, skewed_keys, shared_memory
    ):
        # Slow faults shorter than the deadline keep both workers busy, so
        # the last shards wait in the queue longer than the deadline.
        shards = 10
        plan = ParallelChaosPlan(
            faults=tuple(
                ((shard, 0), WorkerFault("slow", 0.12)) for shard in range(shards)
            )
        )
        with WorkerPool(2) as pool:
            result = run_sharded_sketch(
                skewed_keys,
                _template(),
                shards=shards,
                pool=pool,
                max_retries=2,
                deadline=0.35,
                poll_interval=0.02,
                shared_memory=shared_memory,
                _worker=ChaosShardWorker(plan),
            )
        assert result.retries == 0
        assert np.array_equal(result.sketch._state(), _sequential_state(skewed_keys))

    def test_abandoned_hang_does_not_hold_the_pool(self, shm_ledger, skewed_keys):
        # A running task cannot be cancelled: without recycling its
        # workers, close() would wait out the whole hang.
        plan = ParallelChaosPlan(faults=(((0, 0), WorkerFault("hang", 20.0)),))
        pool = WorkerPool(2)
        try:
            start = time.perf_counter()
            culled = run_sharded_sketch(
                skewed_keys,
                _template(),
                shards=3,
                pool=pool,
                max_retries=1,
                deadline=0.4,
                poll_interval=0.02,
                _worker=ChaosShardWorker(plan),
            )
            assert time.perf_counter() - start < 5.0
            assert pool.revivals == 1
            again = run_sharded_sketch(skewed_keys, _template(), shards=3, pool=pool)
        finally:
            start = time.perf_counter()
            pool.close()
            closed = time.perf_counter() - start
        assert closed < 5.0
        expected = _sequential_state(skewed_keys)
        assert np.array_equal(culled.sketch._state(), expected)
        assert np.array_equal(again.sketch._state(), expected)

    def test_hang_that_exhausts_its_retries_does_not_hold_the_pool(
        self, shm_ledger, skewed_keys
    ):
        plan = ParallelChaosPlan(faults=(((0, 0), WorkerFault("hang", 20.0)),))
        pool = WorkerPool(2)
        try:
            with pytest.raises(RetryExhaustedError):
                run_sharded_sketch(
                    skewed_keys,
                    _template(),
                    shards=3,
                    pool=pool,
                    max_retries=0,
                    deadline=0.4,
                    poll_interval=0.02,
                    _worker=ChaosShardWorker(plan),
                )
        finally:
            start = time.perf_counter()
            pool.close()
            closed = time.perf_counter() - start
        assert closed < 5.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hangs_holding_every_worker_end_the_run(
        self, shm_ledger, skewed_keys, workers
    ):
        # Abandoned hangs hold every worker, so no queued dispatch can
        # start: the queued ones expire one deadline after the run stalls
        # and the retries run out, instead of waiting out the hang.
        hang = 30.0
        plan = ParallelChaosPlan(
            faults=tuple(
                ((shard, 0), WorkerFault("hang", hang)) for shard in range(workers)
            )
        )
        pool = WorkerPool(workers)
        try:
            start = time.perf_counter()
            with pytest.raises(RetryExhaustedError):
                run_sharded_sketch(
                    skewed_keys,
                    _template(),
                    shards=3,
                    pool=pool,
                    max_retries=1,
                    deadline=0.25,
                    poll_interval=0.02,
                    _worker=ChaosShardWorker(plan),
                )
            assert time.perf_counter() - start < hang / 6
        finally:
            start = time.perf_counter()
            pool.close()
            closed = time.perf_counter() - start
        assert closed < 5.0


# ----------------------------------------------------------------------
# Degraded runs: survivors scaled, intervals honestly widened
# ----------------------------------------------------------------------


class TestDegradedRuns:
    def test_lost_shard_degrades_instead_of_failing(self, shm_ledger, skewed_keys):
        plan = ParallelChaosPlan(faults=_always_fail(1))
        result = run_sharded_sketch(
            skewed_keys,
            _template(),
            shards=4,
            max_retries=1,
            degradation="degrade",
            _worker=ChaosShardWorker(plan),
        )
        assert isinstance(result, DegradedScanResult)
        assert result.lost_shards == (1,)
        assert result.surviving_shards() == (0, 2, 3)
        assert result.survived_fraction == pytest.approx(0.75)
        assert result.failures[0].shard == 1
        # Survivor counters exclude the lost slice, so the raw sketch
        # moment underestimates; the 1/q scaling must push it back up.
        assert result.self_join_size() > result.sketch.second_moment() * 0.99

    def test_degraded_interval_covers_truth_at_nominal_rate(self):
        """Monte Carlo over streams: coverage >= the nominal confidence."""
        confidence, trials, covered = 0.9, 25, 0
        plan = ParallelChaosPlan(faults=_always_fail(2))
        for trial in range(trials):
            rng = np.random.default_rng(7000 + trial)
            keys = rng.integers(0, 2_000, size=6_000).astype(np.int64)
            true_f2 = float((np.bincount(keys) ** 2).sum())
            result = run_sharded_sketch(
                keys,
                FagmsSketch(1024, rows=7, seed=5),
                shards=4,
                max_retries=0,
                degradation="degrade",
                _worker=ChaosShardWorker(plan),
            )
            interval = result.self_join_interval(confidence)
            covered += interval.contains(true_f2)
        assert covered / trials >= confidence

    def test_degraded_join_uses_common_survivors(self, shm_ledger):
        rng = np.random.default_rng(99)
        keys_f = rng.integers(0, 1_000, size=8_000).astype(np.int64)
        keys_g = rng.integers(0, 1_000, size=8_000).astype(np.int64)
        template = FagmsSketch(2048, rows=7, seed=21)
        lost_f = run_sharded_sketch(
            keys_f,
            template,
            shards=4,
            max_retries=0,
            degradation="degrade",
            _worker=ChaosShardWorker(ParallelChaosPlan(faults=_always_fail(0))),
        )
        lost_g = run_sharded_sketch(
            keys_g,
            template,
            shards=4,
            max_retries=0,
            degradation="degrade",
            _worker=ChaosShardWorker(ParallelChaosPlan(faults=_always_fail(3))),
        )
        assert isinstance(lost_f, DegradedScanResult)
        common = set(lost_f.surviving_shards()) & set(lost_g.surviving_shards())
        assert common == {1, 2}
        true_join = float(
            (np.bincount(keys_f, minlength=1_000) * np.bincount(keys_g, minlength=1_000)).sum()
        )
        estimate = lost_f.join_size(lost_g)
        interval = lost_f.join_interval(lost_g, 0.9)
        assert interval.contains(true_join)
        assert interval.contains(estimate)
        # Symmetric delegation: a complete result joined against a
        # degraded one routes through the degraded estimator.
        assert lost_g.join_size(lost_f) == pytest.approx(estimate, rel=1e-9)

    def test_losing_every_shard_still_raises(self, shm_ledger, skewed_keys):
        faults = _always_fail(0) + _always_fail(1)
        with pytest.raises(RetryExhaustedError, match="nothing to degrade to"):
            run_sharded_sketch(
                skewed_keys,
                _template(),
                shards=2,
                max_retries=1,
                degradation="degrade",
                _worker=ChaosShardWorker(ParallelChaosPlan(faults=faults)),
            )

    def test_degrade_requires_hash_partitioning(self, skewed_keys):
        with pytest.raises(ConfigurationError, match="hash"):
            run_sharded_sketch(
                skewed_keys,
                _template(),
                shards=2,
                mode="range",
                degradation="degrade",
            )

    def test_degradation_knob_is_validated(self, skewed_keys):
        with pytest.raises(ConfigurationError, match="degradation"):
            run_sharded_sketch(
                skewed_keys, _template(), shards=2, degradation="panic"
            )


# ----------------------------------------------------------------------
# Observability: the supervisor's metrics and spans thread through
# ----------------------------------------------------------------------


class TestObservability:
    def test_retry_and_degraded_metrics(self, shm_ledger, skewed_keys):
        obs = Observer()
        faults = (((0, 0), WorkerFault("drop")),) + _always_fail(2)
        result = run_sharded_sketch(
            skewed_keys,
            _template(),
            shards=3,
            max_retries=1,
            degradation="degrade",
            shared_memory=True,
            observer=obs,
            _worker=ChaosShardWorker(ParallelChaosPlan(faults=faults)),
        )
        assert isinstance(result, DegradedScanResult)
        snapshot = obs.metrics.snapshot()
        assert snapshot.counter_value("parallel.shard.retries") >= 2
        assert snapshot.counter_value("parallel.shard.degraded") == 1
        assert snapshot.counter_value("parallel.shm.segments") >= 1
        span_names = {record.name for record in obs.tracer.finished}
        assert "parallel.supervise" in span_names
        assert "parallel.scan" in span_names
