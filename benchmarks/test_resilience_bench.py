"""Resilience baseline: recovery latency and degraded-mode accuracy.

Writes ``BENCH_resilience.json``: one record per fault scenario for the
supervised sharded engine — fault-free baseline, retried transient drops,
a deadline-culled hang — each with wall-clock seconds and the recovery
overhead relative to the baseline, plus a Monte Carlo summary of degraded
(lost-shard) estimation: mean relative error of the ``1/q``-scaled
self-join estimate and the empirical coverage of the widened 90%
Chebyshev interval (which must be >= nominal: the bounds are
conservative by construction).

Everything runs on the inline pool with seeded fault plans, so the
numbers measure the engine, not process-spawn jitter.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.report import format_table
from repro.parallel import WorkerPool, run_sharded_sketch
from repro.resilience.chaos import (
    ChaosShardWorker,
    ParallelChaosPlan,
    WorkerFault,
)
from repro.sketches.fagms import FagmsSketch

SHARDS = 4
TUPLES = 120_000
DOMAIN = 5_000
CONFIDENCE = 0.90
DEGRADED_TRIALS = 12

#: A hang long enough that only the deadline (not patience) recovers it.
HANG_SECONDS = 30.0
DEADLINE = 0.25


def _keys(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.zipf(1.2, size=TUPLES).clip(0, DOMAIN - 1).astype(np.int64)


def _template() -> FagmsSketch:
    return FagmsSketch(1024, rows=7, seed=5)


def _timed_run(keys, pool, **kwargs):
    start = time.perf_counter()
    result = run_sharded_sketch(
        keys, _template(), shards=SHARDS, pool=pool, **kwargs
    )
    return time.perf_counter() - start, result


def test_resilience_baseline(save_result, save_bench):
    keys = _keys(31)

    # Faults that stall (hang) can only be preempted across a process
    # boundary, so the timed scenarios run on a real warmed 2-process
    # pool; the degraded-accuracy Monte Carlo below stays inline.
    with WorkerPool(2) as pool:
        run_sharded_sketch(keys[:4_096], _template(), shards=2, pool=pool)

        base_seconds, baseline = _timed_run(keys, pool)

        drop_plan = ParallelChaosPlan(
            faults=tuple(
                ((shard, 0), WorkerFault("drop")) for shard in range(SHARDS)
            )
        )
        drop_seconds, dropped = _timed_run(
            keys, pool, max_retries=2, _worker=ChaosShardWorker(drop_plan)
        )
        assert np.array_equal(dropped.sketch._state(), baseline.sketch._state())

        hang_plan = ParallelChaosPlan(
            faults=(((1, 0), WorkerFault("hang", HANG_SECONDS)),)
        )
        hang_seconds, hung = _timed_run(
            keys,
            pool,
            max_retries=1,
            deadline=DEADLINE,
            poll_interval=0.02,
            _worker=ChaosShardWorker(hang_plan),
        )
        assert np.array_equal(hung.sketch._state(), baseline.sketch._state())
        # The whole point of the deadline: recovery latency is bounded by
        # the deadline + one re-run, never by the fault duration.
        assert hang_seconds < HANG_SECONDS / 2

    records = []
    for scenario, seconds, result in (
        ("baseline", base_seconds, baseline),
        ("retry_drop", drop_seconds, dropped),
        ("deadline_hang", hang_seconds, hung),
    ):
        records.append(
            {
                "scenario": scenario,
                "seconds": round(seconds, 4),
                "recovery_overhead": round(seconds / base_seconds, 3),
                "retries": result.retries,
                "shards": SHARDS,
            }
        )

    # Degraded-mode accuracy: lose one fixed shard per trial, vary the
    # stream, and score the 1/q-corrected estimate and its widened CI.
    lost_plan = ParallelChaosPlan(
        faults=tuple(((2, attempt), WorkerFault("hang", 0.0)) for attempt in range(4))
    )
    errors, covered = [], 0
    for trial in range(DEGRADED_TRIALS):
        trial_keys = _keys(500 + trial)
        true_f2 = float((np.bincount(trial_keys) ** 2).sum())
        degraded = run_sharded_sketch(
            trial_keys,
            _template(),
            shards=SHARDS,
            max_retries=0,
            degradation="degrade",
            _worker=ChaosShardWorker(lost_plan),
        )
        estimate = degraded.self_join_size()
        errors.append(abs(estimate - true_f2) / true_f2)
        covered += degraded.self_join_interval(CONFIDENCE).contains(true_f2)

    coverage = covered / DEGRADED_TRIALS
    assert coverage >= CONFIDENCE  # conservative bounds over-cover
    records.append(
        {
            "scenario": "degraded_accuracy",
            "trials": DEGRADED_TRIALS,
            "lost_shards": 1,
            "survived_fraction": round(1 - 1 / SHARDS, 4),
            "mean_rel_error": round(float(np.mean(errors)), 4),
            "max_rel_error": round(float(np.max(errors)), 4),
            "coverage_90": round(coverage, 4),
        }
    )

    save_bench("resilience", records)
    rows = [
        [
            r["scenario"],
            r.get("seconds", "-"),
            r.get("recovery_overhead", "-"),
            r.get("retries", "-"),
            r.get("mean_rel_error", "-"),
            r.get("coverage_90", "-"),
        ]
        for r in records
    ]
    save_result(
        "resilience",
        format_table(
            ["scenario", "seconds", "overhead", "retries", "rel_err", "cover90"],
            rows,
            title="Resilience: recovery latency and degraded accuracy",
        ),
    )
