"""Parallel-engine scaling: end-to-end speedup of the sharded bulk scan.

Measures wall-clock time for ``parallel_update`` of a large skewed stream
into a bulk F-AGMS sketch at 1, 2, and 4 workers — shared-memory key and
counter blocks, chunked work-stealing dispatch — and writes the
machine-readable ``BENCH_parallel.json`` baseline: records of
``{workers, shards, seconds, tuples_per_sec, speedup_vs_1, cpus,
cpu_detection, shared_memory}``, written to ``benchmarks/results/``,
plus a human-readable table.

Honest CPU accounting: the worker count a pool can *run* is bounded by
the CPUs this process may actually use, which on shared/containerized
hosts is less than ``os.cpu_count()`` — the scheduler affinity mask and
any cgroup-v2 CPU quota both cap it.  :func:`effective_cpus` resolves the
tightest bound and reports *how* it was detected; the baseline records
both so a reader can interpret the speedups, and the ≥ 3× speedup gate at
4 workers only arms on hosts with at least 4 effective CPUs (speedup is
physically impossible without cores to run on — on smaller hosts the gate
is skipped with the reason, but the measurement and baseline are written
either way).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.report import format_table
from repro.parallel import WorkerPool, parallel_update
from repro.sketches import FagmsSketch

WORKER_STEPS = (1, 2, 4)
TUPLES = 1_200_000
BUCKETS = 4_096
ROWS = 5
REPS = 3

#: Speedup the 4-worker shared-memory scan must reach on a >= 4-CPU host.
SPEEDUP_GATE_AT_4 = 3.0


def _cgroup_cpu_limit() -> float:
    """CPU limit from a cgroup-v2 quota (``inf`` when unlimited/absent)."""
    try:
        text = Path("/sys/fs/cgroup/cpu.max").read_text().split()
    except OSError:
        return float("inf")
    if len(text) != 2 or text[0] == "max":
        return float("inf")
    quota, period = float(text[0]), float(text[1])
    if quota <= 0 or period <= 0:
        return float("inf")
    return quota / period


def effective_cpus() -> tuple:
    """``(count, method)``: CPUs this process can use, and how we know.

    The count is the tightest of the scheduler affinity mask (itself
    cgroup-cpuset-aware) and any cgroup-v2 bandwidth quota; the method
    string names every source that participated so the benchmark baseline
    is auditable.
    """
    sources = []
    try:
        count = len(os.sched_getaffinity(0))
        sources.append("sched_getaffinity")
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        count = os.cpu_count() or 1
        sources.append("cpu_count")
    quota = _cgroup_cpu_limit()
    if math.isfinite(quota):
        quota_cpus = max(1, math.floor(quota))
        if quota_cpus < count:
            count = quota_cpus
        sources.append("cgroup-v2-cpu.max")
    return count, "+".join(sources)


def _keys() -> np.ndarray:
    rng = np.random.default_rng(29)
    return rng.zipf(1.1, size=TUPLES).clip(0, 2**31 - 2).astype(np.int64)


def _time_run(keys, workers: int) -> float:
    """Best-of-``REPS`` seconds for one sharded bulk scan at *workers*."""
    best = float("inf")
    with WorkerPool(workers) as pool:
        # Warm the pool (process spawn + import cost must not be billed
        # to the measured scan).
        parallel_update(
            FagmsSketch(BUCKETS, ROWS, seed=3), keys[:4_096], pool=pool
        )
        for _ in range(REPS):
            sketch = FagmsSketch(BUCKETS, ROWS, seed=3)
            start = time.perf_counter()
            parallel_update(sketch, keys, shards=workers, pool=pool)
            best = min(best, time.perf_counter() - start)
    return best


def test_parallel_scaling(save_result, save_bench):
    keys = _keys()
    cpus, detection = effective_cpus()

    records = []
    for workers in WORKER_STEPS:
        seconds = _time_run(keys, workers)
        records.append(
            {
                "workers": workers,
                "shards": workers,
                "seconds": round(seconds, 4),
                "tuples_per_sec": round(TUPLES / seconds),
                "cpus": cpus,
                "cpu_detection": detection,
                "shared_memory": workers > 0,
            }
        )
    base = records[0]["seconds"]
    for record in records:
        record["speedup_vs_1"] = round(base / record["seconds"], 3)
        record["gate_armed"] = cpus >= 4

    save_bench("parallel", records)
    save_result(
        "parallel_scaling",
        format_table(
            ("workers", "seconds", "Mtuples/s", "speedup_vs_1"),
            [
                (
                    r["workers"],
                    r["seconds"],
                    r["tuples_per_sec"] / 1e6,
                    r["speedup_vs_1"],
                )
                for r in records
            ],
            title=(
                f"Sharded shared-memory bulk F-AGMS scan ({TUPLES:,} tuples, "
                f"{cpus} effective CPUs via {detection})"
            ),
        ),
    )

    # Sanity on any machine: sharding must not corrupt the result.
    direct = FagmsSketch(BUCKETS, ROWS, seed=3)
    direct.update(keys)
    sharded = FagmsSketch(BUCKETS, ROWS, seed=3)
    parallel_update(sharded, keys, shards=4)
    assert np.array_equal(direct.counters, sharded.counters)

    if cpus < 4:
        pytest.skip(
            f"speedup gate needs >= 4 effective CPUs, found {cpus} "
            f"(detected via {detection}); BENCH_parallel.json was still "
            "written with gate_armed=false"
        )
    four = next(r for r in records if r["workers"] == 4)
    assert four["speedup_vs_1"] >= SPEEDUP_GATE_AT_4, (
        f"4-worker shared-memory sharded scan achieved only "
        f"{four['speedup_vs_1']:.2f}x over 1 worker "
        f"(need >= {SPEEDUP_GATE_AT_4}x on a {cpus}-CPU host)"
    )
