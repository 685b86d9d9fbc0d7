"""Kernel-layer throughput: tuples/sec per sketch and backend.

Measures bulk-update throughput for each sketch through every available
kernel backend — plus the fused multi-sketch entry point against the
equivalent separate updates — and writes both a human-readable table and
the machine-readable ``BENCH_kernels.json`` baseline: records of
``{sketch, batch, backend, tuples_per_sec}`` (fused rows add
``separate_tuples_per_sec`` and ``fused_speedup``), written to
``benchmarks/results/``, that ``docs/PERFORMANCE.md`` explains how to
read.

The ``smoke`` tests are the CI perf gates: tiny batches, asserting the
default numpy backend never regresses below 0.8× the legacy reference
path and that the fused path keeps its ≥ 1.5× advantage over separate
updates on the ensemble workload.  The full matrix is for humans and the
committed baseline.
"""

import time

import numpy as np
import pytest

from repro.experiments.report import format_table
from repro.kernels import (
    fused_update,
    make_fused_plan,
    native_available,
    use_backend,
)
from repro.sketches import AgmsSketch, CountMinSketch, FagmsSketch

SKETCHES = {
    "fagms": lambda seed: FagmsSketch(1024, 1, seed=seed),
    "countmin": lambda seed: CountMinSketch(1024, 3, seed=seed),
    "agms": lambda seed: AgmsSketch(16, seed=seed),
}

#: Multi-sketch mixes for the fused entry point.  ``trio`` is the
#: canonical co-maintained AGMS + F-AGMS + Count-Min set; ``bank8`` is
#: the ensemble shape (many small single-row sketches over one stream)
#: where the per-sketch dispatch overhead fusion removes is largest.
FUSED_MIXES = {
    "trio": lambda seed: [
        AgmsSketch(16, seed=seed),
        FagmsSketch(1024, rows=5, seed=seed),
        CountMinSketch(1024, rows=3, seed=seed),
    ],
    "bank8": lambda seed: [
        FagmsSketch(1024, rows=1, seed=seed + i) for i in range(8)
    ],
}

#: (mix, streaming chunk size) points recorded in the baseline.
FUSED_POINTS = (("trio", 1_024), ("trio", 65_536), ("bank8", 2_048))

BACKENDS = ["reference", "numpy"] + (["native"] if native_available() else [])


def _throughput(factory, backend, batch, reps=5, seed=7):
    """Best-of-*reps* tuples/sec for repeated bulk updates of one batch."""
    keys = np.random.default_rng(3).integers(
        0, 2**31 - 2, size=batch, dtype=np.int64
    )
    with use_backend(backend):
        sketch = factory(seed)
        sketch.update(keys[: min(batch, 128)])  # warm caches and lazy builds
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            sketch.update(keys)
            best = min(best, time.perf_counter() - start)
    return batch / best


def _fused_throughput(mix, backend, chunk, total=524_288, reps=3):
    """Best-of-*reps* (fused, separate) tuples/sec streaming int32 chunks.

    Both sides consume the identical stream in identical chunks; the
    only variable is whether each chunk crosses the seam once (fused
    plan) or once per sketch (separate ``update`` calls).
    """
    factory = FUSED_MIXES[mix]
    keys = np.random.default_rng(3).integers(
        0, 2**31 - 2, size=total, dtype=np.int32
    )
    with use_backend(backend):
        fused = factory(7)
        plan = make_fused_plan(fused)
        fused_update(plan, keys[:chunk])  # warm caches and lazy builds
        best_fused = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            for offset in range(0, total, chunk):
                fused_update(plan, keys[offset : offset + chunk])
            best_fused = min(best_fused, time.perf_counter() - start)

        separate = factory(9)
        wide = keys.astype(np.int64)
        for sketch in separate:
            sketch.update(wide[:chunk])
        best_separate = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            for offset in range(0, total, chunk):
                piece = wide[offset : offset + chunk]
                for sketch in separate:
                    sketch.update(piece)
            best_separate = min(best_separate, time.perf_counter() - start)
    return total / best_fused, total / best_separate


def test_kernel_throughput_matrix(save_result, save_bench):
    batch = 65_536
    records = []
    for sketch_name, factory in SKETCHES.items():
        for backend in BACKENDS:
            records.append(
                {
                    "sketch": sketch_name,
                    "batch": batch,
                    "backend": backend,
                    "tuples_per_sec": round(_throughput(factory, backend, batch)),
                }
            )

    fused_records = []
    for backend in BACKENDS:
        for mix, chunk in FUSED_POINTS:
            fused_tps, separate_tps = _fused_throughput(mix, backend, chunk)
            fused_records.append(
                {
                    "sketch": f"fused:{mix}",
                    "batch": chunk,
                    "backend": backend,
                    "tuples_per_sec": round(fused_tps),
                    "separate_tuples_per_sec": round(separate_tps),
                    "fused_speedup": round(fused_tps / separate_tps, 2),
                }
            )
    records.extend(fused_records)

    save_bench("kernels", records)

    by_key = {
        (r["sketch"], r["backend"]): r["tuples_per_sec"]
        for r in records
        if r["sketch"] in SKETCHES
    }
    rows = [
        (
            sketch_name,
            backend,
            by_key[sketch_name, backend] / 1e6,
            by_key[sketch_name, backend] / by_key[sketch_name, "reference"],
        )
        for sketch_name in SKETCHES
        for backend in BACKENDS
    ]
    save_result(
        "kernel_throughput",
        format_table(
            ("sketch", "backend", "Mtuples/s", "vs_reference"),
            rows,
            title=f"Kernel backend throughput (batch={batch})",
        )
        + "\n"
        + format_table(
            ("mix", "chunk", "backend", "Mtuples/s", "vs_separate"),
            [
                (
                    r["sketch"],
                    r["batch"],
                    r["backend"],
                    r["tuples_per_sec"] / 1e6,
                    r["fused_speedup"],
                )
                for r in fused_records
            ],
            title="Fused multi-sketch update vs separate updates (int32 stream)",
        ),
    )

    # The fused numpy path must beat per-row add.at for every sketch at
    # bulk batch sizes; the compiled path must beat numpy for F-AGMS.
    for sketch_name in SKETCHES:
        assert by_key[sketch_name, "numpy"] > by_key[sketch_name, "reference"]
    if "native" in BACKENDS:
        assert by_key["fagms", "native"] > by_key["fagms", "numpy"]
        # One native C call per chunk for the whole ensemble must beat
        # eight separate dispatches by >= 2x at streaming chunk sizes.
        bank = next(
            r
            for r in fused_records
            if r["sketch"] == "fused:bank8" and r["backend"] == "native"
        )
        assert bank["fused_speedup"] >= 2.0, (
            f"native fused bank8 speedup {bank['fused_speedup']}x fell "
            "below the 2x floor over separate updates"
        )


@pytest.mark.parametrize("sketch_name", sorted(SKETCHES))
def test_kernel_smoke(sketch_name):
    """CI perf smoke: the default backend keeps up with the legacy path.

    Small batches and a generous 0.8× floor — this is a regression trip
    wire for accidental slow paths (e.g. a dtype promotion sneaking into
    the hot loop), not a performance benchmark.
    """
    factory = SKETCHES[sketch_name]
    batch = 8_192
    fused = _throughput(factory, "numpy", batch, reps=7)
    legacy = _throughput(factory, "reference", batch, reps=7)
    assert fused >= 0.8 * legacy, (
        f"{sketch_name}: numpy backend {fused:.0f} tuples/s fell below "
        f"0.8x the reference path {legacy:.0f} tuples/s"
    )


def test_fused_smoke_numpy():
    """CI perf smoke: fused keeps >= 1.5x over separate on numpy.

    The ensemble workload (eight single-row F-AGMS sketches, 512-key
    chunks) is where the separate path pays eight full dispatches per
    chunk; the fused plan pays one.  Measured headroom is ~3.9x, so the
    1.5x floor trips only on a real regression (e.g. the plan cache
    breaking and per-chunk setup creeping back in), not on CI noise.
    """
    fused_tps, separate_tps = _fused_throughput(
        "bank8", "numpy", 512, total=131_072, reps=5
    )
    assert fused_tps >= 1.5 * separate_tps, (
        f"fused numpy ensemble update {fused_tps:.0f} tuples/s fell below "
        f"1.5x the separate path {separate_tps:.0f} tuples/s"
    )
