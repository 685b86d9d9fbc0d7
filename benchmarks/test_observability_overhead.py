"""Observability overhead: the disabled path must be free, and stay free.

The observability layer is threaded through every hot loop in the system
(``OnlineStatisticsEngine.consume``, ``StreamRuntime.process``, the scan
driver), always on, defaulting to the shared null observer.  That design
is only acceptable if the null path costs nothing measurable — so this
benchmark is the gate that keeps it honest.

End-to-end A/B timing of ``engine.consume`` versus a bare
``sketch.update`` loop cannot gate a ~1% effect: on a shared CI machine
the run-to-run noise of a ~5 ms pass is several percent, larger than the
signal.  Instead the gate is surgical — it times the *exact*
per-chunk instrument-call sequence ``consume`` issues (two counter
increments and a gauge set) in isolation, against the bare sketch-update
loop over the same chunks:

* **null path** — the call sequence against the shared null observer.
  Must cost **<= 3%** of the bare scan (asserted).
* **enabled path** — the same sequence against a live
  :class:`Observer`.  Reported, not gated: enabling observability is a
  deliberate choice and its price is allowed to be visible (it stays
  small because instruments are registry-cached per ``(name, labels)``).

Both sides are tight best-of-``REPS`` loops, so the ratio is stable in a
way the end-to-end difference is not.  Results land in
``benchmarks/results/BENCH_observability.json``: records of ``{path,
mode, seconds, tuples_per_sec, overhead_pct}``.
"""

import time

import numpy as np

from repro.observability import NULL_OBSERVER, Observer
from repro.sketches import FagmsSketch

TUPLES = 262_144
CHUNK = 8_192
BUCKETS = 1_024
REPS = 9
#: The gate: per-chunk instrumentation cost over the bare scan.
MAX_NULL_OVERHEAD = 0.03


def _chunks() -> list:
    keys = np.random.default_rng(41).integers(
        0, 2**31 - 2, size=TUPLES, dtype=np.int64
    )
    return [keys[start : start + CHUNK] for start in range(0, keys.size, CHUNK)]


def _time_bare(chunks) -> float:
    """Best-of-reps seconds for the raw chunked sketch-update scan."""
    best = float("inf")
    for _ in range(REPS):
        sketch = FagmsSketch(BUCKETS, 1, seed=3)
        start = time.perf_counter()
        for chunk in chunks:
            sketch.update(chunk)
        best = min(best, time.perf_counter() - start)
    return best


def _time_instrumentation(chunks, obs) -> float:
    """Best-of-reps seconds for ``consume``'s per-chunk observer calls.

    Mirrors :meth:`OnlineStatisticsEngine.consume` exactly: two labeled
    counter increments and one labeled gauge set per chunk.
    """
    total = float(TUPLES)
    best = float("inf")
    for _ in range(REPS):
        scanned = 0
        start = time.perf_counter()
        for chunk in chunks:
            scanned += int(chunk.size)
            obs.counter("engine.rows.consumed", relation="stream").inc(
                int(chunk.size)
            )
            obs.counter("engine.chunks.consumed", relation="stream").inc()
            obs.gauge("engine.fraction_scanned", relation="stream").set(
                scanned / total
            )
        best = min(best, time.perf_counter() - start)
    return best


def test_observability_overhead(save_result, save_bench):
    chunks = _chunks()

    # Warm caches and lazy hash-family builds outside the timed region.
    warm = FagmsSketch(BUCKETS, 1, seed=3)
    warm.update(chunks[0])

    bare = _time_bare(chunks)
    null_cost = _time_instrumentation(chunks, NULL_OBSERVER)
    enabled_cost = _time_instrumentation(chunks, Observer())

    def record(path, mode, seconds):
        return {
            "path": path,
            "mode": mode,
            "seconds": round(seconds, 6),
            "tuples_per_sec": round(TUPLES / (bare + seconds)),
            "overhead_pct": round(100.0 * seconds / bare, 3),
        }

    records = [
        {
            "path": "sketch.update",
            "mode": "bare",
            "seconds": round(bare, 6),
            "tuples_per_sec": round(TUPLES / bare),
            "overhead_pct": 0.0,
        },
        record("consume.instruments", "null_observer", null_cost),
        record("consume.instruments", "enabled_observer", enabled_cost),
    ]
    save_bench("observability", records)

    lines = [
        f"Observability overhead ({TUPLES:,} tuples, chunk={CHUNK})",
        *(
            f"  {r['path']:<20} {r['mode']:<18} {r['seconds']*1e3:8.3f} ms "
            f"(+{r['overhead_pct']:.2f}%)"
            for r in records
        ),
    ]
    save_result("observability_overhead", "\n".join(lines))

    null_overhead = null_cost / bare
    assert null_overhead <= MAX_NULL_OVERHEAD, (
        f"null-observer instrumentation costs {100 * null_overhead:.2f}% of "
        f"the bare scan (gate: {100 * MAX_NULL_OVERHEAD:.0f}%)"
    )
