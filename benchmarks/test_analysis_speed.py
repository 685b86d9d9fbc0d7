"""Analyzer incremental-cache speedup: warm runs must be >= 3x cold.

Runs the full ``repro.analysis`` pipeline (both passes, all rules) over
the repository's own ``src`` + ``tests`` trees twice against a fresh
cache directory — once cold (every file analyzed, cache populated) and
once warm (every per-file entry and the project entry served from the
cache) — and writes the machine-readable ``BENCH_analysis.json``
baseline: records of ``{run, seconds, files, findings, cache_hits,
cache_misses, speedup_vs_cold}``, written to ``benchmarks/results/``.

The gate asserts warm >= 3x cold.  The real ratio on this tree is ~40x
(the warm run is one JSON read plus hash checks); 3x leaves headroom
for slow CI filesystems while still failing outright if cache keying
breaks and files silently re-analyze.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis import AnalysisConfig, analyze_paths, load_config

REPO_ROOT = Path(__file__).resolve().parents[1]
MIN_SPEEDUP = 3.0


def _timed_run(cache_dir: Path):
    config = load_config(REPO_ROOT)
    start = time.perf_counter()
    result = analyze_paths(
        ["src", "tests"], root=REPO_ROOT, config=config, cache_dir=cache_dir
    )
    return time.perf_counter() - start, result


def test_warm_cache_speedup(tmp_path, save_bench):
    cache_dir = tmp_path / "analysis-cache"

    cold_seconds, cold = _timed_run(cache_dir)
    warm_seconds, warm = _timed_run(cache_dir)

    # The warm run must reproduce the cold run, not just beat it.
    key = lambda f: (f.path, f.line, f.code)  # noqa: E731
    assert sorted(map(key, warm.findings)) == sorted(map(key, cold.findings))
    assert warm.cache_misses == 0
    assert warm.cache_hits == warm.files_checked + 1  # + project entry

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    save_bench(
        "analysis",
        [
            {
                "run": "cold",
                "seconds": round(cold_seconds, 4),
                "files": cold.files_checked,
                "findings": len(cold.findings),
                "cache_hits": cold.cache_hits,
                "cache_misses": cold.cache_misses,
                "speedup_vs_cold": 1.0,
            },
            {
                "run": "warm",
                "seconds": round(warm_seconds, 4),
                "files": warm.files_checked,
                "findings": len(warm.findings),
                "cache_hits": warm.cache_hits,
                "cache_misses": warm.cache_misses,
                "speedup_vs_cold": round(speedup, 2),
            },
        ],
    )

    assert speedup >= MIN_SPEEDUP, (
        f"warm run only {speedup:.1f}x faster than cold "
        f"({warm_seconds:.3f}s vs {cold_seconds:.3f}s); cache keying broken?"
    )


def test_jobs_flag_matches_serial(tmp_path):
    """--jobs must not change results (same findings, any order)."""
    config = AnalysisConfig()
    serial = analyze_paths(["src"], root=REPO_ROOT, config=config)
    parallel = analyze_paths(["src"], root=REPO_ROOT, config=config, jobs=2)
    key = lambda f: (f.path, f.line, f.code, f.message)  # noqa: E731
    assert sorted(map(key, parallel.findings)) == sorted(
        map(key, serial.findings)
    )
    assert parallel.files_checked == serial.files_checked
