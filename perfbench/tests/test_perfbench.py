"""Self-test of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench/tests -q

Short runs of every workload prove each declared metric is emitted with
its unit; the correctness checks are fed deliberately wrong answers; the
ladder's interval coverage is checked on hand-built spans.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import ladder  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(cwd: Path, workload_name: str, trace: int, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload_name,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
        env={**os.environ, **(env or {})},
    )


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = []
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(WORKLOADS) == set(workload.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_short_run_emits_every_declared_metric(workload_name, trace):
    proc = _run(ROOT, workload_name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0
    if not trace:  # every percentile is printed with its sample count
        for name in ("chunk_latency_p50_ms", "chunk_latency_p99_ms"):
            line = next(ln for ln in proc.stdout.splitlines() if f" {name} " in ln)
            assert int(line.split("n=")[1].split()[0]) >= run.MIN_CHUNKS


def test_no_program_means_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


# -- each correctness check rejects a deliberately wrong answer -----------


@pytest.fixture
def one_pass(tmp_path):
    """Build a workload in this process and run one pass over its inputs."""
    from inputs import ensure_inputs
    from repro.kernels import set_backend

    built = []

    def build(name):
        inputs = ensure_inputs(run.WORK / "inputs", name, 7)
        meta = json.loads((inputs / "meta.json").read_text())
        bench = workload.WORKLOADS[name](inputs, tmp_path, meta)
        built.append(bench)
        bench.run_pass()
        return bench

    yield build
    for bench in built:
        bench.close()
    set_backend("numpy")


def test_shed_bulk_check_rejects_a_wrong_exact_f2(one_pass):
    bench = one_pass("shed_bulk")
    assert bench.check(1) == (1, [])
    bench.meta = {**bench.meta, "exact_f2": 4 * bench.meta["exact_f2"]}
    _, failures = bench.check(1)
    assert len(failures) == 1 and "Chebyshev" in failures[0]


def test_micro_native_checks_reject_changed_counters(one_pass):
    from repro.kernels import native_available

    if not native_available():
        pytest.skip("native kernel backend unavailable")
    bench = one_pass("micro_native")
    assert bench.check(1) == (2, [])
    bench.engine.consume("scan", np.array([7], dtype=np.int64))
    _, failures = bench.check(1)
    assert len(failures) == 2
    assert "numpy replay" in failures[0] and "newest checkpoint" in failures[1]


def test_dashboard_checks_reject_a_wrong_answer_and_a_wrong_snapshot(
    one_pass, monkeypatch
):
    bench = one_pass("dashboard")
    checks, failures = bench.check(1)
    assert (checks, failures) == (10, [])

    def bumped(payload):
        fields = served_fields(payload)
        return {**fields, "estimate": 2 * fields["estimate"] + 1}

    served_fields = workload.served_fields
    monkeypatch.setattr(workload, "served_fields", bumped)
    _, failures = bench.check(1)
    assert len(failures) == 8 and all("final refresh" in f for f in failures)
    monkeypatch.undo()

    bench.registry.ingest("a", np.array([7], dtype=np.int64))
    bench.registry.rotate("a")
    _, failures = bench.check(1)
    assert failures == [
        "dashboard final snapshot a vs offline replay: counters differ (5 cells)"
    ]


def test_micro_native_never_falls_back_to_numpy():
    """Without a C compiler the native workload fails instead of running numpy."""
    proc = _run(ROOT, "micro_native", 0, env={"CC": "no-such-compiler"})
    assert proc.returncode == 2
    assert "native kernel backend unavailable" in proc.stderr
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


# -- the ladder's interval coverage ----------------------------------------


def test_self_time_subtracts_nested_spans_across_threads():
    spans = ladder.Ladder()
    spans.record("dataplane", 0.0, 10.0)
    spans.record("serving.http", 1.0, 5.0)  # client thread
    spans.record("serving.registry", 2.0, 4.0)  # server thread, inside
    spans.record("engine", 2.5, 3.0)
    spans.record("streams", 6.0, 7.0)
    spans.record("streams", 11.0, 12.0)  # after the pass: top level
    self_s, covered = spans.self_times()
    assert self_s["dataplane"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_s["serving.http"] == pytest.approx(2.0)
    assert self_s["serving.registry"] == pytest.approx(1.5)
    assert self_s["engine"] == pytest.approx(0.5)
    assert self_s["streams"] == pytest.approx(2.0)
    assert covered == pytest.approx(11.0)
    metrics = spans.metrics(wall=12.0, chunks=2, queries=1)
    assert metrics["trace.unattributed_share"][0] == pytest.approx(1.0 / 12.0)
    assert metrics["serving.http.calls"] == (1, "count")
