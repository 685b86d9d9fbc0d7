"""Smoke tests: every shipped example runs clean and prints its story.

Each example is executed in-process (import + ``main()``) with stdout
captured; assertions check the narrative landmarks, not exact numbers.
"""

import importlib
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


@pytest.fixture(autouse=True)
def _examples_on_path():
    sys.path.insert(0, str(EXAMPLES_DIR))
    yield
    sys.path.remove(str(EXAMPLES_DIR))


def _run(module_name, capsys):
    module = importlib.import_module(module_name)
    module.main()
    return capsys.readouterr().out


@pytest.mark.slow
def test_quickstart(capsys):
    out = _run("quickstart", capsys)
    assert "Self-join size of F" in out
    assert "covers truth: True" in out


@pytest.mark.slow
def test_load_shedding_monitor(capsys):
    out = _run("load_shedding_network_monitor", capsys)
    assert "true F2" in out
    assert "adaptive governor" in out
    assert "BURST" in out  # the governor must actually hit the burst phase
    assert "interval covers truth: True" in out
    assert "DDoS check" in out
    assert "ALERT" in out  # the injected attack must be detected


@pytest.mark.slow
def test_online_aggregation(capsys):
    out = _run("online_aggregation_tpch", capsys)
    assert "TPC-H dbgen-lite" in out
    assert "100%" in out


@pytest.mark.slow
def test_iid_generative_model(capsys):
    out = _run("iid_generative_model", capsys)
    assert "hidden population" in out
    assert "100.0%" in out


@pytest.mark.slow
def test_shedding_planner(capsys):
    out = _run("shedding_planner", capsys)
    assert "keep p =" in out
    assert "validation on fresh streams" in out


@pytest.mark.slow
def test_distributed_sketching(capsys):
    out = _run("distributed_sketching", capsys)
    assert "coordinator estimate" in out
    assert "relative error" in out
    assert "bit-identical to sequential: True" in out


@pytest.mark.slow
def test_traffic_drift_monitor(capsys):
    out = _run("traffic_drift_monitor", capsys)
    assert "DRIFT" in out
    # One table row per window, led by its right-aligned index.
    rows = {
        int(line.split()[0]): line
        for line in out.splitlines()
        if line[:6].strip().isdigit()
    }
    assert sorted(rows) == list(range(6))
    flagged = [index for index, line in rows.items() if "<< DRIFT" in line]
    assert flagged == [4, 5]


@pytest.mark.slow
def test_serving_demo(capsys):
    out = _run("serving_demo", capsys)
    assert "estimates while the scan is in flight" in out
    assert "95% CI" in out
    assert "scanned 100%" in out
    assert "shed with 429" in out
    assert "analyst: still served" in out
