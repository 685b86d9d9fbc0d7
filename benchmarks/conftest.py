"""Shared infrastructure for the benchmark/experiment suite.

Each ``test_fig*`` benchmark regenerates one of the paper's figures and
writes the resulting table both to stdout (visible with ``pytest -s``) and
to ``benchmarks/results/<name>.txt`` so the regenerated series survive the
run.  The scale is controlled with the ``REPRO_BENCH_SCALE`` environment
variable: ``small`` (default; seconds), ``default`` (minutes), or
``paper`` (the paper's sizes; hours).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentScale

RESULTS_DIR = Path(__file__).parent / "results"

_SCALES = {
    "small": ExperimentScale.small,
    "default": ExperimentScale.default,
    "paper": ExperimentScale.paper,
}


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale for this benchmark session."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    if name not in _SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {tuple(_SCALES)}, got {name!r}"
        )
    return _SCALES[name]()


@pytest.fixture(scope="session")
def save_result():
    """Persist and echo a figure table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save


@pytest.fixture(scope="session")
def save_bench():
    """Persist a machine-readable ``benchmarks/results/BENCH_<name>.json`` baseline."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, records) -> None:
        payload = json.dumps(records, indent=2) + "\n"
        (RESULTS_DIR / f"BENCH_{name}.json").write_text(payload)

    return _save
