"""The seeded fixture trees: the kernel-seam and checkpoint rules.

The ``violations`` tree under ``tests/analysis/fixtures/`` triggers both
REP008 (per-element sketch updates bypassing the kernels backend) and
REP010 (a drifted checkpoint save/restore schema), the ``clean`` twin
stays silent, and the real-tree configuration excludes both.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, analyze_paths, load_config

FIXTURES = Path(__file__).resolve().parent / "fixtures"
NEW_CODES = {"REP008", "REP010"}


def _analyze(tree: str, select=NEW_CODES):
    return analyze_paths(
        ["src"], root=FIXTURES / tree, config=AnalysisConfig(), select=select
    )


@pytest.fixture(scope="module")
def violations():
    return _analyze("violations")


class TestViolationsTree:
    def test_every_new_rule_fires(self, violations):
        assert {f.code for f in violations.findings} == NEW_CODES

    def test_kernel_seam_bypasses(self, violations):
        rep008 = [f for f in violations.findings if f.code == "REP008"]
        assert {f.path for f in rep008} == {"src/repro/sketches/bad_loops.py"}
        joined = " | ".join(f.message for f in rep008)
        assert "per-element update to self._counters" in joined
        assert "numpy.add.at" in joined

    def test_checkpoint_schema_drift_both_directions(self, violations):
        rep010 = [f for f in violations.findings if f.code == "REP010"]
        joined = " | ".join(f.message for f in rep010)
        assert "'orphan'" in joined and "silently lost" in joined
        assert "'phantom'" in joined and "never" in joined


class TestCleanTree:
    def test_clean_twin_is_silent(self):
        result = _analyze("clean")
        assert result.findings == []

    def test_clean_twin_under_all_project_rules(self):
        # No select filter: with every rule running, REP008/REP010 stay quiet.
        result = _analyze("clean", select=None)
        assert [f for f in result.findings if f.code in NEW_CODES] == []


class TestRealTreeExclusion:
    def test_fixture_trees_are_excluded_from_real_runs(self):
        repo_root = Path(__file__).resolve().parents[2]
        config = load_config(repo_root)
        assert "tests/analysis/fixtures" in config.exclude

    def test_default_config_excludes_fixtures_without_toml(self):
        assert "tests/analysis/fixtures" in AnalysisConfig().exclude
