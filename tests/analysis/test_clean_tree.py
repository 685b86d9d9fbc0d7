"""Tier-1 gate: the repository's own tree must satisfy every REP rule.

This is the enforcement point the static-analysis subsystem exists for —
``python -m pytest`` fails the moment anyone reintroduces an unseeded RNG,
a narrow accumulator dtype, a stale ``__all__``, a bare float equality, or
a sketch that skips ``check_compatible``.  It is exactly equivalent to
``python -m repro.analysis src tests`` exiting 0 from the repo root.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_paths, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repository_tree_is_clean():
    """``python -m repro.analysis src tests`` must exit 0 on this tree."""
    result = analyze_paths(paths=["src", "tests"], root=REPO_ROOT)
    assert result.files_checked > 100, "discovery missed most of the tree"
    assert result.exit_code == 0, "\n" + render_text(result, verbose=True)


def test_all_shipped_rules_are_registered_and_enforced():
    """The gate above is only meaningful if every shipped rule ran."""
    from repro.analysis import RULE_REGISTRY

    assert {
        "REP001",
        "REP002",
        "REP003",
        "REP004",
        "REP005",
        "REP006",
        "REP008",
        "REP010",
        "REP011",
        "REP012",
        "REP013",
    } <= set(RULE_REGISTRY)
