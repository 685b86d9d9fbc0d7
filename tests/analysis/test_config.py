"""Per-rule configuration read from ``pyproject.toml``."""

from __future__ import annotations

from repro.analysis import analyze_paths, load_config


def test_empty_exclude_list_clears_the_rule_default(tmp_path):
    """``exclude = []`` means no exclusions, not the rule's in-code default.

    REP001's default exclude is ``src/repro/rng.py``; with the list
    cleared in the TOML table, that module's own ``default_rng`` call is
    reported like any other.
    """
    module = tmp_path / "src" / "repro" / "rng.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "import numpy as np\n\n_generator = np.random.default_rng(1)\n"
    )
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro.analysis.rep001]\n"
        'include = ["src"]\n'
        "exclude = []\n"
    )
    result = analyze_paths(
        ["src"], root=tmp_path, config=load_config(tmp_path), select={"REP001"}
    )
    assert [(f.code, f.path) for f in result.findings] == [
        ("REP001", "src/repro/rng.py")
    ]
