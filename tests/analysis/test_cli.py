"""The ``python -m repro.analysis`` / ``repro-analysis`` command line."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write(tmp_path: Path, rel: str, source: str) -> None:
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")


@pytest.fixture
def bad_tree(tmp_path: Path) -> Path:
    _write(
        tmp_path,
        "src/repro/offender.py",
        "import numpy as np\nrng = np.random.default_rng(0)\n",
    )
    return tmp_path


class TestMain:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "src/repro/fine.py", "import numpy as np\n")
        assert main(["--root", str(tmp_path), "src"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, bad_tree, capsys):
        assert main(["--root", str(bad_tree), "src"]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "src/repro/offender.py:2:" in out

    def test_json_format(self, bad_tree, capsys):
        assert main(["--root", str(bad_tree), "-f", "json", "src"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 1

    def test_select_limits_rules(self, bad_tree, capsys):
        assert main(["--root", str(bad_tree), "--select", "REP004", "src"]) == 0
        capsys.readouterr()

    def test_unknown_rule_code_is_usage_error(self, bad_tree, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--root", str(bad_tree), "--select", "REP999", "src"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_nonexistent_path_is_usage_error(
        self, bad_tree, tmp_path_factory, capsys
    ):
        # A typo'd path in a CI line must not silently check 0 files, and
        # neither may a path that discovery skips: a non-Python file, a
        # directory outside the root, or a .py file outside the root.
        _write(bad_tree, "README.md", "# notes\n")
        outside = tmp_path_factory.mktemp("outside")
        _write(outside, "stray.py", "import numpy as np\n")
        for raw in ("srk", "README.md", str(outside), str(outside / "stray.py")):
            with pytest.raises(SystemExit) as excinfo:
                main(["--root", str(bad_tree), raw])
            assert excinfo.value.code == 2, raw
            capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
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
        ):
            assert code in out

    def test_syntax_error_reported_as_rep000(self, tmp_path, capsys):
        _write(tmp_path, "src/repro/broken.py", "def broken(:\n")
        assert main(["--root", str(tmp_path), "src"]) == 1
        assert "REP000" in capsys.readouterr().out

    def test_coding_cookie_is_honoured(self, tmp_path, capsys):
        target = tmp_path / "src/repro/latin.py"
        target.parent.mkdir(parents=True)
        target.write_bytes(b'# -*- coding: latin-1 -*-\nNAME = "caf\xe9"\n')
        assert main(["--root", str(tmp_path), "src"]) == 0
        assert "checked 1 file(s)" in capsys.readouterr().out

    def test_undecodable_file_reported_as_rep000(self, tmp_path, capsys):
        package = tmp_path / "src/repro"
        package.mkdir(parents=True)
        (package / "bogus.py").write_bytes(b"# coding: bogus\nX = 1\n")
        (package / "stray.py").write_bytes(b'X = 1\nNAME = "caf\xe9"\n')
        assert main(["--root", str(tmp_path), "-f", "json", "src"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["files_checked"] == 2
        assert [
            (f["code"], f["path"], f["line"]) for f in report["findings"]
        ] == [
            ("REP000", "src/repro/bogus.py", 1),
            ("REP000", "src/repro/stray.py", 2),
        ]


class TestSelectionFlags:
    def test_ignore_skips_a_firing_rule(self, bad_tree, capsys):
        assert main(["--root", str(bad_tree), "--ignore", "REP001", "src"]) == 0
        capsys.readouterr()

    def test_ignore_wins_over_select(self, bad_tree, capsys):
        assert (
            main(
                [
                    "--root",
                    str(bad_tree),
                    "--select",
                    "REP001",
                    "--ignore",
                    "REP001",
                    "src",
                ]
            )
            == 0
        )
        capsys.readouterr()

    def test_unknown_ignore_code_is_usage_error(self, bad_tree, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--root", str(bad_tree), "--ignore", "REP999", "src"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_toml_disablement_survives_select(self, bad_tree, capsys):
        # ``enabled = false`` in pyproject.toml switches the rule off at
        # the config layer; ``--select`` narrows but cannot re-enable.
        _write(
            bad_tree,
            "pyproject.toml",
            "[tool.repro.analysis.rep001]\nenabled = false\n",
        )
        assert main(["--root", str(bad_tree), "--select", "REP001", "src"]) == 0
        capsys.readouterr()

    def test_cli_select_narrows_toml_enabled_set(self, bad_tree, capsys):
        # Config leaves every rule on; --select REP004 must still skip
        # the REP001 offender.
        _write(bad_tree, "pyproject.toml", "[tool.repro.analysis]\n")
        assert main(["--root", str(bad_tree), "--select", "REP004", "src"]) == 0
        capsys.readouterr()


class TestSarifFormat:
    def test_sarif_output_parses(self, bad_tree, capsys):
        assert main(["--root", str(bad_tree), "-f", "sarif", "src"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        results = payload["runs"][0]["results"]
        assert results and results[0]["ruleId"] == "REP001"


class TestNoTomlParser:
    def test_py310_without_tomllib_uses_defaults(self, bad_tree, capsys, monkeypatch):
        # Python 3.10 has neither ``tomllib`` nor (necessarily) ``tomli``;
        # config loading must fall back to in-code defaults, not crash.
        monkeypatch.setitem(sys.modules, "tomllib", None)
        monkeypatch.setitem(sys.modules, "tomli", None)
        _write(
            bad_tree,
            "pyproject.toml",
            "[tool.repro.analysis.rep001]\nenabled = false\n",
        )
        # The TOML disablement is unreadable, so the rule stays on.
        assert main(["--root", str(bad_tree), "src"]) == 1
        assert "REP001" in capsys.readouterr().out


class TestModuleInvocation:
    def test_python_dash_m_runs(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        process = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert process.returncode == 0
        assert "REP001" in process.stdout
