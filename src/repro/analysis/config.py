"""Configuration for the invariant checker.

Defaults live *here*, in code, and mirror the ``[tool.repro.analysis]``
block in ``pyproject.toml``; the TOML block can override any of them.  That
way the checker behaves identically on Python 3.10 (no :mod:`tomllib`)
as long as the project block matches the shipped defaults, and a missing
``pyproject.toml`` is never fatal.

Path patterns
-------------
Include/exclude entries match against ``/``-separated paths relative to
the analysis root.  A pattern matches when it is

* an :mod:`fnmatch` glob matching the whole relative path
  (``src/repro/variance/*.py``), or
* an exact relative path (``src/repro/rng.py``), or
* a directory prefix (``tests`` matches everything under ``tests/``).
"""

from __future__ import annotations

import dataclasses
from fnmatch import fnmatch
from pathlib import Path
from typing import Optional

from .registry import RULE_REGISTRY, Severity

__all__ = [
    "RuleConfig",
    "AnalysisConfig",
    "load_config",
    "path_matches",
]


def path_matches(rel_path: str, patterns) -> bool:
    """True when *rel_path* matches any pattern (see module docstring)."""
    for pattern in patterns:
        pattern = pattern.rstrip("/")
        if not pattern:
            continue
        if (
            rel_path == pattern
            or rel_path.startswith(pattern + "/")
            or fnmatch(rel_path, pattern)
        ):
            return True
    return False


@dataclasses.dataclass
class RuleConfig:
    """Per-rule settings resolved from defaults + ``pyproject.toml``."""

    enabled: bool = True
    severity: Optional[Severity] = None
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    options: dict = dataclasses.field(default_factory=dict)

    def applies_to(self, rel_path: str) -> bool:
        """Whether the rule should run on *rel_path*."""
        if not self.enabled:
            return False
        if self.include and not path_matches(rel_path, self.include):
            return False
        return not path_matches(rel_path, self.exclude)


@dataclasses.dataclass
class AnalysisConfig:
    """Resolved checker configuration."""

    paths: tuple[str, ...] = ("src", "tests")
    exclude: tuple[str, ...] = (
        "build",
        "dist",
        ".git",
        "__pycache__",
        "tests/analysis/fixtures",
    )
    rules: dict = dataclasses.field(default_factory=dict)

    def rule_config(self, code: str) -> RuleConfig:
        """The resolved :class:`RuleConfig` for *code* (the rule's
        in-code defaults when *code* has no entry)."""
        config = self.rules.get(code)
        if config is None:
            config = _rule_config_from_table(RULE_REGISTRY[code], {})
        return config

    def severity_for(self, code: str) -> Severity:
        """Effective severity: per-rule override or the rule's default."""
        rule = RULE_REGISTRY.get(code)
        if rule is None:
            return Severity.ERROR
        override = self.rule_config(code).severity
        return rule.default_severity if override is None else override


def _read_pyproject_table(root: Path) -> dict:
    """The raw ``[tool.repro.analysis]`` table, or ``{}``.

    Gated on :mod:`tomllib`/``tomli`` so Python 3.10 without ``tomli``
    still runs with the in-code defaults.
    """
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return {}
    try:
        import tomllib
    except ImportError:  # pragma: no cover - 3.10 fallback
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            return {}
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("repro", {}).get("analysis", {})
    return table if isinstance(table, dict) else {}


def _rule_config_from_table(rule, table: dict) -> RuleConfig:
    """Merge one rule's defaults with its TOML sub-table."""
    severity = table.get("severity")
    return RuleConfig(
        enabled=bool(table.get("enabled", True)),
        severity=Severity(severity) if severity else None,
        include=tuple(table.get("include", rule.default_include)),
        exclude=tuple(table.get("exclude", rule.default_exclude)),
        options={
            key: value
            for key, value in table.items()
            if key not in {"enabled", "severity", "include", "exclude"}
        },
    )


def load_config(root: Path) -> AnalysisConfig:
    """Resolve the analyzer configuration for the tree rooted at *root*."""
    # Rules register on import; pull them in before building per-rule config.
    from . import rules as _rules  # noqa: F401  (import for side effect)

    table = _read_pyproject_table(root)
    config = AnalysisConfig(
        paths=tuple(table.get("paths", ("src", "tests"))),
        exclude=tuple(
            table.get(
                "exclude",
                (
                    "build",
                    "dist",
                    ".git",
                    "__pycache__",
                    "tests/analysis/fixtures",
                ),
            )
        ),
    )
    for code, rule in RULE_REGISTRY.items():
        sub = table.get(code.lower(), {})
        config.rules[code] = _rule_config_from_table(
            rule, sub if isinstance(sub, dict) else {}
        )
    return config
