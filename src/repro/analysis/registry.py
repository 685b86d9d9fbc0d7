"""Rule registry, findings, and severities for the invariant checker.

The checker is organized as a flat registry of :class:`Rule` objects,
each owning one ``REPnnn`` code.  A rule receives one fully-parsed
:class:`FileContext` at a time and yields :class:`Finding` objects.

The engine owns file discovery, suppression comments, and
severity/exit-code policy, so rules stay small and testable in isolation.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
from typing import Callable, Iterator, Optional

from .astutils import ImportTable

__all__ = [
    "Severity",
    "Finding",
    "FileContext",
    "Rule",
    "RULE_REGISTRY",
    "register_rule",
    "all_rules",
    "get_rule",
]


class Severity(enum.Enum):
    """How seriously a finding is treated when computing the exit code."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a concrete source location."""

    path: str
    line: int
    column: int
    code: str
    message: str
    severity: Severity = Severity.ERROR

    def location(self) -> str:
        """``path:line:col`` rendering used by the text reporter."""
        return f"{self.path}:{self.line}:{self.column}"

    def to_dict(self) -> dict:
        """JSON-serializable form (stable key order is the reporter's job)."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "code": self.code,
            "message": self.message,
            "severity": self.severity.value,
        }


@dataclasses.dataclass
class FileContext:
    """Everything a rule may inspect about one source file.

    ``rel_path`` is the path relative to the analysis root using ``/``
    separators — all include/exclude patterns match against it.
    ``imports`` is the file's import table, built once by
    :meth:`from_source` and shared by every rule.
    """

    rel_path: str
    source: str
    tree: ast.Module
    lines: tuple[str, ...]
    options: dict
    imports: ImportTable

    @classmethod
    def from_source(
        cls, source: str, rel_path: str, options: Optional[dict] = None
    ) -> "FileContext":
        """Parse *source* and build a context (raises ``SyntaxError``)."""
        tree = ast.parse(source, filename=rel_path)
        return cls(
            rel_path=rel_path,
            source=source,
            tree=tree,
            lines=tuple(source.splitlines()),
            options=dict(options or {}),
            imports=ImportTable(tree),
        )


class Rule:
    """Base class for one invariant check.

    Subclasses set the class attributes and implement :meth:`check`.
    ``default_include``/``default_exclude`` are pattern lists (see
    :func:`repro.analysis.config.path_matches`) restricting which files the
    rule runs on; both can be overridden from ``pyproject.toml``.
    """

    code: str = "REP000"
    name: str = "unnamed"
    description: str = ""
    default_severity: Severity = Severity.ERROR
    #: Patterns the rule is restricted to (empty = every analyzed file).
    default_include: tuple[str, ...] = ()
    #: Patterns the rule never runs on.
    default_exclude: tuple[str, ...] = ()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for *ctx*.  Subclasses must override."""
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        severity: Optional[Severity] = None,
    ) -> Finding:
        """Build a finding anchored at *node* (helper for subclasses)."""
        return Finding(
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            severity=severity or self.default_severity,
        )

    def finding_at(
        self,
        path: str,
        line: int,
        column: int,
        message: str,
        severity: Optional[Severity] = None,
    ) -> Finding:
        """Build a finding at an explicit location (no single node spans it)."""
        return Finding(
            path=path,
            line=line,
            column=column,
            code=self.code,
            message=message,
            severity=severity or self.default_severity,
        )


#: Global code -> rule-instance registry, populated at import time by the
#: modules under :mod:`repro.analysis.rules`.
RULE_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: Callable[[], Rule]):
    """Class decorator: instantiate and register a :class:`Rule` subclass."""
    rule = cls()
    if not rule.code or rule.code in RULE_REGISTRY:
        raise ValueError(f"duplicate or empty rule code: {rule.code!r}")
    RULE_REGISTRY[rule.code] = rule
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by code."""
    return [RULE_REGISTRY[code] for code in sorted(RULE_REGISTRY)]


def get_rule(code: str) -> Rule:
    """Look up one rule by its ``REPnnn`` code."""
    try:
        return RULE_REGISTRY[code]
    except KeyError:
        raise KeyError(
            f"unknown rule code {code!r}; known: {sorted(RULE_REGISTRY)}"
        ) from None
