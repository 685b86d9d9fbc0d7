"""Analysis engine: discovery, suppressions, one pass of rule dispatch.

Every file is parsed once into a :class:`FileContext` (source, tree and
import table) and every selected :class:`Rule` runs on it in isolation.
:func:`analyze_sources` is that pass for every entry point:
:func:`analyze_paths` reads a tree from disk and hands it over, and
:func:`analyze_source` hands over one in-memory file.

Suppression syntax
------------------
Append a comment to the offending line::

    rng = np.random.default_rng()          # repro: noqa(REP001)
    x = a.sum() == b.sum()                 # repro: noqa(REP002, REP004)
    anything_goes()                        # repro: noqa

``# repro: noqa`` with no argument suppresses every rule on that line; the
parenthesized form suppresses only the listed codes.  Suppressions are
per-line (matched against the finding's reported line) — with one
widening: a suppression on *any* physical line of a multi-line **simple**
statement (a call spanning several lines, a long assignment, …) covers
the whole statement, because rules report such findings at the
statement's first line while the comment naturally lands on the last.
Compound statements (``def``, ``if``, ``for``, …) are *not* widened, so
a trailing comment inside a function body never suppresses the whole
body.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Optional

from .config import AnalysisConfig, load_config
from .registry import FileContext, Finding, Severity, all_rules

__all__ = [
    "AnalysisResult",
    "analyze_source",
    "analyze_sources",
    "analyze_paths",
    "discover_files",
    "parse_suppressions",
    "effective_suppressions",
]

_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\(\s*(?P<codes>[A-Z0-9,\s]*?)\s*\))?",
    re.IGNORECASE,
)

#: Statement types whose multi-line spans a trailing noqa comment covers.
#: Deliberately only *simple* statements — widening a compound statement
#: (FunctionDef, If, For, …) would let one comment mute its entire body.
_SIMPLE_STATEMENTS = (
    ast.Expr,
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Return,
    ast.Raise,
    ast.Assert,
    ast.Delete,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
)


@dataclasses.dataclass
class AnalysisResult:
    """Findings plus bookkeeping from one analyzer run."""

    findings: list
    files_checked: int
    suppressed: int = 0

    @property
    def errors(self) -> list:
        """Findings at :attr:`Severity.ERROR`."""
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def exit_code(self) -> int:
        """0 clean / 1 findings — what the CLI and CI key off."""
        return 1 if self.findings else 0


def parse_suppressions(source: str) -> dict:
    """Map line number -> set of suppressed codes (empty set = all rules)."""
    suppressions: dict[int, set] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_PATTERN.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = set()
        else:
            suppressions[lineno] = {
                code.strip().upper() for code in codes.split(",") if code.strip()
            }
    return suppressions


def effective_suppressions(
    source: str, tree: Optional[ast.Module] = None
) -> dict:
    """Per-line suppressions, widened across multi-line simple statements.

    A rule reports a finding for ``pool.submit(\\n  bad,\\n)`` at the
    statement's *first* line, but the natural place for the comment is the
    *last*.  For every multi-line simple statement, suppressions found on
    any of its physical lines are merged and applied to all of them.
    """
    base = parse_suppressions(source)
    if tree is None:
        try:
            tree = ast.parse(source)
        except SyntaxError:
            return base
    expanded = {line: set(codes) for line, codes in base.items()}
    for node in ast.walk(tree):
        if not isinstance(node, _SIMPLE_STATEMENTS):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        if end <= node.lineno:
            continue
        span = range(node.lineno, end + 1)
        hits = [base[line] for line in span if line in base]
        if not hits:
            continue
        blanket = any(not codes for codes in hits)
        merged: set = set().union(*hits)
        for line in span:
            existing = expanded.get(line)
            if blanket or (existing is not None and not existing):
                expanded[line] = set()
            elif existing is None:
                expanded[line] = set(merged)
            else:
                expanded[line] = existing | merged
    return expanded


def _is_suppressed(finding: Finding, suppressions: dict) -> bool:
    codes = suppressions.get(finding.line)
    if codes is None:
        return False
    return not codes or finding.code in codes


def _selected_codes(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> Optional[set]:
    """The final code set, or ``None`` for "every registered rule"."""
    if select is None and ignore is None:
        return None
    codes = (
        set(select)
        if select is not None
        else {rule.code for rule in all_rules()}
    )
    if ignore:
        codes -= set(ignore)
    return codes


def _check_file(
    source: str,
    rel_path: str,
    config: AnalysisConfig,
    selected: Optional[set],
):
    """Parse one file and run every selected rule on it.

    Returns ``(findings, suppressed)``; a file that does not parse yields
    one ``REP000`` finding instead.
    """
    try:
        base_ctx = FileContext.from_source(source, rel_path)
    except SyntaxError as exc:
        finding = Finding(
            path=rel_path,
            line=exc.lineno or 1,
            column=(exc.offset or 1) - 1,
            code="REP000",
            message=f"file does not parse: {exc.msg}",
            severity=Severity.ERROR,
        )
        return [finding], 0
    suppressions = effective_suppressions(source, base_ctx.tree)
    findings: list[Finding] = []
    suppressed = 0
    for rule in all_rules():
        if selected is not None and rule.code not in selected:
            continue
        rule_config = config.rule_config(rule.code)
        include = rule_config.include or rule.default_include
        exclude = rule_config.exclude or rule.default_exclude
        effective = dataclasses.replace(
            rule_config, include=include, exclude=exclude
        )
        if not effective.applies_to(rel_path):
            continue
        ctx = dataclasses.replace(base_ctx, options=rule_config.options)
        severity = config.severity_for(rule.code)
        for finding in rule.check(ctx):
            finding = dataclasses.replace(finding, severity=severity)
            if _is_suppressed(finding, suppressions):
                suppressed += 1
            else:
                findings.append(finding)
    return findings, suppressed


def analyze_source(
    source: str,
    rel_path: str,
    config: Optional[AnalysisConfig] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> AnalysisResult:
    """Analyze one in-memory source file (the unit tests' entry point)."""
    return analyze_sources(
        {rel_path: source}, config=config, select=select, ignore=ignore
    )


def analyze_sources(
    sources: dict,
    config: Optional[AnalysisConfig] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> AnalysisResult:
    """Analyze a dict of ``rel_path -> source``, one file at a time."""
    config = config or AnalysisConfig()
    selected = _selected_codes(select, ignore)
    findings: list[Finding] = []
    suppressed = 0
    for rel_path in sorted(sources):
        file_findings, file_suppressed = _check_file(
            sources[rel_path], rel_path, config, selected
        )
        findings.extend(file_findings)
        suppressed += file_suppressed
    findings.sort()
    return AnalysisResult(
        findings=findings, files_checked=len(sources), suppressed=suppressed
    )


def discover_files(
    paths: Iterable[Path], root: Path, exclude: Iterable[str]
) -> list:
    """Expand *paths* into the sorted list of ``.py`` files to analyze."""
    from .config import path_matches

    files: set[Path] = set()
    root = root.resolve()
    for path in paths:
        path = Path(path)
        if not path.is_absolute():
            path = root / path
        if path.is_file() and path.suffix == ".py":
            files.add(path.resolve())
        elif path.is_dir():
            files.update(p.resolve() for p in path.rglob("*.py"))
    kept = []
    for path in sorted(files):
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            continue  # outside the analysis root
        if not path_matches(rel, exclude):
            kept.append(path)
    return kept


def analyze_paths(
    paths: Optional[Iterable] = None,
    root: Optional[Path] = None,
    config: Optional[AnalysisConfig] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> AnalysisResult:
    """Analyze a tree on disk: the library entry point behind the CLI.

    Discovers the ``.py`` files under *paths* (default: the configured
    ``paths``), decodes each one and runs :func:`analyze_sources` over
    them.  A file that does not decode is reported as ``REP000``, like a
    file that does not parse.
    """
    root = Path(root) if root is not None else Path.cwd()
    if config is None:
        config = load_config(root)
    else:
        # Rules register on import; an explicit config skips load_config.
        from . import rules as _rules  # noqa: F401  (import for side effect)
    targets = [Path(p) for p in paths] if paths else list(config.paths)
    resolved_root = root.resolve()
    sources: dict = {}
    undecodable: list[Finding] = []
    for path in discover_files(targets, root, config.exclude):
        rel = path.relative_to(resolved_root).as_posix()
        raw = io.BytesIO(path.read_bytes())
        try:
            # As tokenize.open: a PEP 263 cookie or a BOM picks the codec,
            # else UTF-8.  Reading from memory keeps the absolute path out
            # of the error messages.
            encoding, _ = tokenize.detect_encoding(raw.readline)
            raw.seek(0)
            sources[rel] = io.TextIOWrapper(raw, encoding).read()
        except (SyntaxError, UnicodeDecodeError) as exc:
            line = 1  # detect_encoding's SyntaxError carries no position
            if isinstance(exc, UnicodeDecodeError):
                line = exc.object.count(b"\n", 0, exc.start) + 1
            message = f"file does not decode: {exc}"
            undecodable.append(Finding(rel, line, 0, "REP000", message))
    result = analyze_sources(
        sources, config=config, select=select, ignore=ignore
    )
    if undecodable:
        result.findings = sorted(result.findings + undecodable)
        result.files_checked += len(undecodable)
    return result
