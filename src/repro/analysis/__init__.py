"""Repo-specific static analysis: the invariants the runtime never checks.

This package is a self-contained checker for the reproduction's
correctness invariants (see ``docs/STATIC_ANALYSIS.md``).  It runs one
pass of AST rules over each file:

========  ====================  ================================================
Code      Name                  Invariant
========  ====================  ================================================
REP001    determinism           randomness flows through :mod:`repro.rng` only
REP002    dtype-safety          power sums/accumulators promote to int64/float64
REP003    api-consistency       ``__all__`` is real; public defs documented
REP004    float-equality        no bare ``==``/``!=`` on float expressions
REP005    estimator-contract    sketches implement the full interface and call
                                ``check_compatible`` before cross-sketch
                                estimates
REP006    metric-names          metric/span names are static dotted literals
REP008    kernel-seam           sketch updates route through the kernels backend
REP010    checkpoint-schema     checkpoint save/restore key sets stay symmetric
REP011    backoff-discipline    retry delays come from a ``BackoffPolicy``;
                                every retry loop can give up
REP012    async-blocking        no blocking calls inside ``async def`` bodies
REP013    ingest-discipline     no unbounded queues; scans run on
                                :mod:`repro.dataplane`
========  ====================  ================================================

Run it with ``python -m repro.analysis [paths]`` (or the installed
``repro-analysis`` script); the tier-1 test suite also executes it over
``src`` and ``tests`` so a violation fails CI.  ``-f sarif`` emits a
SARIF 2.1.0 report for code scanning.
"""

from __future__ import annotations

from .config import AnalysisConfig, RuleConfig, load_config, path_matches
from .engine import (
    AnalysisResult,
    analyze_paths,
    analyze_source,
    analyze_sources,
    discover_files,
    effective_suppressions,
    parse_suppressions,
)
from .registry import (
    RULE_REGISTRY,
    FileContext,
    Finding,
    Rule,
    Severity,
    all_rules,
    get_rule,
)
from .reporters import (
    REPORT_SCHEMA_VERSION,
    SARIF_VERSION,
    render_json,
    render_sarif,
    render_text,
)
from . import rules as _rules  # noqa: F401  — registers the REP rules

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "FileContext",
    "Finding",
    "REPORT_SCHEMA_VERSION",
    "RULE_REGISTRY",
    "Rule",
    "RuleConfig",
    "SARIF_VERSION",
    "Severity",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
    "discover_files",
    "effective_suppressions",
    "get_rule",
    "load_config",
    "parse_suppressions",
    "path_matches",
    "render_json",
    "render_sarif",
    "render_text",
]
