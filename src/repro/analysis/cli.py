"""Command-line entry point: ``python -m repro.analysis`` / ``repro-analysis``.

Exit codes: 0 clean tree, 1 findings reported, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import load_config
from .engine import analyze_paths
from .registry import RULE_REGISTRY, all_rules
from .reporters import render_json, render_sarif, render_text

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-analysis`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description=(
            "Repo-specific invariant checker: one pass of AST rules over "
            "each file (REP001–REP006, REP008, REP010–REP013), from "
            "seeded randomness to kernel-seam bypass and checkpoint "
            "schema symmetry.  See --list-rules."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: paths from "
        "[tool.repro.analysis] in pyproject.toml)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="project root containing pyproject.toml (default: cwd)",
    )
    parser.add_argument(
        "-f",
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule codes to skip (applied after --select)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="include suppression counts"
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(
            f"{rule.code}  {rule.name:<20} [{rule.default_severity.value}] "
            f"{rule.description}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the checker; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    select = None
    if args.select:
        select = {code.strip().upper() for code in args.select.split(",")}
    ignore = None
    if args.ignore:
        ignore = {code.strip().upper() for code in args.ignore.split(",")}
    for label, codes in (("--select", select), ("--ignore", ignore)):
        if not codes:
            continue
        unknown = codes - set(RULE_REGISTRY)
        # Rules register on config load; pre-load so the check is accurate.
        if unknown:
            load_config(Path(args.root))
            unknown = codes - set(RULE_REGISTRY)
        if unknown:
            parser.error(f"unknown {label} rule code(s): {sorted(unknown)}")

    root = Path(args.root)
    if not root.is_dir():
        parser.error(f"--root {args.root!r} is not a directory")

    # A typo'd path must not pass green: "checked 0 file(s)" from a CI line
    # like `repro-analysis scr tests` would silently disable enforcement.
    # Nor may a path that discovery would skip: a non-Python file, or
    # anything outside the root.
    for raw in args.paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if not path.exists():
            parser.error(f"path {raw!r} does not exist under root {args.root!r}")
        if not (path.is_dir() or path.suffix == ".py"):
            parser.error(f"path {raw!r} is neither a directory nor a .py file")
        if not path.resolve().is_relative_to(root.resolve()):
            parser.error(f"path {raw!r} lies outside root {args.root!r}")

    result = analyze_paths(
        paths=args.paths or None, root=root, select=select, ignore=ignore
    )
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
