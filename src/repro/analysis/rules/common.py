"""Shared AST utilities for the invariant rules.

The central primitive is :class:`ImportTable` + :func:`qualified_name`,
which together resolve an attribute/call expression like
``np.random.default_rng(...)`` to its canonical dotted name
``numpy.random.default_rng`` regardless of how the module was imported
(``import numpy as np``, ``from numpy import random``,
``from numpy.random import default_rng``, …).  :func:`self_call_graph`
and :func:`reaches` answer "does this method get to that one through
``self.`` calls" within one class.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..astutils import ImportTable, qualified_name

__all__ = [
    "ImportTable",
    "qualified_name",
    "walk_with_parents",
    "iter_top_level_defs",
    "string_list_literal",
    "has_docstring",
    "self_call_graph",
    "reaches",
]


def walk_with_parents(tree: ast.AST) -> Iterator[tuple[ast.AST, ast.AST]]:
    """Yield ``(node, parent)`` pairs over the whole tree."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            yield child, parent


def iter_top_level_defs(
    tree: ast.Module,
) -> Iterator[ast.stmt]:
    """Top-level function/class definitions (including async functions)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def string_list_literal(node: ast.expr) -> Optional[list[str]]:
    """The string entries of a list/tuple literal, or ``None`` if dynamic."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    values: list[str] = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        values.append(element.value)
    return values


def has_docstring(node: ast.AST) -> bool:
    """Whether a module/def/class node carries a docstring."""
    try:
        return ast.get_docstring(node, clean=False) is not None
    except TypeError:  # pragma: no cover - non-docstring node kinds
        return False


def _self_calls(func: ast.AST) -> set:
    """Methods invoked as ``self.<name>(...)``, plus ``super:<name>`` markers."""
    called: set[str] = set()
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        receiver = node.func.value
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            called.add(node.func.attr)
        elif (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
        ):
            called.add(f"super:{node.func.attr}")
    return called


def self_call_graph(cls: ast.ClassDef) -> dict:
    """Method name -> the names its body calls on ``self`` (or ``super()``)."""
    return {
        item.name: _self_calls(item)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def reaches(call_graph: dict, start: str, targets) -> bool:
    """Whether *start*, or a method it reaches in *call_graph*, is a target."""
    seen: set[str] = set()
    frontier = [start]
    while frontier:
        current = frontier.pop()
        if current in targets:
            return True
        if current not in seen:
            seen.add(current)
            frontier.extend(call_graph.get(current, ()))
    return False
