"""REP008 — sketch updates must route through the kernels backend seam.

PR 2 made every sketch update path go through
:func:`repro.kernels.get_backend`, so the reference, numpy, and native
backends stay bit-identical and the Monte-Carlo validation of the
paper's propositions holds on all of them.  A hand-rolled per-element
update inside ``src/repro/sketches/`` — a ``for`` loop poking
``self._counters[idx] += w``, or a direct ``numpy.add.at`` on sketch
state — silently forks the arithmetic from the backends and is exactly
the kind of drift the seam exists to prevent.

The rule flags, inside its target files (``src/repro/sketches`` by
default):

* any ``numpy.add.at(...)`` call — that *is* the reference backend's
  scatter-add, and outside :mod:`repro.kernels` it is always a bypass;
* an assignment or augmented assignment to a ``self.<attr>[...]``
  subscript inside a ``for``/``while`` loop, **unless** the enclosing
  function reaches the backend seam — by calling it, or through a chain
  of same-class ``self.`` calls to a method that does — since a method
  that routes through the seam may still do per-element *setup* work
  around the kernel call.

The seam is ``repro.kernels.get_backend`` and the fused multi-sketch
entry point ``repro.kernels.fused_update`` (plus their defining
modules), resolved through the file's imports.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..registry import FileContext, Finding, Rule, register_rule
from .common import qualified_name, reaches, self_call_graph

__all__ = ["KernelSeamRule"]

#: Canonical names of the backend seam.
_SEAM_TARGETS = frozenset(
    {
        "repro.kernels.get_backend",
        "repro.kernels.backend.get_backend",
        "repro.kernels.fused_update",
        "repro.kernels.fused.fused_update",
    }
)

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _absolute(dotted: str, rel_path: str) -> str:
    """Resolve a relative import path (``..kernels.x``) against *rel_path*."""
    level = len(dotted) - len(dotted.lstrip("."))
    if not level:
        return dotted
    package = rel_path.removeprefix("src/").split("/")[:-1]
    return ".".join(package[: len(package) - level + 1] + [dotted[level:]])


def _subscript_self_target(node: ast.expr) -> Optional[str]:
    """``self.<attr>`` when *node* is a ``self.<attr>[...]`` store."""
    if not isinstance(node, ast.Subscript):
        return None
    base = node.value
    if (
        isinstance(base, ast.Attribute)
        and isinstance(base.value, ast.Name)
        and base.value.id == "self"
    ):
        return f"self.{base.attr}"
    return None


def _own_body_walk(node):
    """Walk a subtree without descending into nested function defs.

    Keeps each store and call attributed to exactly one function — the
    nested def is visited separately as its own function.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (*_FUNCTIONS, ast.Lambda)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _loop_state_stores(func_node):
    """``(node, "self.attr")`` pairs for subscript stores in loops.

    Deduplicated by node identity so a store inside nested loops is
    reported once.
    """
    seen: set = set()
    for node in _own_body_walk(func_node):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for inner in _own_body_walk(node):
            if id(inner) in seen:
                continue
            seen.add(id(inner))
            if isinstance(inner, ast.AugAssign):
                targets = [inner.target]
            elif isinstance(inner, ast.Assign):
                targets = inner.targets
            else:
                continue
            for assign_target in targets:
                target = _subscript_self_target(assign_target)
                if target is not None:
                    yield inner, target


@register_rule
class KernelSeamRule(Rule):
    """Flag per-element sketch updates that bypass the kernels backend."""

    code = "REP008"
    name = "kernel-seam"
    description = (
        "sketch update paths must route through repro.kernels.get_backend(); "
        "per-element loops and direct numpy.add.at calls fork the arithmetic "
        "from the backends"
    )
    default_include = ("src/repro/sketches",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        routed: set = set()  # methods that reach the seam via self. calls
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and self._canonical(ctx, node) == "numpy.add.at"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "direct numpy.add.at on sketch state bypasses the "
                    "kernels backend seam — use "
                    "get_backend().scatter_add() so all backends stay "
                    "bit-identical",
                )
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, _FUNCTIONS)]
                seam = {m.name for m in methods if self._calls_seam(ctx, m)}
                graph = self_call_graph(node)
                routed.update(
                    m for m in methods if reaches(graph, m.name, seam)
                )
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, _FUNCTIONS)
                and node not in routed
                and not self._calls_seam(ctx, node)
            ):
                for store, target in _loop_state_stores(node):
                    yield self.finding(
                        ctx,
                        store,
                        f"per-element update to {target} inside a loop "
                        "bypasses the kernels backend seam — route the "
                        "update through repro.kernels.get_backend() so all "
                        "backends stay bit-identical",
                    )

    @staticmethod
    def _canonical(ctx: FileContext, call: ast.Call) -> Optional[str]:
        dotted = qualified_name(call.func, ctx.imports)
        return None if dotted is None else _absolute(dotted, ctx.rel_path)

    @classmethod
    def _calls_seam(cls, ctx: FileContext, func_node) -> bool:
        return any(
            isinstance(node, ast.Call)
            and cls._canonical(ctx, node) in _SEAM_TARGETS
            for node in _own_body_walk(func_node)
        )
