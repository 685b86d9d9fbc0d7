"""REP005 — sketch subclasses must honor the :class:`Sketch` contract.

Estimates across sketches are only meaningful when both sides share hash/ξ
families (same seed) and shape — the whole point of
``Sketch.check_compatible``.  A subclass that implements ``inner_product``
or overrides ``merge`` without (transitively) calling ``check_compatible``
silently produces garbage join estimates when handed a foreign sketch.
The rule also requires the full abstract interface so a partially-
implemented sketch fails review rather than failing at runtime.

The transitive part matters in practice: ``AgmsSketch.inner_product``
delegates to ``row_inner_products``, which performs the check — so the
rule asks the per-class ``self.*`` call graph
(:func:`~repro.analysis.rules.common.self_call_graph`) whether
``check_compatible`` is reachable from the override.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..registry import FileContext, Finding, Rule, register_rule
from .common import reaches, self_call_graph

__all__ = ["EstimatorContractRule"]

_REQUIRED_METHODS = (
    "update",
    "second_moment",
    "inner_product",
    "copy_empty",
    "_state",
)

_CHECKED_METHODS = ("inner_product", "merge")


def _base_names(cls: ast.ClassDef) -> set:
    names: set[str] = set()
    for base in cls.bases:
        if isinstance(base, ast.Attribute):
            names.add(base.attr)
        elif isinstance(base, ast.Name):
            names.add(base.id)
    return names


#: Callees that terminate the search: the check itself, or a delegation to a
#: base-class method that performs it (Sketch.merge / Sketch.check_compatible).
_SATISFYING_CALLEES = {
    "check_compatible",
    "super:check_compatible",
    "super:merge",
    "super:inner_product",
}


@register_rule
class EstimatorContractRule(Rule):
    """Enforce the Sketch interface and compatibility checks."""

    code = "REP005"
    name = "estimator-contract"
    description = (
        "Sketch subclasses must implement the full interface and route "
        "inner_product/merge through check_compatible"
    )
    default_include = ("src",)
    default_exclude = ("src/repro/sketches/base.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        base_class = ctx.options.get("base_class", "Sketch")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == base_class or base_class not in _base_names(node):
                continue
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            is_abstract = any(
                isinstance(dec, ast.Name)
                and dec.id in {"abstractmethod", "ABC"}
                for method in methods.values()
                for dec in method.decorator_list
            ) or "ABC" in _base_names(node)
            if not is_abstract:
                for required in _REQUIRED_METHODS:
                    if required not in methods:
                        yield self.finding(
                            ctx,
                            node,
                            f"sketch class {node.name!r} does not implement "
                            f"{required!r} from the Sketch interface "
                            "(sketches/base.py)",
                        )

            call_graph = self_call_graph(node)
            for checked in _CHECKED_METHODS:
                method = methods.get(checked)
                if method is None:
                    continue  # inherited implementation already checks
                if not reaches(call_graph, checked, _SATISFYING_CALLEES):
                    yield self.finding(
                        ctx,
                        method,
                        f"{node.name}.{checked} never calls "
                        "check_compatible (directly or via a helper); "
                        "estimates across incompatible sketches are "
                        "meaningless",
                    )
