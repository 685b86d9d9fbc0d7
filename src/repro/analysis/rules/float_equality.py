"""REP004 — no bare ``==``/``!=`` against float expressions.

The estimators return floats assembled from long reduction chains; two
mathematically-equal quantities (e.g. a variance computed through the
profile evaluator vs the array evaluator) differ in the last ulps, so an
exact comparison encodes a latent flake.  Production code must compare
through ``math.isclose``/``numpy.isclose`` or restructure; tests are
exempt by configuration (they often pin exact literals on purpose).

Heuristics (AST-only, no type inference): an operand is *obviously float*
when it is a float literal, a true division, a call to ``float``/
``math.*``/``numpy`` float-returning reducers, or unary ± of one of those.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..registry import FileContext, Finding, Rule, register_rule
from .common import ImportTable, qualified_name

__all__ = ["FloatEqualityRule"]

#: Calls whose results are floats for comparison purposes.
_FLOAT_RETURNING = {
    "float",
    "math.sqrt",
    "math.exp",
    "math.log",
    "math.log2",
    "math.log10",
    "math.pow",
    "math.fsum",
    "math.hypot",
    "math.erf",
    "numpy.sqrt",
    "numpy.exp",
    "numpy.log",
    "numpy.mean",
    "numpy.std",
    "numpy.var",
    "numpy.float64",
}


def _is_float_expression(node: ast.expr, imports: ImportTable) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_float_expression(node.operand, imports)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Pow)):
            return _is_float_expression(node.left, imports) or _is_float_expression(
                node.right, imports
            )
        return False
    if isinstance(node, ast.Call):
        name = qualified_name(node.func, imports)
        return name in _FLOAT_RETURNING
    return False


@register_rule
class FloatEqualityRule(Rule):
    """Flag exact equality comparisons on float-typed expressions."""

    code = "REP004"
    name = "float-equality"
    description = (
        "bare ==/!= on float expressions is a latent flake; compare with "
        "math.isclose/numpy.isclose or restructure"
    )
    default_include = ("src",)
    default_exclude = ("tests",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_expression(left, imports) or _is_float_expression(
                    right, imports
                ):
                    token = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        ctx,
                        node,
                        f"exact float comparison with {token!r}; use "
                        "math.isclose/numpy.isclose, or add a justified "
                        "suppression if exact equality is intended (e.g. "
                        "sentinel values)",
                    )
