"""REP002 — power sums and sketch accumulators must promote explicitly.

The frequency moments the paper's variance formulas consume (F₂…F₄ and
cross moments ``Σ fᵢᵃ gᵢᵇ``) overflow int32 — and for skewed Zipf data even
int64 — long before the stream is large.  Inside the frequency/variance/
sketch modules this rule therefore demands that

* array constructors never pick a *narrow* dtype (``int8/16/32``,
  ``uint*``, ``float16/32``) for counters or accumulators, and
* reductions over power expressions (``(f ** k).sum()`` and friends)
  state their accumulator dtype explicitly (``dtype=object`` for exact
  Python-int arithmetic, or ``np.int64``/``np.float64`` when the caller
  has proved the range), instead of inheriting numpy's platform default.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..registry import FileContext, Finding, Rule, register_rule
from .common import ImportTable, qualified_name

__all__ = ["DtypeSafetyRule"]

_NARROW_DTYPES = {
    "int8",
    "int16",
    "int32",
    "uint8",
    "uint16",
    "uint32",
    "uint64",
    "float16",
    "float32",
    "half",
    "single",
    "intc",
    "short",
}

_ARRAY_CONSTRUCTORS = {
    "numpy.zeros",
    "numpy.ones",
    "numpy.empty",
    "numpy.full",
    "numpy.array",
    "numpy.asarray",
    "numpy.arange",
    "numpy.zeros_like",
    "numpy.ones_like",
    "numpy.empty_like",
    "numpy.full_like",
}

#: Reductions whose accumulator dtype matters for power sums.
_REDUCTION_METHODS = {"sum", "prod", "cumsum", "cumprod", "dot"}
_REDUCTION_FUNCS = {
    "numpy.sum",
    "numpy.prod",
    "numpy.cumsum",
    "numpy.cumprod",
    "numpy.dot",
}


def _narrow_dtype_name(node: ast.expr, imports: ImportTable):
    """The narrow-dtype token of a ``dtype=`` value, or ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        token = node.value.lstrip("<>=|")
        return token if token in _NARROW_DTYPES else None
    name = qualified_name(node, imports)
    if name is None:
        return None
    tail = name.rsplit(".", 1)[-1]
    if name.startswith("numpy.") and tail in _NARROW_DTYPES:
        return tail
    return None


def _contains_power(node: ast.expr) -> bool:
    """Whether the expression tree contains a ``**`` anywhere."""
    return any(
        isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Pow)
        for sub in ast.walk(node)
    )


def _has_dtype_kwarg(call: ast.Call) -> bool:
    return any(kw.arg == "dtype" for kw in call.keywords)


@register_rule
class DtypeSafetyRule(Rule):
    """Flag narrow dtypes and implicit-dtype power-sum reductions."""

    code = "REP002"
    name = "dtype-safety"
    description = (
        "power-sum/accumulator arithmetic must promote to int64/float64/"
        "object explicitly; narrow dtypes and implicit reduction dtypes "
        "overflow on large frequency vectors"
    )
    default_include = (
        "src/repro/frequency.py",
        "src/repro/variance",
        "src/repro/sketches",
        "src/repro/sampling",
        "src/repro/kernels",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, imports)

            # (a) narrow dtype handed to an array constructor or astype().
            is_constructor = name in _ARRAY_CONSTRUCTORS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
            )
            if is_constructor:
                dtype_values = [
                    kw.value for kw in node.keywords if kw.arg == "dtype"
                ]
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"
                    and node.args
                ):
                    dtype_values.append(node.args[0])
                if name == "numpy.arange" and len(node.args) >= 4:
                    dtype_values.append(node.args[3])
                for value in dtype_values:
                    narrow = _narrow_dtype_name(value, imports)
                    if narrow is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"narrow dtype {narrow!r} in accumulator "
                            "context; frequency power sums overflow it — "
                            "promote to int64/float64 (or dtype=object "
                            "for exact moments)",
                        )

            # (b) reduction over a power expression with implicit dtype.
            is_reduction = name in _REDUCTION_FUNCS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _REDUCTION_METHODS
            )
            if is_reduction and not _has_dtype_kwarg(node):
                if name in _REDUCTION_FUNCS:
                    operand = node.args[0] if node.args else None
                else:
                    operand = node.func.value
                if operand is not None and _contains_power(operand):
                    yield self.finding(
                        ctx,
                        node,
                        "reduction over a power expression without an "
                        "explicit dtype=; numpy's default accumulator "
                        "overflows for F2..F4 on large/skewed frequency "
                        "vectors — pass dtype=object (exact) or "
                        "dtype=np.int64/np.float64",
                    )
