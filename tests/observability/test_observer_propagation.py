"""Every ``observer=`` reaches every observer-accepting callee.

The observability layer threads one ``Observer`` through every seam:
engine -> runtime -> shards -> merge.  Dropping it is silent: a function
that accepts ``observer=`` but calls an observer-accepting callee without
forwarding it does not crash, it just loses that subtree's spans and
metrics.

This test reads the running program.  For every function or method in
``repro`` with an ``observer`` parameter, each call in its body is
resolved through the function's ``__globals__`` (names and dotted
module/class attributes) or its owning class (``self.``/``cls.``
calls).  When the callee's signature (``inspect.signature``) has an
``observer`` parameter, the call must pass it by keyword, by position or
through ``**kwargs``.  Calls that cannot be resolved, or that spread
``*args`` over the observer's position, prove nothing and pass.  The
check itself is tested on small call shapes at the end of the file.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import inspect
import pkgutil
import textwrap
from dataclasses import dataclass

import pytest

import repro
from repro.dataplane import Pipeline

PARAM = "observer"

#: Observer-accepting defs in ``src/repro`` (none of them nested).
EXPECTED_AT_LEAST = 16

_POSITIONAL = (
    inspect.Parameter.POSITIONAL_ONLY,
    inspect.Parameter.POSITIONAL_OR_KEYWORD,
)


def _accepts_observer(func) -> bool:
    try:
        return PARAM in inspect.signature(func).parameters
    except (TypeError, ValueError):
        return False


def _observer_functions() -> list:
    """``(function, owner class or None)`` for every def taking observer=."""
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                for attr in vars(value).values():
                    method = getattr(attr, "__func__", attr)
                    if inspect.isfunction(method):
                        found.append((inspect.unwrap(method), value))
            elif inspect.isfunction(value):
                found.append((inspect.unwrap(value), None))
    return [(func, owner) for func, owner in found if _accepts_observer(func)]


def _own_calls(node):
    """Calls in a def's body, not descending into nested defs or lambdas."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(child, ast.Call):
            yield child
        stack.extend(ast.iter_child_nodes(child))


def _resolve(call: ast.Call, func, owner):
    """``(callee, binds_self)`` for a resolvable call, else ``None``."""
    parts = []
    target = call.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if not isinstance(target, ast.Name):
        return None
    head = target.id
    parts.reverse()
    if head in ("self", "cls") and owner is not None and parts:
        name = parts[0]
        if len(parts) != 1 or not hasattr(owner, name):
            return None
        static = inspect.getattr_static(owner, name)
        plain = inspect.isfunction(static)
        return getattr(owner, name), plain and head == "self"
    code = func.__code__
    if head in (*code.co_varnames, *code.co_cellvars, *code.co_freevars):
        return None  # a local or closure variable: its value is unknown
    if head in func.__globals__:
        value = func.__globals__[head]
    elif hasattr(builtins, head):
        value = getattr(builtins, head)
    else:
        return None
    for part in parts:
        if not hasattr(value, part):
            return None
        value = getattr(value, part)
    return value, False


def _forwards(call: ast.Call, callee, binds_self: bool) -> bool:
    """Whether *call* hands *callee* the observer (or may, unprovably)."""
    if any(kw.arg in (PARAM, None) for kw in call.keywords):
        return True
    positional = [
        param.name
        for param in inspect.signature(callee).parameters.values()
        if param.kind in _POSITIONAL
    ]
    if PARAM not in positional:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return len(call.args) + binds_self > positional.index(PARAM)


def _drops(func, owner) -> list:
    source = textwrap.dedent(inspect.getsource(func))
    node = ast.parse(source).body[0]
    first_line = func.__code__.co_firstlineno
    drops = []
    for call in _own_calls(node):
        resolved = _resolve(call, func, owner)
        if resolved is None:
            continue
        callee, binds_self = resolved
        if not callable(callee) or not _accepts_observer(callee):
            continue
        if not _forwards(call, callee, binds_self):
            line = first_line + call.lineno - 1
            drops.append(
                f"{func.__module__}.{func.__qualname__} (line {line}) calls "
                f"{ast.unparse(call.func)} without forwarding {PARAM}="
            )
    return drops


@pytest.fixture(scope="module")
def observer_functions():
    return _observer_functions()


def test_finds_every_observer_accepting_def(observer_functions):
    """The check below is vacuous if discovery finds nothing to check."""
    names = {f"{f.__module__}.{f.__qualname__}" for f, _ in observer_functions}
    assert len(names) >= EXPECTED_AT_LEAST, sorted(names)
    assert "repro.parallel.coordinator.run_sharded_sketch" in names
    assert "repro.dataplane.pipeline.Pipeline.__init__" in names


def test_observer_reaches_every_observer_accepting_callee(observer_functions):
    drops = [
        drop
        for func, owner in observer_functions
        for drop in _drops(func, owner)
    ]
    assert not drops, "\n".join(drops)


# ----------------------------------------------------------------------
# The check on small call shapes (never executed, only read).
# ----------------------------------------------------------------------


def _consume(stream, observer=None):
    return list(stream)


def _helper(data):
    return data


class _Runtime:
    def __init__(self, sketch, observer=None):
        self.observer = observer


@dataclass
class _Stage:
    name: str
    observer: object = None


class _Engine:
    def _inner(self, data, observer=None):
        return data

    def run(self, data, observer=None):
        return self._inner(data)


def _keyword_drop(data, observer=None):
    return _consume(data)


def _constructor_drop(sketch, observer=None):
    return _Runtime(sketch)


def _dataclass_constructor_drop(observer=None):
    return _Stage("scan")


def _cross_module_drop(source, observer=None):
    return Pipeline(source)


def _keyword_forwarding(data, observer=None):
    return _consume(data, observer=observer)


def _positional_forwarding(data, observer=None):
    return _consume(data, observer)


def _kwargs_spread(data, observer=None, **kwargs):
    return _consume(data, **kwargs)


def _caller_without_observer(data):
    return _consume(data)


def _callee_without_observer(data, observer=None):
    return _helper(data)


def _unresolvable_callee(data, make, observer=None):
    return make(data)


class TestDropsFire:
    def test_keyword_drop_same_module(self):
        (drop,) = _drops(_keyword_drop, None)
        assert "_consume" in drop and "observer=" in drop

    def test_constructor_drop(self):
        (drop,) = _drops(_constructor_drop, None)
        assert "_Runtime" in drop

    def test_dataclass_constructor_drop(self):
        assert len(_drops(_dataclass_constructor_drop, None)) == 1

    def test_self_method_drop(self):
        (drop,) = _drops(_Engine.run, _Engine)
        assert "self._inner" in drop

    def test_cross_module_drop(self):
        (drop,) = _drops(_cross_module_drop, None)
        assert "Pipeline" in drop


class TestForwardingPasses:
    def test_keyword_forwarding(self):
        assert _drops(_keyword_forwarding, None) == []

    def test_positional_forwarding(self):
        assert _drops(_positional_forwarding, None) == []

    def test_kwargs_spread_passes(self):
        assert _drops(_kwargs_spread, None) == []

    def test_caller_without_observer_not_flagged(self):
        # Only defs that accept observer= are checked at all.
        assert not _accepts_observer(_caller_without_observer)

    def test_callee_without_observer_not_flagged(self):
        assert _drops(_callee_without_observer, None) == []

    def test_unresolvable_callee_not_flagged(self):
        assert _drops(_unresolvable_callee, None) == []
