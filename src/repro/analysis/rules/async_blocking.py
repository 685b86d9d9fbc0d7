"""REP012 — no blocking calls inside ``async def`` bodies.

The serving layer (:mod:`repro.serving`) runs its HTTP front end on a
single asyncio event loop.  Any synchronous blocking call inside a
coroutine — a ``time.sleep``, a subprocess, a synchronous file ``open``
or socket connect — stalls *every* connection on that loop, turning one
slow request into a full-service outage.  Blocking work belongs on
threads (as the registry's ingest already is) or behind
``loop.run_in_executor``; coroutines must await.

Heuristics (AST-only):

* inside the body of an ``async def`` (its own statements, not those of
  nested non-async ``def``/``lambda`` definitions, which may legally be
  shipped to executors), flag calls resolving to a known blocking API:
  ``time.sleep``/bare ``sleep``, the ``subprocess`` module's spawn
  helpers, ``os.system``/``os.popen``, synchronous socket construction
  (``socket.create_connection``, ``socket.socket``),
  ``urllib.request.urlopen``, the ``requests`` HTTP client, and the
  builtin ``open``;
* ``await``-ed expressions are never flagged (``asyncio.sleep`` is the
  fix for ``time.sleep``, and awaiting an async context manager or
  library call is exactly what the rule wants to see).

The rule is scoped to ``src`` by default; tests may block inside small
driver coroutines on purpose (configured per-repo in ``pyproject.toml``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..registry import FileContext, Finding, Rule, register_rule
from .common import ImportTable, qualified_name

__all__ = ["AsyncBlockingRule"]

#: Dotted names that block the calling thread.
_BLOCKING_NAMES = {
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "subprocess.getoutput",
    "subprocess.getstatusoutput",
    "os.system",
    "os.popen",
    "os.wait",
    "os.waitpid",
    "socket.create_connection",
    "socket.socket",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
    "requests.put",
    "requests.delete",
    "requests.head",
    "requests.request",
    "requests.Session",
}

#: Bare names that block even when unresolvable through imports.
_BLOCKING_BARE = {"sleep", "open"}


def _blocking_name(node: ast.Call, imports: ImportTable) -> str:
    """The blocking API a call resolves to, or an empty string."""
    name = qualified_name(node.func, imports)
    if name in _BLOCKING_NAMES:
        return name
    if isinstance(node.func, ast.Name) and node.func.id in _BLOCKING_BARE:
        return node.func.id
    return ""


def _own_statements(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk the coroutine's own body, skipping nested function scopes.

    Nested ``async def`` coroutines are visited by the outer loop over
    the module tree; nested synchronous ``def``/``lambda`` bodies are a
    different execution context (typically shipped to an executor or a
    thread) and must not be attributed to the enclosing coroutine.
    """
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.AsyncFunctionDef, ast.FunctionDef, ast.Lambda)
        ):
            continue  # a nested scope: yielded, never expanded
        stack.extend(ast.iter_child_nodes(node))


def _awaited_calls(func: ast.AsyncFunctionDef) -> set:
    """Identity-set of Call nodes that appear directly under an await."""
    awaited = set()
    for node in _own_statements(func):
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            awaited.add(id(node.value))
    return awaited


@register_rule
class AsyncBlockingRule(Rule):
    """Flag synchronous blocking calls inside coroutine bodies."""

    code = "REP012"
    name = "async-blocking"
    description = (
        "no blocking calls (time.sleep, subprocess, sync file/socket IO) "
        "inside async def bodies; await, or move the work to a thread"
    )
    default_include = ("src",)
    default_exclude = ("tests",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(ctx, node, imports)

    # ------------------------------------------------------------------

    def _check_coroutine(
        self,
        ctx: FileContext,
        func: ast.AsyncFunctionDef,
        imports: ImportTable,
    ) -> Iterator[Finding]:
        awaited = _awaited_calls(func)
        for node in _own_statements(func):
            if not isinstance(node, ast.Call) or id(node) in awaited:
                continue
            name = _blocking_name(node, imports)
            if name:
                yield self.finding(
                    ctx,
                    node,
                    f"blocking call {name}() inside coroutine "
                    f"'{func.name}' stalls the whole event loop; await an "
                    "async equivalent or move the work to a thread/executor",
                )
