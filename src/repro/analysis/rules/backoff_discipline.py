"""REP011 — retry loops must use :class:`BackoffPolicy`, not bare sleeps.

The resilience layer centralizes every retry delay in
``repro.resilience.distributed.BackoffPolicy`` (seeded jitter, cap,
budget).  A retry loop that sleeps a hard-coded literal re-introduces the
ad-hoc schedules the policy replaced: it cannot be tuned from one place,
never participates in the backoff budget, and — with a zero or constant
delay — hammers the failing resource in lock-step across workers.
Likewise a ``while True`` retry loop whose handlers neither ``raise`` nor
``break`` can spin forever on a persistent fault.

Heuristics (AST-only):

* a ``time.sleep``/``sleep`` call whose argument expression contains a
  non-zero numeric literal, lexically inside a loop that also contains a
  ``try``/``except`` (the shape of a retry loop) — delays there must come
  from a :class:`BackoffPolicy` schedule, threaded in as a variable;
* a ``while True`` loop in which *no* ``try``'s except handlers contain
  a ``raise``/``break``/``return`` — an unbounded retry with no
  exhaustion path.  One terminating handler anywhere in the loop counts
  as the exhaustion path (nested fallback ``try`` blocks that merely
  reset state are then legitimate).

Bound delay *variables* (``sleep(delay)``) are fine: the rule polices
where the number comes from, not the sleep itself.  Tests are exempt by
configuration (they pin tiny literal waits on purpose).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..registry import FileContext, Finding, Rule, register_rule
from .common import ImportTable, qualified_name

__all__ = ["BackoffDisciplineRule"]

#: Dotted names treated as blocking sleeps.
_SLEEP_NAMES = {"sleep", "time.sleep"}


def _contains_numeric_literal(node: ast.expr) -> bool:
    """Whether *node* contains a non-zero int/float literal (bools excluded)."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Constant):
            continue
        value = sub.value
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)) and value != 0:
            return True
    return False


def _is_sleep_call(node: ast.Call, imports: ImportTable) -> bool:
    name = qualified_name(node.func, imports)
    if name in _SLEEP_NAMES:
        return True
    # ``from time import sleep as pause`` resolves through the import
    # table above; a bare unresolved ``sleep`` Name is the fallback.
    return isinstance(node.func, ast.Name) and node.func.id == "sleep"


def _handler_terminates(handler: ast.ExceptHandler) -> bool:
    """Whether an except handler can leave the retry loop (raise/break/return)."""
    for sub in ast.walk(handler):
        if isinstance(sub, (ast.Raise, ast.Break, ast.Return)):
            return True
    return False


def _loop_has_try(loop: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Try) for sub in ast.walk(loop) if sub is not loop
    )


def _is_while_true(node: ast.While) -> bool:
    return isinstance(node.test, ast.Constant) and node.test.value is True


@register_rule
class BackoffDisciplineRule(Rule):
    """Flag literal sleeps and unbounded ``while True`` in retry loops."""

    code = "REP011"
    name = "backoff-discipline"
    description = (
        "retry loops must draw delays from a BackoffPolicy schedule and "
        "have an exhaustion path; no literal sleeps, no unbounded retries"
    )
    default_include = ("src",)
    default_exclude = ("tests",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.While, ast.For)):
                continue
            if not _loop_has_try(node):
                continue
            yield from self._check_retry_loop(ctx, node, imports)

    # ------------------------------------------------------------------

    def _check_retry_loop(
        self, ctx: FileContext, loop: ast.AST, imports: ImportTable
    ) -> Iterator[Finding]:
        # Heuristic (a): literal-bearing sleeps anywhere in the loop body.
        for sub in ast.walk(loop):
            if not (isinstance(sub, ast.Call) and _is_sleep_call(sub, imports)):
                continue
            if any(_contains_numeric_literal(arg) for arg in sub.args):
                yield self.finding(
                    ctx,
                    sub,
                    "literal sleep inside a retry loop; draw the delay "
                    "from a BackoffPolicy schedule (repro.resilience."
                    "distributed) so cap/budget/jitter apply",
                )
        # Heuristic (b): while True with purely-resumptive handlers.  A
        # single terminating handler anywhere in the loop is taken as the
        # exhaustion path (nested fallback ``try`` blocks may then merely
        # reset state).
        if not (isinstance(loop, ast.While) and _is_while_true(loop)):
            return
        handlers = [
            handler
            for sub in ast.walk(loop)
            if isinstance(sub, ast.Try)
            for handler in sub.handlers
        ]
        if handlers and not any(_handler_terminates(h) for h in handlers):
            yield self.finding(
                ctx,
                loop,
                "unbounded 'while True' retry: no except handler can "
                "raise or break, so a persistent fault loops forever; "
                "count failures and re-raise on exhaustion",
            )
