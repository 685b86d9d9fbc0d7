"""REP013 — ingest goes through the dataplane, with bounded buffering.

The dataplane (:mod:`repro.dataplane`) is the one scan loop: sources
seal envelopes, the pipeline verifies them exactly once, a *bounded*
queue provides backpressure, and chaos/observer seams come for free.
Code that hand-rolls the same loop forfeits all of that — and an
unbounded ``queue.Queue()`` between a producer and a slow consumer is
the classic way a streaming process grows without limit until the OOM
killer ends it.

Heuristics (AST-only):

* an unbounded stdlib queue construction — ``queue.Queue()`` (or
  ``LifoQueue``/``PriorityQueue``) with no ``maxsize``, a literal
  ``maxsize <= 0``, or a ``queue.SimpleQueue()`` (never bounded) —
  buffering must be bounded (:class:`repro.dataplane.BoundedQueue` or a
  positive ``maxsize``);
* a hand-rolled ingest loop: a ``for`` statement iterating directly
  over a chunk source (``read_stream``/``iter_chunks``/
  ``envelope_stream``/``retrying_read_stream`` or a ``.chunks(...)``
  call) whose body feeds a consumer (``.process``/``.ingest``/
  ``.consume``/``.update`` call) — that is a
  :class:`~repro.dataplane.Pipeline` written by hand, minus its
  exactly-once cursor and backpressure.

Iterating a chunk source to *transform or forward* it (yield, seal,
collect) is fine: the rule fires only when the loop body terminates the
stream in a consumer.  The dataplane package itself is exempt by
configuration — it is the implementation these heuristics point to.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..registry import FileContext, Finding, Rule, register_rule
from .common import ImportTable, qualified_name

__all__ = ["IngestDisciplineRule"]

#: Stdlib queue constructors that accept a ``maxsize`` bound.
_BOUNDABLE_QUEUES = {
    "queue.Queue",
    "queue.LifoQueue",
    "queue.PriorityQueue",
}

#: Queue constructors that can never be bounded.
_UNBOUNDABLE_QUEUES = {"queue.SimpleQueue"}

#: Callables that produce a chunk/envelope stream.
_SOURCE_CALLS = {
    "read_stream",
    "iter_chunks",
    "envelope_stream",
    "retrying_read_stream",
}

#: Attribute calls that terminate a stream in a consumer.
_CONSUMER_METHODS = {"process", "ingest", "consume", "update"}


def _literal_int(node: ast.expr) -> Optional[int]:
    """The node's int value when it is a plain integer literal, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        if not isinstance(node.value, bool):
            return int(node.value)
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
        and not isinstance(node.operand.value, bool)
    ):
        return -int(node.operand.value)
    return None


def _queue_unbounded(call: ast.Call) -> bool:
    """Whether a boundable queue construction is provably unbounded."""
    maxsize: Optional[ast.expr] = None
    if call.args:
        maxsize = call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "maxsize":
            maxsize = keyword.value
    if maxsize is None:
        return True  # default maxsize=0: unbounded
    literal = _literal_int(maxsize)
    return literal is not None and literal <= 0


def _source_call_name(iterator: ast.expr, imports: ImportTable) -> Optional[str]:
    """The chunk-source name when the loop iterates one directly."""
    if not isinstance(iterator, ast.Call):
        return None
    func = iterator.func
    if isinstance(func, ast.Attribute) and func.attr == "chunks":
        return ".chunks()"
    name = qualified_name(func, imports)
    if name is not None:
        tail = name.rsplit(".", 1)[-1]
        if tail in _SOURCE_CALLS:
            return tail
    if isinstance(func, ast.Name) and func.id in _SOURCE_CALLS:
        return func.id
    return None


def _consumer_call(loop: ast.For) -> Optional[ast.Call]:
    """The first consumer-method call in the loop body, if any."""
    for stmt in loop.body:
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _CONSUMER_METHODS
            ):
                return sub
    return None


@register_rule
class IngestDisciplineRule(Rule):
    """Flag unbounded queues and hand-rolled ingest loops."""

    code = "REP013"
    name = "ingest-discipline"
    description = (
        "ingest runs on repro.dataplane: no unbounded queue.Queue() "
        "buffering, no hand-rolled chunk-source -> consumer scan loops"
    )
    default_include = ("src",)
    default_exclude = ("src/repro/dataplane", "tests")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_queue(ctx, node, imports)
            elif isinstance(node, ast.For):
                yield from self._check_ingest_loop(ctx, node, imports)

    # ------------------------------------------------------------------

    def _check_queue(
        self, ctx: FileContext, call: ast.Call, imports: ImportTable
    ) -> Iterator[Finding]:
        name = qualified_name(call.func, imports)
        if name in _UNBOUNDABLE_QUEUES:
            yield self.finding(
                ctx,
                call,
                f"{name}() can never be bounded; buffer hand-offs through "
                "a repro.dataplane.BoundedQueue (or a queue.Queue with a "
                "positive maxsize) so backpressure reaches the producer",
            )
            return
        if name in _BOUNDABLE_QUEUES and _queue_unbounded(call):
            yield self.finding(
                ctx,
                call,
                f"unbounded {name}(): a slow consumer buffers the whole "
                "stream in memory; pass a positive maxsize or use "
                "repro.dataplane.BoundedQueue for wait-accounted "
                "backpressure",
            )

    def _check_ingest_loop(
        self, ctx: FileContext, loop: ast.For, imports: ImportTable
    ) -> Iterator[Finding]:
        source = _source_call_name(loop.iter, imports)
        if source is None:
            return
        consumer = _consumer_call(loop)
        if consumer is None:
            return
        method = consumer.func.attr  # type: ignore[attr-defined]
        yield self.finding(
            ctx,
            loop,
            f"hand-rolled ingest loop: iterating {source} straight into "
            f".{method}() re-implements the dataplane without its "
            "exactly-once cursor or backpressure; compose a "
            "repro.dataplane.Pipeline (source -> operators -> sinks) "
            "instead",
        )
