"""REP010 — checkpoint save and restore schemas must stay symmetric.

The resilience layer (PR 3) round-trips state as plain dicts: a
``checkpoint_state()`` / ``save()`` side writes keys, a
``from_checkpoint_state()`` / ``recover()`` / ``load()`` side reads them
back.  The two sides live in the same class but drift independently — a
key written and never read is silent state loss on recovery; a key read
but never written is a ``KeyError`` that only fires mid-disaster, during
an actual recover.

For every class in the rule's target files that has **both** a
save-side method (name containing ``state``/``save``/``checkpoint``/
``snapshot``) and a restore-side method (name starting ``from_`` or
containing ``restore``/``recover``/``load`` — classified first, so
``from_checkpoint_state`` lands on the restore side), the rule collects

* **written keys**: string keys of dict literals and
  ``x["key"] = ...`` subscript stores in save-side bodies;
* **read keys**: ``x["key"]`` subscript loads, ``.get("key")`` /
  ``.pop("key")`` calls, and ``"key" in x`` membership tests in
  restore-side bodies;

and reports the asymmetric difference both ways.  Classes where either
side uses no literal keys at all are skipped — the schema is dynamic and
cannot be checked statically.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..registry import FileContext, Finding, Rule, register_rule

__all__ = ["CheckpointSchemaRule"]

_RESTORE_TOKENS = ("restore", "recover", "load")
_SAVE_TOKENS = ("state", "save", "checkpoint", "snapshot")


def _classify(method_name: str):
    """``"restore"`` / ``"save"`` / ``None`` for one method name."""
    lowered = method_name.lower()
    if lowered.startswith("from_") or any(
        token in lowered for token in _RESTORE_TOKENS
    ):
        return "restore"
    if any(token in lowered for token in _SAVE_TOKENS):
        return "save"
    return None


def _written_keys(method: ast.AST) -> dict:
    """Literal keys the save side writes, mapped to their line numbers."""
    keys: dict = {}
    for node in ast.walk(method):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.setdefault(key.value, key.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    keys.setdefault(target.slice.value, target.lineno)
    return keys


def _read_keys(method: ast.AST) -> dict:
    """Literal keys the restore side reads, mapped to their line numbers."""
    keys: dict = {}
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            keys.setdefault(node.slice.value, node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "pop")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            keys.setdefault(node.args[0].value, node.lineno)
        elif (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], ast.In)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, str)
        ):
            keys.setdefault(node.left.value, node.lineno)
    return keys


@register_rule
class CheckpointSchemaRule(Rule):
    """Flag save/restore key sets that have drifted apart."""

    code = "REP010"
    name = "checkpoint-schema"
    description = (
        "keys written by checkpoint save paths must be read by the "
        "matching restore/recover paths and vice versa"
    )
    default_include = ("src",)
    default_exclude = ("tests",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx.rel_path, node)

    def _check_class(
        self, rel_path: str, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        save_methods = []
        restore_methods = []
        for stmt in class_node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            side = _classify(stmt.name)
            if side == "save":
                save_methods.append(stmt)
            elif side == "restore":
                restore_methods.append(stmt)
        if not save_methods or not restore_methods:
            return
        written: dict = {}
        write_anchor: dict = {}
        for method in save_methods:
            for key, lineno in _written_keys(method).items():
                written.setdefault(key, lineno)
                write_anchor.setdefault(key, method)
        read: dict = {}
        read_anchor: dict = {}
        for method in restore_methods:
            for key, lineno in _read_keys(method).items():
                read.setdefault(key, lineno)
                read_anchor.setdefault(key, method)
        # No literal keys on one side = dynamic schema; nothing provable.
        if not written or not read:
            return
        restore_names = ", ".join(sorted(m.name for m in restore_methods))
        save_names = ", ".join(sorted(m.name for m in save_methods))
        for key in sorted(set(written) - set(read)):
            anchor = write_anchor[key]
            yield self.finding_at(
                rel_path,
                written[key],
                anchor.col_offset,
                f"{class_node.name}.{anchor.name} writes checkpoint key "
                f"{key!r} that no restore-side method ({restore_names}) "
                "reads — the value is silently lost on recovery",
            )
        for key in sorted(set(read) - set(written)):
            anchor = read_anchor[key]
            yield self.finding_at(
                rel_path,
                read[key],
                anchor.col_offset,
                f"{class_node.name}.{anchor.name} reads checkpoint key "
                f"{key!r} that no save-side method ({save_names}) writes "
                "— recovery will fail or fall back on a key that never "
                "exists",
            )
