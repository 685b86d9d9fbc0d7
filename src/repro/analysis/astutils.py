"""Import-resolution AST primitives shared by the registry and the rules.

Lives outside :mod:`repro.analysis.rules` so :class:`FileContext` can
build a file's import table without importing the rule package (which
would be circular: rule modules import the registry).
:mod:`repro.analysis.rules.common` re-exports everything here for the
rules.
"""

from __future__ import annotations

import ast
from typing import Optional

__all__ = ["ImportTable", "qualified_name"]


class ImportTable:
    """Maps local names to the canonical dotted paths they were bound to."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import a.b.c`` binds ``a`` to package ``a`` unless
                    # aliased, in which case the alias means the full path.
                    target = alias.name if alias.asname else local
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                # Relative imports resolve within repro itself; the dots
                # of ``from .. import x`` already separate ``x``.
                dots = "." * node.level
                prefix = f"{dots}{node.module}." if node.module else dots
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{prefix}{alias.name}"

    def resolve(self, dotted: str) -> str:
        """Canonicalize a source-level dotted name via the import aliases."""
        head, _, rest = dotted.partition(".")
        base = self.aliases.get(head, head)
        return f"{base}.{rest}" if rest else base


def qualified_name(
    node: ast.AST, imports: Optional[ImportTable] = None
) -> Optional[str]:
    """Dotted name of a ``Name``/``Attribute`` chain, else ``None``.

    With *imports*, the head segment is canonicalized through the file's
    import aliases.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    dotted = ".".join(reversed(parts))
    return imports.resolve(dotted) if imports else dotted
