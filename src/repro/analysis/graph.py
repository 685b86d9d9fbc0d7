"""Pass 1 of the whole-program analyzer: per-module summaries.

The project-level rules (REP007–REP010) reason about *cross-module*
facts — who calls whom, which parameters a callee accepts, which class
fields cross a process boundary.  This module extracts everything those
queries need from one parsed file into a :class:`ModuleInfo`: a plain,
picklable summary of the module's imports, function/class definitions,
and call sites.  :class:`repro.analysis.resolve.ProjectGraph` then stitches
the summaries of every analyzed file into one symbol table + call graph.

Naming conventions
------------------
``module``
    The dotted import path derived from the file's location relative to
    the analysis root (``src/repro/parallel/pool.py`` →
    ``repro.parallel.pool``; a package ``__init__.py`` maps to the
    package itself).
``qualname``
    A definition's dotted path *within* its module
    (``StreamRuntime.recover``, ``run_shard``, ``outer.inner`` for a
    nested function).  ``module + "." + qualname`` is the project-wide
    canonical name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from .astutils import ImportTable, qualified_name
from .registry import FileContext

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "module_name_for",
    "summarize_module",
]


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a ``/``-separated relative path.

    A leading ``src/`` is stripped (the repo's layout root), ``.py`` is
    dropped, and a trailing ``__init__`` collapses to the package name.
    """
    path = rel_path
    if path.startswith("src/"):
        path = path[len("src/") :]
    if path.endswith(".py"):
        path = path[: -len(".py")]
    parts = [p for p in path.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition, summarized as plain data."""

    module: str
    qualname: str
    name: str
    lineno: int
    col: int
    #: Positional parameter names in order (including ``self``/``cls``).
    positional: tuple = ()
    #: Keyword-only parameter names.
    kwonly: tuple = ()
    has_vararg: bool = False
    has_kwarg: bool = False
    #: Name of the class this is a method of, or ``None``.
    owner_class: Optional[str] = None
    #: Qualname of the enclosing function for nested defs, or ``None``.
    parent_function: Optional[str] = None
    #: Whether the body contains ``yield`` / ``yield from``.
    is_generator: bool = False
    decorators: tuple = ()

    @property
    def canonical(self) -> str:
        """Project-wide canonical name (``module.qualname``)."""
        return f"{self.module}.{self.qualname}"

    def accepts(self, param: str) -> bool:
        """Whether *param* can be passed by keyword to this function."""
        return param in self.positional or param in self.kwonly

    def positional_index(self, param: str) -> Optional[int]:
        """Index of *param* among positional parameters, or ``None``."""
        try:
            return self.positional.index(param)
        except ValueError:
            return None


@dataclass(frozen=True)
class ClassInfo:
    """One class definition: bases, annotated fields, and method names."""

    module: str
    name: str
    lineno: int
    col: int
    #: Base-class names canonicalized through the module's imports.
    bases: tuple = ()
    #: ``(field_name, annotation_source_text)`` pairs from the class body.
    fields: tuple = ()
    #: Method names defined directly on this class.
    methods: tuple = ()
    is_dataclass: bool = False

    @property
    def canonical(self) -> str:
        """Project-wide canonical name (``module.name``)."""
        return f"{self.module}.{self.name}"


@dataclass(frozen=True)
class CallSite:
    """One call expression, with the callee canonicalized where possible.

    ``callee`` is the dotted callee path resolved through the module's
    import aliases (``pool.submit`` stays receiver-relative; ``self.foo``
    / ``cls.foo`` keep their head so the graph can resolve them against
    the caller's class).  Calls whose function is not a name/attribute
    chain (e.g. ``fns[0]()``) are not recorded.
    """

    module: str
    #: Qualname of the enclosing function, or ``""`` at module level.
    caller: str
    lineno: int
    col: int
    callee: str
    nargs: int = 0
    keywords: tuple = ()
    has_star_args: bool = False
    has_star_kwargs: bool = False


@dataclass
class ModuleInfo:
    """Everything the project graph keeps about one analyzed module."""

    rel_path: str
    name: str
    #: Local alias -> canonical dotted path (relative imports resolved).
    imports: dict = field(default_factory=dict)
    #: qualname -> :class:`FunctionInfo` (methods keyed ``Class.method``).
    functions: dict = field(default_factory=dict)
    #: class name -> :class:`ClassInfo`.
    classes: dict = field(default_factory=dict)
    calls: tuple = ()

    @property
    def package(self) -> str:
        """The package this module lives in (itself for ``__init__``)."""
        if self.rel_path.endswith("/__init__.py"):
            return self.name
        head, _, _ = self.name.rpartition(".")
        return head


def _absolutize(dotted: str, package: str) -> str:
    """Resolve a possibly-relative dotted path against *package*."""
    if not dotted.startswith("."):
        return dotted
    level = len(dotted) - len(dotted.lstrip("."))
    remainder = dotted[level:]
    parts = package.split(".") if package else []
    if level > 1:
        parts = parts[: -(level - 1)] if level - 1 <= len(parts) else []
    base = ".".join(parts)
    if not remainder:
        return base
    return f"{base}.{remainder}" if base else remainder


class _OwnBodyYieldFinder(ast.NodeVisitor):
    """Detects yield/yield-from without descending into nested defs."""

    def __init__(self) -> None:
        self.found = False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Don't descend: a nested def's yields belong to the nested def."""

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Don't descend (async variant)."""

    def visit_Lambda(self, node: ast.Lambda) -> None:
        """Don't descend: lambdas cannot yield anyway."""

    def visit_Yield(self, node: ast.Yield) -> None:
        """Mark the enclosing function as a generator."""
        self.found = True

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        """Mark the enclosing function as a generator."""
        self.found = True


def _is_generator_function(node) -> bool:
    finder = _OwnBodyYieldFinder()
    for stmt in node.body:
        finder.visit(stmt)
    return finder.found


class _ModuleSummarizer(ast.NodeVisitor):
    """Single-pass extraction of functions, classes, and call sites."""

    def __init__(self, info: ModuleInfo, imports: ImportTable, package: str):
        self.info = info
        self.imports = imports
        self.package = package
        #: Stack of (kind, name) scope frames; kind in {"class", "function"}.
        self.scope: list = []
        self.calls: list = []

    # -- helpers -------------------------------------------------------

    def _qualname(self, name: str) -> str:
        parts = [frame_name for _, frame_name in self.scope] + [name]
        return ".".join(parts)

    def _enclosing_function(self) -> Optional[str]:
        for index in range(len(self.scope) - 1, -1, -1):
            if self.scope[index][0] == "function":
                return ".".join(n for _, n in self.scope[: index + 1])
        return None

    def _caller_qualname(self) -> str:
        return ".".join(name for _, name in self.scope)

    def _resolve(self, dotted: str) -> str:
        if dotted.split(".", 1)[0] in ("self", "cls"):
            return dotted
        resolved = self.imports.resolve(dotted)
        return _absolutize(resolved, self.package)

    # -- definitions ---------------------------------------------------

    def _visit_def(self, node) -> None:
        qualname = self._qualname(node.name)
        owner = None
        if self.scope and self.scope[-1][0] == "class":
            owner = self.scope[-1][1]
        parent_fn = self._enclosing_function()
        args = node.args
        positional = tuple(
            a.arg for a in (*args.posonlyargs, *args.args)
        )
        self.info.functions[qualname] = FunctionInfo(
            module=self.info.name,
            qualname=qualname,
            name=node.name,
            lineno=node.lineno,
            col=node.col_offset,
            positional=positional,
            kwonly=tuple(a.arg for a in args.kwonlyargs),
            has_vararg=args.vararg is not None,
            has_kwarg=args.kwarg is not None,
            owner_class=owner,
            parent_function=parent_fn,
            is_generator=_is_generator_function(node),
            decorators=tuple(
                name
                for name in (
                    qualified_name(d.func if isinstance(d, ast.Call) else d)
                    for d in node.decorator_list
                )
                if name is not None
            ),
        )
        self.scope.append(("function", node.name))
        for stmt in node.body:
            self.visit(stmt)
        self.scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Record the function and walk its body in a nested scope."""
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Record the async function and walk its body."""
        self._visit_def(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Record the class (fields, bases, methods) and walk its body."""
        fields = []
        methods = []
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                fields.append(
                    (stmt.target.id, ast.unparse(stmt.annotation))
                )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
        decorators = [
            qualified_name(d.func if isinstance(d, ast.Call) else d)
            for d in node.decorator_list
        ]
        resolved_decorators = [
            self._resolve(d) for d in decorators if d is not None
        ]
        is_dataclass = any(
            d.endswith("dataclass") or d.endswith("dataclasses.dataclass")
            for d in resolved_decorators
        )
        self.info.classes[node.name] = ClassInfo(
            module=self.info.name,
            name=node.name,
            lineno=node.lineno,
            col=node.col_offset,
            bases=tuple(
                self._resolve(base)
                for base in (qualified_name(b) for b in node.bases)
                if base is not None
            ),
            fields=tuple(fields),
            methods=tuple(methods),
            is_dataclass=is_dataclass,
        )
        self.scope.append(("class", node.name))
        for stmt in node.body:
            self.visit(stmt)
        self.scope.pop()

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        """Record the call site (when the callee is a name chain)."""
        callee = qualified_name(node.func)
        if callee is not None:
            self.calls.append(
                CallSite(
                    module=self.info.name,
                    caller=self._caller_qualname(),
                    lineno=node.lineno,
                    col=node.col_offset,
                    callee=self._resolve(callee),
                    nargs=sum(
                        1 for a in node.args if not isinstance(a, ast.Starred)
                    ),
                    keywords=tuple(
                        kw.arg for kw in node.keywords if kw.arg is not None
                    ),
                    has_star_args=any(
                        isinstance(a, ast.Starred) for a in node.args
                    ),
                    has_star_kwargs=any(
                        kw.arg is None for kw in node.keywords
                    ),
                )
            )
        self.generic_visit(node)


def summarize_module(ctx: FileContext) -> ModuleInfo:
    """Extract one file's :class:`ModuleInfo` from its parsed context."""
    rel_path = ctx.rel_path
    name = module_name_for(rel_path)
    info = ModuleInfo(rel_path=rel_path, name=name)
    package = (
        name if rel_path.endswith("/__init__.py") else name.rpartition(".")[0]
    )
    summarizer = _ModuleSummarizer(info, ctx.imports, package)
    for stmt in ctx.tree.body:
        summarizer.visit(stmt)
    info.imports = {
        alias: _absolutize(target, package)
        for alias, target in ctx.imports.aliases.items()
    }
    info.calls = tuple(summarizer.calls)
    return info
