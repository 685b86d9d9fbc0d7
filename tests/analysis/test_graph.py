"""The whole-program substrate: module summaries and the project graph."""

from __future__ import annotations

import pickle
import textwrap

import pytest

from repro.analysis import FileContext
from repro.analysis.graph import module_name_for, summarize_module
from repro.analysis.resolve import ProjectGraph


def _summarize(source: str, rel_path: str):
    ctx = FileContext.from_source(textwrap.dedent(source), rel_path)
    return summarize_module(ctx)


def _graph(sources) -> ProjectGraph:
    infos = [_summarize(src, rel) for rel, src in sources.items()]
    return ProjectGraph.build(infos)


class TestModuleNames:
    @pytest.mark.parametrize(
        "rel_path,expected",
        [
            ("src/repro/parallel/pool.py", "repro.parallel.pool"),
            ("src/repro/kernels/__init__.py", "repro.kernels"),
            ("tests/analysis/test_graph.py", "tests.analysis.test_graph"),
            ("src/repro/rng.py", "repro.rng"),
        ],
    )
    def test_module_name_for(self, rel_path, expected):
        assert module_name_for(rel_path) == expected


class TestSummaries:
    def test_functions_classes_and_calls(self):
        info = _summarize(
            """
            from ..kernels import get_backend

            class Sketch:
                def update(self, keys):
                    get_backend().scatter_add(keys)

            def run(observer=None, *, strict=False, **extra):
                yield 1
            """,
            "src/repro/sketches/demo.py",
        )
        assert info.name == "repro.sketches.demo"
        update = info.functions["Sketch.update"]
        assert update.owner_class == "Sketch"
        run = info.functions["run"]
        assert run.accepts("observer") and run.accepts("strict")
        assert run.has_kwarg and run.is_generator
        # Relative import absolutized against the package.
        assert info.imports["get_backend"] == "repro.kernels.get_backend"
        assert any(c.callee == "repro.kernels.get_backend" for c in info.calls)

    def test_nested_def_and_generator_scoping(self):
        info = _summarize(
            """
            def outer():
                def inner():
                    yield 1
                return inner
            """,
            "src/repro/demo.py",
        )
        assert info.functions["outer"].is_generator is False
        inner = info.functions["outer.inner"]
        assert inner.is_generator is True
        assert inner.parent_function == "outer"

    def test_summaries_are_picklable(self):
        info = _summarize("def f():\n    return 1\n", "src/repro/demo.py")
        assert pickle.loads(pickle.dumps(info)).name == "repro.demo"


class TestResolution:
    def test_reexport_following(self):
        graph = _graph(
            {
                "src/repro/kernels/__init__.py": (
                    "from .backend import get_backend\n"
                ),
                "src/repro/kernels/backend.py": (
                    "def get_backend():\n    return 1\n"
                ),
            }
        )
        fn = graph.lookup_function("repro.kernels.get_backend")
        assert fn is not None
        assert fn.canonical == "repro.kernels.backend.get_backend"

    def test_method_resolution_walks_bases(self):
        graph = _graph(
            {
                "src/repro/base.py": """
                    class Base:
                        def merge(self, other):
                            return other
                    """,
                "src/repro/derived.py": """
                    from .base import Base

                    class Derived(Base):
                        pass
                    """,
            }
        )
        klass = graph.lookup_class("repro.derived.Derived")
        merge = graph.method(klass, "merge")
        assert merge is not None and merge.module == "repro.base"

    def test_dataclass_constructor_synthesized(self):
        graph = _graph(
            {
                "src/repro/tasks.py": """
                    from dataclasses import dataclass

                    @dataclass
                    class Task:
                        index: int
                        name: str = "x"
                    """,
            }
        )
        ctor = graph.constructor(graph.lookup_class("repro.tasks.Task"))
        assert ctor.positional == ("self", "index", "name")

    def test_reaches_is_transitive(self):
        graph = _graph(
            {
                "src/repro/a.py": """
                    from .b import middle

                    def top():
                        return middle()
                    """,
                "src/repro/b.py": """
                    from .c import bottom

                    def middle():
                        return bottom()
                    """,
                "src/repro/c.py": """
                    def bottom():
                        return 1
                    """,
            }
        )
        top = graph.lookup_function("repro.a.top")
        assert graph.reaches(top, "repro.c.bottom")
        assert not graph.reaches(top, "repro.c.missing")

    def test_callers_of(self):
        graph = _graph(
            {
                "src/repro/lib.py": "def helper():\n    return 1\n",
                "src/repro/app.py": """
                    from .lib import helper

                    def go():
                        return helper()
                    """,
            }
        )
        sites = graph.callers_of("repro.lib.helper")
        assert [site.caller for site in sites] == ["go"]


class TestPickleSafetyQueries:
    def test_unpicklable_direct_and_generic(self):
        graph = _graph(
            {
                "src/repro/demo.py": """
                    import threading
                    from typing import Callable, Optional
                    """,
            }
        )
        module = graph.module("repro.demo")
        assert graph.unpicklable_annotation(module, "threading.Lock")
        assert graph.unpicklable_annotation(module, "Optional[Callable]")
        assert graph.unpicklable_annotation(module, "int") is None
        assert graph.unpicklable_annotation(module, "dict[str, float]") is None

    def test_recurses_through_dataclass_fields(self):
        graph = _graph(
            {
                "src/repro/inner.py": """
                    from dataclasses import dataclass
                    from typing import Callable

                    @dataclass
                    class Step:
                        fn: Callable
                    """,
                "src/repro/outer.py": """
                    from dataclasses import dataclass
                    from .inner import Step

                    @dataclass
                    class Plan:
                        step: Step
                    """,
            }
        )
        module = graph.module("repro.outer")
        reason = graph.unpicklable_annotation(module, "Plan")
        assert reason is not None and "Step" in reason

    def test_unknown_types_are_not_flagged(self):
        graph = _graph({"src/repro/demo.py": "import numpy as np\n"})
        module = graph.module("repro.demo")
        assert graph.unpicklable_annotation(module, "np.ndarray") is None
        assert graph.unpicklable_annotation(module, "SomethingElse") is None
