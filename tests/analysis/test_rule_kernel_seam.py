"""REP008 — sketch updates must route through the kernels backend seam."""

from __future__ import annotations

SKETCH_PATH = "src/repro/sketches/snippet.py"


class TestBypassesFire:
    def test_loop_store_to_self_state(self, run_rule):
        findings = run_rule(
            """
            class Sk:
                def update(self, keys, w):
                    for k in keys:
                        self._counters[k] += w
            """,
            "REP008",
            rel_path=SKETCH_PATH,
        )
        assert len(findings) == 1
        assert "self._counters" in findings[0].message

    def test_plain_assignment_in_loop(self, run_rule):
        findings = run_rule(
            """
            class Sk:
                def rebuild(self, rows):
                    for row in rows:
                        self._table[row] = 0
            """,
            "REP008",
            rel_path=SKETCH_PATH,
        )
        assert len(findings) == 1

    def test_numpy_add_at(self, run_rule):
        findings = run_rule(
            """
            import numpy as np

            class Sk:
                def update(self, idx, w):
                    np.add.at(self._counters, idx, w)
            """,
            "REP008",
            rel_path=SKETCH_PATH,
        )
        assert len(findings) == 1
        assert "numpy.add.at" in findings[0].message

    def test_store_in_nested_loop_reported_once(self, run_rule):
        findings = run_rule(
            """
            class Sk:
                def update(self, rows, cols, w):
                    for row in rows:
                        for col in cols:
                            self._counters[row, col] += w
            """,
            "REP008",
            rel_path=SKETCH_PATH,
        )
        assert len(findings) == 1


class TestSeamRoutedPasses:
    def test_function_reaching_get_backend_is_exempt(self, run_rule):
        findings = run_rule(
            """
            from repro.kernels import get_backend

            class Sk:
                def rebuild(self, rows):
                    for row in rows:
                        self._seeds[row] = row
                    get_backend().scatter_add(self._counters, rows, self._seeds)
            """,
            "REP008",
            rel_path=SKETCH_PATH,
        )
        assert findings == []

    def test_seam_through_package_relative_import_is_exempt(self, run_rule):
        # ``from .. import kernels`` binds the package, not a function.
        findings = run_rule(
            """
            from .. import kernels

            class Sk:
                def rebuild(self, rows):
                    for row in rows:
                        self._seeds[row] = row
                    kernels.get_backend().scatter_add(
                        self._counters, rows, self._seeds
                    )
            """,
            "REP008",
            rel_path=SKETCH_PATH,
        )
        assert findings == []

    def test_transitive_reachability_exempts(self, run_rule):
        # The seam call is two hops away through a self. method.
        findings = run_rule(
            """
            from repro.kernels import get_backend

            class Sk:
                def _apply(self, idx, w):
                    get_backend().scatter_add(self._counters, idx, w)

                def _route(self, idx, w):
                    self._apply(idx, w)

                def rebuild(self, rows):
                    for row in rows:
                        self._seeds[row] = row
                    self._route(rows, self._seeds)
            """,
            "REP008",
            rel_path=SKETCH_PATH,
        )
        assert findings == []

    def test_store_outside_loop_passes(self, run_rule):
        findings = run_rule(
            """
            class Sk:
                def reset(self):
                    self._counters[...] = 0
            """,
            "REP008",
            rel_path=SKETCH_PATH,
        )
        assert findings == []

    def test_rule_scoped_to_sketches(self, run_rule):
        findings = run_rule(
            """
            class Elsewhere:
                def update(self, keys, w):
                    for k in keys:
                        self._counters[k] += w
            """,
            "REP008",
            rel_path="src/repro/engine/snippet.py",
        )
        assert findings == []
