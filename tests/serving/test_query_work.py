"""The query path does each piece of work once.

A snapshot never changes, so its per-stream statistics are computed on
first use and kept; per-query work (a point probe, a pairwise inner
product) happens once per answer.  Counters wrap the sketch's probe and
moment methods, and ``np.median``, which the query path must not call.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import StatisticsSnapshot
from repro.serving import QueryResult, SketchRegistry
from repro.sketches import FagmsSketch


def _registry() -> SketchRegistry:
    registry = SketchRegistry(buckets=128, rows=5, seed=11)
    rng = np.random.default_rng(5)
    for name, total, scanned in (("a", 6000, 2500), ("b", 4000, 1800), ("c", 900, 900)):
        registry.register_stream(name, total)
        registry.ingest(name, rng.integers(0, 300, size=scanned))
    return registry


@contextlib.contextmanager
def probes():
    """Count calls of the sketch's query methods and of ``np.median``."""
    counted = {}
    methods = ("estimate_frequencies", "row_second_moments", "row_inner_products")
    with contextlib.ExitStack() as stack:
        for name in methods:
            counted[name] = stack.enter_context(
                mock.patch.object(
                    FagmsSketch,
                    name,
                    autospec=True,
                    side_effect=getattr(FagmsSketch, name),
                )
            )
        counted["median"] = stack.enter_context(
            mock.patch.object(np, "median", wraps=np.median)
        )
        yield SimpleNamespace(**counted)


QUERIES = {
    "point": lambda r: r.point_query("a", 17),
    "point_clt": lambda r: r.point_query("b", 250, method="clt"),
    "self_join": lambda r: r.self_join_query("a"),
    "join": lambda r: r.join_query("a", "b"),
    "join_reversed": lambda r: r.join_query("b", "a"),
    "union": lambda r: r.expression_query("union", ["a", "b"]),
    "union3": lambda r: r.expression_query("union", ["a", "b", "c"]),
    "intersection": lambda r: r.expression_query("intersection", ["b", "c"]),
    "set_union": lambda r: r.expression_query("set_union", ["a", "c"]),
    "self_join_interval": lambda r: r.snapshot("c").self_join_interval("c"),
    "point_interval": lambda r: r.snapshot("a").point_frequency_interval("a", 3),
    "statistics": lambda r: r.snapshot("b").statistics(),
}


@pytest.mark.parametrize("kind", ["point", "point_clt", "point_interval"])
def test_point_answer_probes_the_sketch_once(kind):
    registry = _registry()
    with probes() as counts:
        QUERIES[kind](registry)
    assert counts.estimate_frequencies.call_count == 1
    assert counts.median.call_count == 0


@given(st.lists(st.sampled_from(sorted(QUERIES)), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_row_moments_are_computed_once_per_snapshot(mix):
    registry = _registry()
    with probes() as counts:
        for kind in mix:
            QUERIES[kind](registry)
    calls = counts.row_second_moments.call_args_list
    per_view = Counter(id(call.args[0]) for call in calls)
    assert max(per_view.values(), default=0) <= 1
    assert counts.median.call_count == 0


@pytest.mark.parametrize(
    ("kind", "inner_products"),
    [
        ("join", 1),
        ("union", 1),
        ("intersection", 1),
        ("set_union", 1),
        ("union3", 3),
    ],
)
def test_each_pairwise_inner_product_once_per_query(kind, inner_products):
    registry = _registry()
    QUERIES[kind](registry)  # the first answer fills the snapshots' kept moments
    with probes() as counts:
        QUERIES[kind](registry)
    assert counts.row_inner_products.call_count == inner_products
    assert counts.row_second_moments.call_count == 0
    assert counts.median.call_count == 0


def test_kept_arrays_are_read_only():
    registry = _registry()
    for kind in ("point", "self_join", "union3"):
        QUERIES[kind](registry)
    for name in ("a", "b", "c"):
        snapshot = registry.snapshot(name)
        moments = snapshot.moments(name)
        kept = (snapshot.relation(name).counters, moments.rows, moments.corrected_rows)
        for array in kept:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


def _values(answer) -> str:
    """Every float of an answer that does not depend on the wall clock."""
    if isinstance(answer, QueryResult):
        answer = (answer.estimate, answer.variance_bound, answer.interval)
    elif isinstance(answer, StatisticsSnapshot):
        answer = (answer.fractions, answer.self_join_sizes, answer.join_sizes)
    return repr(answer)


def test_threads_racing_on_fresh_snapshots_agree_with_one_thread():
    kinds = sorted(QUERIES)
    expected = [_values(QUERIES[kind](_registry())) for kind in kinds]
    registry = _registry()
    threads = 8
    barrier = threading.Barrier(threads)
    answers: list = [None] * threads

    def ask(slot: int) -> None:
        barrier.wait(timeout=10)
        order = kinds[slot:] + kinds[:slot]
        answered = {kind: _values(QUERIES[kind](registry)) for kind in order}
        answers[slot] = [answered[kind] for kind in kinds]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=ask, args=(slot,)) for slot in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert answers == [expected] * threads
