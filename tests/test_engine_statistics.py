"""Multi-relation online statistics engine."""

import numpy as np
import pytest

from repro.engine import OnlineStatisticsEngine
from repro.errors import CheckpointError, ConfigurationError, InsufficientDataError
from repro.streams import generate_tpch, zipf_relation


@pytest.fixture
def engine():
    return OnlineStatisticsEngine(buckets=2048, seed=50)


@pytest.fixture
def tpch():
    return generate_tpch(scale_factor=0.004, seed=51)


class TestRegistration:
    def test_register_and_list(self, engine):
        engine.register("a", 100)
        engine.register("b", 200)
        assert engine.relations == ("a", "b")

    def test_duplicate_rejected(self, engine):
        engine.register("a", 100)
        with pytest.raises(ConfigurationError):
            engine.register("a", 100)

    def test_validation(self, engine):
        with pytest.raises(ConfigurationError):
            engine.register("", 100)
        with pytest.raises(ConfigurationError):
            engine.register("tiny", 1)

    def test_unknown_relation(self, engine):
        with pytest.raises(ConfigurationError):
            engine.consume("ghost", np.array([1]))
        with pytest.raises(ConfigurationError):
            engine.snapshot().self_join_size("ghost")


class TestScanProgress:
    def test_fraction_tracking(self, engine):
        engine.register("a", 100)
        engine.consume("a", np.arange(25))
        assert engine.fraction_scanned("a") == pytest.approx(0.25)

    def test_overflow_rejected(self, engine):
        engine.register("a", 10)
        with pytest.raises(ConfigurationError):
            engine.consume("a", np.arange(11))

    def test_insufficient_data_errors(self, engine):
        engine.register("a", 100)
        engine.register("b", 100)
        snapshot = engine.snapshot()
        with pytest.raises(InsufficientDataError):
            snapshot.self_join_size("a")
        with pytest.raises(InsufficientDataError):
            snapshot.join_size("a", "b")

    def test_self_join_of_same_name_rejected(self, engine):
        engine.register("a", 100)
        engine.consume("a", np.arange(10))
        with pytest.raises(ConfigurationError):
            engine.snapshot().join_size("a", "a")


class TestEstimates:
    def test_f2_converges_during_scan(self, tpch):
        engine = OnlineStatisticsEngine(buckets=2048, seed=52)
        lineitem = tpch.lineitem
        engine.register("lineitem", len(lineitem))
        truth = tpch.exact_lineitem_f2()
        errors = []
        for chunk in lineitem.chunks(len(lineitem) // 5 + 1):
            engine.consume("lineitem", chunk)
            estimate = engine.snapshot().self_join_size("lineitem")
            errors.append(abs(estimate - truth) / truth)
        assert errors[-1] < 0.1
        assert errors[-1] <= errors[0] + 0.05

    def test_join_between_relations_scanned_at_different_speeds(self, tpch):
        engine = OnlineStatisticsEngine(buckets=2048, seed=53)
        engine.register("lineitem", len(tpch.lineitem))
        engine.register("orders", len(tpch.orders))
        # lineitem at 40%, orders at 100%: corrections must handle this.
        cut = int(0.4 * len(tpch.lineitem))
        engine.consume("lineitem", tpch.lineitem.keys[:cut])
        engine.consume("orders", tpch.orders.keys)
        truth = tpch.exact_join_size()
        estimate = engine.snapshot().join_size("lineitem", "orders")
        assert estimate == pytest.approx(truth, rel=0.3)

    def test_full_scan_matches_plain_sketches(self):
        relation = zipf_relation(5_000, 500, 1.0, seed=54)
        engine = OnlineStatisticsEngine(buckets=1024, seed=55)
        engine.register("r", len(relation))
        engine.consume("r", relation.keys)
        from repro.sketches import FagmsSketch

        # Every relation's sketch is spawned off one template seeded like
        # a plain sketch, so a full scan reproduces the plain estimate.
        plain = FagmsSketch(1024, seed=55)
        plain.update(relation.keys)
        assert engine.snapshot().self_join_size("r") == pytest.approx(
            plain.second_moment()
        )


class TestSnapshot:
    def test_snapshot_contents(self, tpch):
        engine = OnlineStatisticsEngine(buckets=1024, seed=56)
        engine.register("lineitem", len(tpch.lineitem))
        engine.register("orders", len(tpch.orders))
        engine.consume("lineitem", tpch.lineitem.keys[:1000])
        snapshot = engine.snapshot()
        assert "lineitem" in snapshot.self_join_sizes
        assert "orders" not in snapshot.self_join_sizes  # nothing scanned
        assert snapshot.join_sizes == {}  # orders not scanned yet
        engine.consume("orders", tpch.orders.keys[:1000])
        snapshot = engine.snapshot()
        assert ("lineitem", "orders") in snapshot.join_sizes

    def test_repr(self, engine):
        assert "no relations" in repr(engine)
        engine.register("a", 100)
        engine.consume("a", np.arange(50))
        assert "a:50%" in repr(engine)


def _drop_total(state, arrays):
    del state["relations"][0]["total_tuples"]


def _text_scanned(state, arrays):
    state["relations"][0]["scanned"] = "x"


def _list_record(state, arrays):
    state["relations"][0] = ["r", 100, 40]


def _fractional_scanned(state, arrays):
    state["relations"][0]["scanned"] = 3.7


def _repeated_record(state, arrays):
    state["relations"].append(dict(state["relations"][0]))


def _nan_counter(state, arrays):
    arrays["counters.r"][0, 0] = np.nan


def _complex_counters(state, arrays):
    arrays["counters.r"] = arrays["counters.r"].astype(np.complex128)


def _text_template_rows(state, arrays):
    state["template"] = dict(state["template"], rows="1")


def _unknown_template_type(state, arrays):
    state["template"] = dict(state["template"], type="MysterySketch")


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop_total,
        _text_scanned,
        _list_record,
        _fractional_scanned,
        _repeated_record,
        _nan_counter,
        _complex_counters,
        _text_template_rows,
        _unknown_template_type,
    ],
)
def test_malformed_checkpoint_state_raises_checkpoint_error(corrupt):
    engine = OnlineStatisticsEngine(buckets=64, seed=57)
    engine.register("r", 100)
    engine.register("s", 50)
    engine.consume("r", np.arange(40) % 9)
    state, arrays = engine.checkpoint_state()
    state = {
        "template": state["template"],
        "relations": [dict(record) for record in state["relations"]],
    }
    arrays = {name: np.array(array) for name, array in arrays.items()}
    # The untouched copy restores; only the corruption makes it fail.
    OnlineStatisticsEngine.from_checkpoint_state(state, arrays)
    corrupt(state, arrays)
    with pytest.raises(CheckpointError):
        OnlineStatisticsEngine.from_checkpoint_state(state, arrays)
