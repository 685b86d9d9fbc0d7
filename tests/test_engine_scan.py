"""Lockstep scan driver."""

import pytest

from repro.engine import OnlineStatisticsEngine, run_lockstep_scan
from repro.errors import ConfigurationError
from repro.streams import generate_tpch


@pytest.fixture
def tpch():
    return generate_tpch(scale_factor=0.003, seed=61)


def test_yields_one_snapshot_per_checkpoint(tpch):
    engine = OnlineStatisticsEngine(buckets=1024, seed=62)
    snapshots = list(
        run_lockstep_scan(
            engine,
            {"lineitem": tpch.lineitem, "orders": tpch.orders},
            checkpoints=(0.1, 0.5, 1.0),
        )
    )
    assert len(snapshots) == 3
    final = snapshots[-1]
    assert final.fractions["lineitem"] == pytest.approx(1.0)
    assert final.fractions["orders"] == pytest.approx(1.0)


def test_statistics_converge_along_scan(tpch):
    engine = OnlineStatisticsEngine(buckets=2048, seed=63)
    truth = tpch.exact_join_size()
    errors = []
    for snapshot in run_lockstep_scan(
        engine,
        {"lineitem": tpch.lineitem, "orders": tpch.orders},
        checkpoints=(0.1, 1.0),
    ):
        estimate = snapshot.join_sizes[("lineitem", "orders")]
        errors.append(abs(estimate - truth) / truth)
    assert errors[-1] < 0.2


def test_auto_registration(tpch):
    engine = OnlineStatisticsEngine(buckets=256, seed=64)
    next(iter(run_lockstep_scan(engine, {"orders": tpch.orders}, checkpoints=(0.5,))))
    assert engine.relations == ("orders",)
    assert engine.fraction_scanned("orders") == pytest.approx(0.5)


def test_rejects_empty_mapping():
    engine = OnlineStatisticsEngine(buckets=64, seed=65)
    with pytest.raises(ConfigurationError):
        next(iter(run_lockstep_scan(engine, {})))


def test_rejects_partially_scanned_engine(tpch):
    engine = OnlineStatisticsEngine(buckets=256, seed=66)
    engine.register("orders", len(tpch.orders))
    engine.consume("orders", tpch.orders.keys[:10])
    with pytest.raises(ConfigurationError):
        next(iter(run_lockstep_scan(engine, {"orders": tpch.orders})))
