"""Online aggregation through the engine: scan mechanics, convergence, intervals.

Progressive answers come from :func:`run_lockstep_scan` snapshots; the
paper's analysis-mode intervals are :func:`self_join_interval` /
:func:`join_interval` evaluated at a snapshot relation's WOR prefix.
"""

import pytest

from repro.core import join_interval, self_join_interval
from repro.engine import OnlineStatisticsEngine, run_lockstep_scan
from repro.engine.scan import _validate_checkpoints
from repro.errors import ConfigurationError
from repro.sketches import FagmsSketch
from repro.streams import Relation, generate_tpch, zipf_relation


@pytest.fixture
def shuffled_relation():
    return zipf_relation(20_000, 1_000, skew=0.8, seed=40).shuffled(seed=41)


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(scale_factor=0.004, seed=60)


def _scan(relations, checkpoints, *, buckets, seed):
    engine = OnlineStatisticsEngine(buckets=buckets, seed=seed)
    return list(run_lockstep_scan(engine, relations, checkpoints=checkpoints))


def _f2_interval(snapshot, name, frequencies, confidence=0.95):
    return self_join_interval(
        snapshot.self_join_size(name),
        frequencies,
        snapshot.relation(name).info(),
        snapshot.averaged_estimators,
        confidence=confidence,
    )


def _join_interval(snapshot, frequencies):
    f, g = frequencies
    return join_interval(
        snapshot.join_size("f", "g"),
        f,
        g,
        snapshot.relation("f").info(),
        snapshot.relation("g").info(),
        snapshot.averaged_estimators,
    )


class TestCheckpointHelpers:
    def test_validate_sorts_and_dedups(self):
        assert _validate_checkpoints([0.5, 0.1, 0.5]) == [0.1, 0.5]

    def test_validate_rejects_out_of_range(self):
        nan = float("nan")
        with pytest.raises(ConfigurationError):
            _validate_checkpoints([0.0, 0.5])
        with pytest.raises(ConfigurationError):
            _validate_checkpoints([0.5, 1.5])
        with pytest.raises(ConfigurationError):
            _validate_checkpoints([])
        with pytest.raises(ConfigurationError):
            _validate_checkpoints([nan])
        with pytest.raises(ConfigurationError):
            _validate_checkpoints([0.5, nan, 1.0])

    def test_counts(self):
        relation = Relation(list(range(100)))
        snapshots = _scan({"r": relation}, (0.1, 1.0), buckets=16, seed=1)
        assert [s.scanned_tuples("r") for s in snapshots] == [10, 100]
        (snapshot,) = _scan({"r": relation}, (0.001,), buckets=16, seed=1)
        assert snapshot.scanned_tuples("r") == 1


class TestSelfJoinAggregator:
    def test_yields_one_point_per_checkpoint(self, shuffled_relation):
        snapshots = _scan(
            {"r": shuffled_relation}, (0.1, 0.5, 1.0), buckets=512, seed=1
        )
        assert [s.fraction_scanned("r") for s in snapshots] == [0.1, 0.5, 1.0]
        assert snapshots[-1].scanned_tuples("r") == len(shuffled_relation)

    def test_estimates_converge_to_plain_sketch(self, shuffled_relation):
        final = _scan({"r": shuffled_relation}, (0.1, 1.0), buckets=512, seed=2)[-1]
        plain = FagmsSketch(512, seed=2)
        plain.update(shuffled_relation.keys)
        assert final.self_join_size("r") == pytest.approx(plain.second_moment())

    def test_estimates_reasonable_at_ten_percent(self, shuffled_relation):
        truth = shuffled_relation.self_join_size()
        (snapshot,) = _scan({"r": shuffled_relation}, (0.1,), buckets=1024, seed=3)
        assert snapshot.self_join_size("r") == pytest.approx(truth, rel=0.4)

    def test_intervals_present_with_true_frequencies(self, shuffled_relation):
        fv = shuffled_relation.frequency_vector()
        snapshots = _scan({"r": shuffled_relation}, (0.2, 1.0), buckets=512, seed=4)
        first, last = (_f2_interval(s, "r", fv) for s in snapshots)
        # Interval width shrinks as more data is scanned.
        assert last.half_width < first.half_width

    def test_plugin_intervals_without_true_frequencies(self, shuffled_relation):
        # Deployment mode: the snapshot's own plug-in bound, no truth needed.
        (snapshot,) = _scan({"r": shuffled_relation}, (0.5,), buckets=256, seed=5)
        interval = snapshot.self_join_interval("r", method="clt")
        assert interval.estimate == snapshot.self_join_size("r")
        assert interval.half_width > 0

    def test_rejects_tiny_relation(self):
        engine = OnlineStatisticsEngine(buckets=16, seed=1)
        with pytest.raises(ConfigurationError):
            next(run_lockstep_scan(engine, {"r": Relation([1])}))

    def test_pinned_against_the_retired_aggregator(self, shuffled_relation):
        # float.hex of the deleted self-join aggregator's estimate and CLT
        # half-width at 10% and 100%, recorded before its removal.
        fv = shuffled_relation.frequency_vector()
        snapshots = _scan({"r": shuffled_relation}, (0.1, 1.0), buckets=512, seed=4)
        pinned = [
            (s.self_join_size("r").hex(), _f2_interval(s, "r", fv).half_width.hex())
            for s in snapshots
        ]
        assert pinned == [
            ("0x1.00e6f4baf9367p+22", "0x1.5546749ee3bb6p+19"),
            ("0x1.cbec100000000p+21", "0x1.8405025639b28p+18"),
        ]

    @pytest.mark.statistical
    def test_interval_coverage(self):
        relation = zipf_relation(5_000, 500, 0.8, seed=50)
        truth = relation.self_join_size()
        fv = relation.frequency_vector()
        hits = total = 0
        for seed in range(15):
            snapshots = _scan(
                {"r": relation.shuffled(seed=seed)},
                (0.1, 0.3),
                buckets=256,
                seed=700 + seed,
            )
            for snapshot in snapshots:
                hits += _f2_interval(snapshot, "r", fv).contains(truth)
                total += 1
        assert hits / total >= 0.8


class TestJoinAggregator:
    def test_lockstep_scan_on_tpch(self, tpch):
        truth = tpch.exact_join_size()
        frequencies = (
            tpch.lineitem.frequency_vector(),
            tpch.orders.frequency_vector(),
        )
        snapshots = _scan(
            {"f": tpch.lineitem, "g": tpch.orders},
            (0.1, 0.5, 1.0),
            buckets=1024,
            seed=6,
        )
        assert len(snapshots) == 3
        assert snapshots[-1].join_size("f", "g") == pytest.approx(truth, rel=0.25)
        for snapshot in snapshots:
            assert _join_interval(snapshot, frequencies).half_width > 0

    def test_scanned_counts_scale_with_relation_sizes(self):
        f = zipf_relation(1_000, 100, 0.5, seed=3)
        g = zipf_relation(500, 100, 0.5, seed=4)
        (snapshot,) = _scan({"f": f, "g": g}, (0.5,), buckets=64, seed=5)
        assert snapshot.scanned_tuples("f") == 500
        assert snapshot.scanned_tuples("g") == 250

    def test_pinned_against_the_retired_aggregator(self, tpch):
        # float.hex of the deleted join aggregator's estimate and CLT
        # half-width at 10% and 100%, recorded before its removal.
        frequencies = (
            tpch.lineitem.frequency_vector(),
            tpch.orders.frequency_vector(),
        )
        snapshots = _scan(
            {"f": tpch.lineitem, "g": tpch.orders},
            (0.1, 1.0),
            buckets=1024,
            seed=6,
        )
        pinned = [
            (
                s.join_size("f", "g").hex(),
                _join_interval(s, frequencies).half_width.hex(),
            )
            for s in snapshots
        ]
        assert pinned == [
            ("0x1.e90acac162656p+14", "0x1.223224f4dc760p+13"),
            ("0x1.8b38000000000p+14", "0x1.140273660d590p+11"),
        ]
