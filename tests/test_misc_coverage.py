"""Cross-cutting coverage: smaller paths not exercised elsewhere."""

import numpy as np
import pytest

from repro.errors import ConfigurationError


class TestCliCsvDir:
    def test_all_with_csv_dir(self, tmp_path, capsys):
        from repro.experiments.cli import main

        code = main(
            [
                "fig2",
                "--scale",
                "small",
                "--trials",
                "3",
                "--csv-dir",
                str(tmp_path / "out"),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "out" / "fig2.csv").exists()


class TestEngineCheckpointEdges:
    def test_tiny_first_checkpoint_has_no_self_join_estimate(self):
        from repro.engine import OnlineStatisticsEngine, run_lockstep_scan
        from repro.errors import InsufficientDataError
        from repro.streams import Relation

        relation = Relation(np.arange(100) % 7)
        engine = OnlineStatisticsEngine(buckets=32, seed=1)
        first, last = run_lockstep_scan(
            engine, {"r": relation}, checkpoints=(0.001, 1.0)
        )
        # The 0.1% checkpoint is a single tuple; the unbiasing needs at
        # least 2, so that snapshot has no F2 estimate for the relation.
        assert first.scanned_tuples("r") == 1
        assert "r" not in first.self_join_sizes
        with pytest.raises(InsufficientDataError):
            first.self_join_size("r")
        assert last.scanned_tuples("r") == 100
        assert "r" in last.self_join_sizes


class TestCombinerPaths:
    def test_agms_point_estimates_with_median_of_means(self):
        from repro.frequency import FrequencyVector
        from repro.sketches import AgmsSketch

        fv = FrequencyVector(np.array([0, 21, 0, 0]))
        sketch = AgmsSketch(rows=12, seed=2, combine="median-of-means", groups=3)
        sketch.update_frequency_vector(fv)
        assert sketch.point_estimate(1) == pytest.approx(21.0)

    def test_fagms_mean_combining(self):
        from repro.frequency import FrequencyVector
        from repro.sketches import FagmsSketch

        fv = FrequencyVector(np.array([3, 1, 4]))
        sketch = FagmsSketch(buckets=64, rows=4, seed=3, combine="mean")
        sketch.update_frequency_vector(fv)
        rows = sketch.row_second_moments()
        assert sketch.second_moment() == pytest.approx(float(rows.mean()))


class TestScaleAndReport:
    def test_with_rejects_unknown_field(self):
        from repro.experiments import ExperimentScale

        with pytest.raises(TypeError):
            ExperimentScale.small().with_(bogus=1)

    def test_format_table_without_title(self):
        from repro.experiments import format_table

        table = format_table(("a",), [(1,)])
        assert table.splitlines()[0].strip() == "a"

    def test_scale_validates_every_field(self):
        from repro.experiments import ExperimentScale

        for field in ("n_tuples", "domain_size", "buckets", "trials", "tpch_orders"):
            with pytest.raises(ConfigurationError):
                ExperimentScale(**{field: 0})


class TestSamplerEdgeCases:
    def test_wor_fraction_rounds_to_at_least_one(self, rng):
        from repro.sampling import WithoutReplacementSampler

        sampler = WithoutReplacementSampler(fraction=1e-9)
        sampled, info = sampler.sample_items(np.arange(100), rng)
        assert info.sample_size == 1

    def test_wor_fraction_never_exceeds_population(self, rng):
        from repro.sampling import WithoutReplacementSampler

        sampler = WithoutReplacementSampler(fraction=0.999999)
        assert sampler.resolve_size(3) <= 3

    def test_bernoulli_info_fraction_zero_population(self):
        from repro.sampling import SampleInfo

        info = SampleInfo("bernoulli", 0, 0, probability=0.5)
        assert info.fraction == 0.0


class TestMersenneConstants:
    def test_primes_are_prime(self):
        import sympy

        from repro.hashing import MERSENNE_P31, MERSENNE_P61

        assert sympy.isprime(MERSENNE_P31)
        assert sympy.isprime(MERSENNE_P61)
        assert MERSENNE_P31 == 2**31 - 1
        assert MERSENNE_P61 == 2**61 - 1


class TestStatisticsEngineSeedSharing:
    def test_cross_relation_sketches_share_families(self):
        from repro.engine import OnlineStatisticsEngine

        engine = OnlineStatisticsEngine(buckets=64, seed=5)
        engine.register("a", 10)
        engine.register("b", 10)
        sketch_a = engine._relations["a"].sketch
        sketch_b = engine._relations["b"].sketch
        sketch_a.check_compatible(sketch_b)  # must not raise
