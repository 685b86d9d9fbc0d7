"""Load shedding: skip-ahead filter correctness and corrected estimates."""

import numpy as np
import pytest

from repro.core import LoadShedder
from repro.errors import ConfigurationError, EstimationError, InsufficientDataError
from repro.resilience import AdaptiveSheddingSketcher
from repro.sketches import FagmsSketch
from repro.streams import zipf_relation


class TestLoadShedder:
    def test_rejects_bad_probability(self):
        for p in (0.0, -1.0, 1.5):
            with pytest.raises(ConfigurationError):
                LoadShedder(p)

    def test_p_one_keeps_all(self):
        shedder = LoadShedder(1.0, seed=1)
        keys = np.arange(100)
        kept = shedder.filter(keys)
        assert np.array_equal(kept, keys)
        assert shedder.kept == shedder.seen == 100

    def test_counts_track_across_chunks(self):
        shedder = LoadShedder(0.3, seed=2)
        total_kept = 0
        for _ in range(10):
            total_kept += shedder.filter(np.arange(1000)).size
        assert shedder.seen == 10_000
        assert shedder.kept == total_kept

    def test_kept_are_subsequence(self):
        shedder = LoadShedder(0.4, seed=3)
        keys = np.arange(5000)
        kept = shedder.filter(keys)
        assert np.all(np.diff(kept) > 0)

    def test_info_requires_data(self):
        shedder = LoadShedder(0.5, seed=4)
        with pytest.raises(InsufficientDataError):
            shedder.info()
        shedder.filter(np.arange(10))
        info = shedder.info()
        assert info.scheme == "bernoulli"
        assert info.probability == 0.5

    def test_rejects_2d_chunks(self):
        with pytest.raises(ConfigurationError):
            LoadShedder(0.5).filter(np.ones((2, 2), dtype=np.int64))

    def test_empty_chunk(self):
        shedder = LoadShedder(0.5, seed=5)
        assert shedder.filter(np.array([], dtype=np.int64)).size == 0

    @pytest.mark.statistical
    def test_keep_rate_matches_p(self):
        p = 0.2
        shedder = LoadShedder(p, seed=6)
        n = 200_000
        shedder.filter(np.arange(n))
        standard_error = np.sqrt(p * (1 - p) / n)
        assert shedder.kept / n == pytest.approx(p, abs=5 * standard_error)

    @pytest.mark.statistical
    def test_positions_are_bernoulli_uniform(self):
        """Each stream position is kept with probability p, independent of
        position — including across chunk boundaries."""
        p = 0.3
        n, trials = 200, 2000
        keep_counts = np.zeros(n)
        for seed in range(trials):
            shedder = LoadShedder(p, seed=seed)
            kept = np.concatenate(
                [shedder.filter(np.arange(0, 77)), shedder.filter(np.arange(77, n))]
            )
            keep_counts[kept] += 1
        rates = keep_counts / trials
        standard_error = np.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(rates - p) < 6 * standard_error)

    @pytest.mark.statistical
    def test_keep_rate_invariant_to_chunking(self):
        """Chunk boundaries do not bias the keep rate (state carries over)."""
        p = 0.1
        keys = np.arange(100_000)
        whole = LoadShedder(p, seed=42).filter(keys).size
        chunked_shedder = LoadShedder(p, seed=43)
        chunked = sum(
            chunked_shedder.filter(chunk).size
            for chunk in np.array_split(keys, 997)
        )
        standard_error = np.sqrt(p * (1 - p) * keys.size)
        assert abs(whole - chunked) < 8 * standard_error


class TestSheddingSketcher:
    """The paper's §VI-A sketcher: an adaptive sketcher left at one rate."""

    def test_estimates_close_to_truth(self):
        relation = zipf_relation(50_000, 2_000, 1.0, seed=7)
        sketcher = AdaptiveSheddingSketcher(FagmsSketch(1024, seed=8), p=0.1, seed=9)
        for chunk in relation.chunks(4096):
            sketcher.process(chunk)
        truth = relation.self_join_size()
        assert sketcher.self_join_size() == pytest.approx(truth, rel=0.35)

    def test_join_estimate(self):
        f = zipf_relation(40_000, 2_000, 0.8, seed=10)
        g = zipf_relation(40_000, 2_000, 0.8, seed=11)
        sketch = FagmsSketch(1024, seed=12)
        sketcher_f = AdaptiveSheddingSketcher(sketch, p=0.2, seed=13)
        sketcher_g = AdaptiveSheddingSketcher(sketch.copy_empty(), p=0.5, seed=14)
        for chunk in f.chunks(8192):
            sketcher_f.process(chunk)
        for chunk in g.chunks(8192):
            sketcher_g.process(chunk)
        truth = f.join_size(g)
        assert sketcher_f.join_size(sketcher_g) == pytest.approx(truth, rel=0.5)

    def test_process_returns_kept_count(self):
        sketcher = AdaptiveSheddingSketcher(FagmsSketch(64, seed=1), p=0.5, seed=2)
        kept = sketcher.process(np.arange(1000) % 64)
        assert kept == sketcher.shedder.kept
        assert 300 < kept < 700

    def test_p_exposed(self):
        sketcher = AdaptiveSheddingSketcher(FagmsSketch(64, seed=1), p=0.25, seed=2)
        assert sketcher.rate == sketcher.shedder.p == 0.25


@pytest.mark.statistical
def test_shedding_estimator_unbiased():
    """Mean of shedded F2 estimates converges to the truth."""
    relation = zipf_relation(5_000, 500, 1.0, seed=20)
    truth = relation.self_join_size()
    estimates = []
    for seed in range(60):
        sketcher = AdaptiveSheddingSketcher(
            FagmsSketch(512, seed=3000 + seed), p=0.3, seed=seed
        )
        sketcher.process(relation.keys)
        estimates.append(sketcher.self_join_size())
    mean = np.mean(estimates)
    standard_error = np.std(estimates) / np.sqrt(len(estimates))
    assert abs(mean - truth) < 5 * standard_error


class TestLoadShedderRetuning:
    """set_p / state / restore: the resilience hooks on the shedder."""

    def test_set_p_changes_rate_without_corrupting_counts(self):
        shedder = LoadShedder(0.9, seed=7)
        first = shedder.filter(np.arange(1000))
        shedder.set_p(0.1)
        second = shedder.filter(np.arange(1000))
        assert shedder.seen == 2000
        assert shedder.kept == first.size + second.size
        assert 800 < first.size <= 1000
        assert second.size < 300

    def test_set_p_rejects_bad_rate_without_mutating(self):
        shedder = LoadShedder(0.5, seed=7)
        shedder.filter(np.arange(100))
        before = shedder.state()
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                shedder.set_p(bad)
        assert shedder.state() == before

    def test_state_restore_round_trip_is_bit_identical(self):
        shedder = LoadShedder(0.3, seed=11)
        shedder.filter(np.arange(777))
        clone = LoadShedder.restore(shedder.state())
        for _ in range(5):
            chunk = np.arange(500)
            assert np.array_equal(shedder.filter(chunk), clone.filter(chunk))
        assert shedder.seen == clone.seen
        assert shedder.kept == clone.kept

    def test_restore_survives_rate_changes(self):
        shedder = LoadShedder(0.8, seed=13)
        shedder.filter(np.arange(300))
        shedder.set_p(0.2)
        shedder.filter(np.arange(300))
        clone = LoadShedder.restore(shedder.state())
        assert clone.segments == shedder.segments
        chunk = np.arange(2000)
        assert np.array_equal(shedder.filter(chunk), clone.filter(chunk))

    def test_info_refuses_a_piecewise_rate_stream(self):
        # Reporting the current rate for every tuple seen made the paper's
        # correction overestimate F2 about 30x after a 1.0 -> 0.1 retune.
        shedder = LoadShedder(1.0, seed=17)
        shedder.filter(np.arange(1000))
        shedder.set_p(0.1)
        # Nothing has arrived at 0.1 yet: still one draw, at p = 1.
        info = shedder.info()
        assert (info.probability, info.population_size) == (1.0, 1000)
        shedder.filter(np.arange(1000))
        with pytest.raises(EstimationError, match="keep-rates"):
            shedder.info()

    def test_info_accepts_segments_at_one_rate(self):
        shedder = LoadShedder(0.5, seed=19)
        shedder.filter(np.arange(400))
        shedder.set_p(0.5)
        shedder.filter(np.arange(600))
        assert len(shedder.segments) == 2
        info = shedder.info()
        assert (info.probability, info.population_size) == (0.5, 1000)
        assert info.sample_size == shedder.kept
