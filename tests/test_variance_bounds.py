"""Confidence-interval helpers and the normal quantile approximation."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.errors import ConfigurationError
from repro.variance.bounds import (
    chebyshev_interval,
    clt_interval,
    interval,
    normal_quantile,
)


class TestNormalQuantile:
    def test_matches_scipy_across_range(self):
        for p in (1e-9, 1e-4, 0.01, 0.025, 0.3, 0.5, 0.7, 0.975, 0.99, 1 - 1e-6):
            assert normal_quantile(p) == pytest.approx(
                stats.norm.ppf(p), abs=1e-6
            )

    def test_symmetry(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile(0.9) == pytest.approx(-normal_quantile(0.1), rel=1e-8)

    def test_rejects_out_of_range(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ConfigurationError):
                normal_quantile(p)


class TestIntervals:
    def test_clt_halfwidth(self):
        interval = clt_interval(100.0, variance=25.0, confidence=0.95)
        assert interval.half_width == pytest.approx(1.959964 * 5, rel=1e-5)
        assert interval.contains(100.0)
        assert interval.method == "clt"

    def test_chebyshev_halfwidth(self):
        interval = chebyshev_interval(100.0, variance=25.0, confidence=0.95)
        assert interval.half_width == pytest.approx(5 / math.sqrt(0.05), rel=1e-12)
        assert interval.method == "chebyshev"

    def test_chebyshev_wider_than_clt(self):
        clt = clt_interval(0.0, 1.0, 0.95)
        chebyshev = chebyshev_interval(0.0, 1.0, 0.95)
        assert chebyshev.half_width > clt.half_width

    def test_zero_variance_collapses(self):
        interval = clt_interval(7.0, 0.0)
        assert interval.low == interval.high == 7.0
        assert interval.contains(7.0)
        assert not interval.contains(7.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            clt_interval(0.0, -1.0)
        with pytest.raises(ConfigurationError):
            chebyshev_interval(0.0, 1.0, confidence=1.0)
        with pytest.raises(ConfigurationError):
            chebyshev_interval(0.0, 1.0, confidence=0.0)

    def test_method_switch(self):
        assert interval(3.0, 4.0, 0.9, "clt") == clt_interval(3.0, 4.0, 0.9)
        assert interval(3.0, 4.0, 0.9, "chebyshev") == chebyshev_interval(
            3.0, 4.0, 0.9
        )
        for method in ("bootstrap", "CLT", "", None):
            with pytest.raises(ConfigurationError):
                interval(3.0, 4.0, 0.9, method)

    @pytest.mark.statistical
    def test_clt_coverage_on_gaussian_estimates(self):
        rng = np.random.default_rng(5)
        truth, sigma = 50.0, 3.0
        hits = 0
        trials = 2000
        for _ in range(trials):
            estimate = rng.normal(truth, sigma)
            if clt_interval(estimate, sigma**2, 0.95).contains(truth):
                hits += 1
        assert hits / trials == pytest.approx(0.95, abs=0.02)

    @pytest.mark.statistical
    def test_chebyshev_coverage_at_least_nominal(self):
        rng = np.random.default_rng(6)
        truth, sigma = 10.0, 2.0
        trials = 2000
        hits = sum(
            chebyshev_interval(rng.normal(truth, sigma), sigma**2, 0.9).contains(truth)
            for _ in range(trials)
        )
        assert hits / trials >= 0.9
