"""Runtime plug-in variance bounds (repro.variance.runtime).

The serving layer reports confidence intervals built from bounds that
substitute observable plug-ins for the unobservable frequency moments of
Props 9–16.  Two properties matter: the limits are exact where exactness
is possible (full scan → pure sketch variance), and the bounds are
*conservative* — at least the true estimator variance — so the served
intervals over-cover.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import OnlineStatisticsEngine
from repro.errors import ConfigurationError
from repro.variance.runtime import (
    prefix_join_variance,
    prefix_point_frequency_variance,
    prefix_self_join_variance,
)


class TestValidation:
    def test_self_join_rejects_bad_prefix(self):
        with pytest.raises(ConfigurationError):
            prefix_self_join_variance(10.0, scanned=0, total=100)
        with pytest.raises(ConfigurationError):
            prefix_self_join_variance(10.0, scanned=101, total=100)
        with pytest.raises(ConfigurationError):
            prefix_self_join_variance(10.0, scanned=1, total=0)

    def test_self_join_rejects_bad_averaged(self):
        with pytest.raises(ConfigurationError):
            prefix_self_join_variance(10.0, scanned=5, total=10, averaged=0)

    def test_join_rejects_bad_prefixes(self):
        with pytest.raises(ConfigurationError):
            prefix_join_variance(
                5.0, 10.0, 10.0,
                scanned_f=0, total_f=10, scanned_g=5, total_g=10,
            )

    def test_point_rejects_bad_buckets(self):
        with pytest.raises(ConfigurationError):
            prefix_point_frequency_variance(
                5.0, 100.0, scanned=5, total=10, buckets=0
            )


class TestFullScanLimits:
    def test_self_join_full_scan_is_pure_sketch_variance(self):
        # alpha = 1: no sampling noise; the bound collapses to the Prop 8
        # sketch term 2*F2^2/n evaluated at the plug-in F2.
        assert prefix_self_join_variance(
            100.0, scanned=50, total=50, averaged=4
        ) == pytest.approx(2.0 * 100.0**2 / 4)

    def test_join_full_scan_is_pure_sketch_variance(self):
        # alpha = beta = 1: only the (F2*G2 + J^2)/n Prop 7 term survives.
        assert prefix_join_variance(
            10.0, 40.0, 90.0,
            scanned_f=8, total_f=8, scanned_g=5, total_g=5, averaged=2,
        ) == pytest.approx((40.0 * 90.0 + 10.0**2) / 2)

    def test_point_full_scan_is_collision_noise_only(self):
        assert prefix_point_frequency_variance(
            7.0, 640.0, scanned=10, total=10, buckets=64
        ) == pytest.approx(640.0 / 64)

    def test_negative_estimates_clamp_to_zero_moments(self):
        # A negative (noisy) estimate must not produce a negative bound.
        assert prefix_self_join_variance(-5.0, scanned=10, total=10) == 0.0
        assert (
            prefix_join_variance(
                -5.0, -1.0, -1.0,
                scanned_f=10, total_f=10, scanned_g=10, total_g=10,
            )
            == 0.0
        )


class TestMonotonicity:
    def test_self_join_bound_shrinks_as_scan_progresses(self):
        bounds = [
            prefix_self_join_variance(
                1000.0, scanned=s, total=100, averaged=8
            )
            for s in (10, 25, 50, 75, 100)
        ]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_join_bound_shrinks_as_either_scan_progresses(self):
        def bound(sf, sg):
            return prefix_join_variance(
                100.0, 400.0, 400.0,
                scanned_f=sf, total_f=50, scanned_g=sg, total_g=50,
                averaged=8,
            )

        assert bound(10, 25) > bound(25, 25) > bound(25, 50) > bound(50, 50)

    def test_point_bound_shrinks_as_scan_progresses(self):
        bounds = [
            prefix_point_frequency_variance(
                20.0, 500.0, scanned=s, total=100, buckets=64
            )
            for s in (10, 50, 100)
        ]
        assert bounds[0] > bounds[1] > bounds[2]


def _wor_prefix_estimates(keys, total, scanned, trials, *, buckets, rows):
    """Monte-Carlo replicates of the engine's prefix self-join estimate."""
    estimates = np.empty(trials)
    rng = np.random.default_rng(2024)
    for trial in range(trials):
        engine = OnlineStatisticsEngine(buckets=buckets, rows=rows, seed=trial)
        engine.register("r", total)
        engine.consume("r", rng.permutation(keys)[:scanned])
        estimates[trial] = engine.snapshot().self_join_size("r")
    return estimates


@pytest.mark.statistical
class TestConservativeness:
    def test_self_join_bound_covers_empirical_variance(self):
        # Skewed relation, half-scanned: the empirical variance of the
        # real estimator must sit below the plug-in bound evaluated with
        # the TRUE F2 (every later substitution only enlarges it further).
        rng = np.random.default_rng(7)
        keys = rng.zipf(1.3, size=2000) % 500
        total = keys.size
        true_f2 = float((np.bincount(keys) ** 2).sum())
        estimates = _wor_prefix_estimates(
            keys, total, scanned=total // 2, trials=150, buckets=256, rows=1
        )
        empirical = float(estimates.var())
        bound = prefix_self_join_variance(
            true_f2, scanned=total // 2, total=total, averaged=256
        )
        assert bound > empirical

    def test_full_scan_bound_covers_sketch_only_variance(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 200, size=1500)
        total = keys.size
        true_f2 = float((np.bincount(keys) ** 2).sum())
        estimates = _wor_prefix_estimates(
            keys, total, scanned=total, trials=150, buckets=128, rows=1
        )
        empirical = float(estimates.var())
        bound = prefix_self_join_variance(
            true_f2, scanned=total, total=total, averaged=128
        )
        assert bound > empirical
