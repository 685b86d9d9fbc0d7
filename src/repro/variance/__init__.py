"""Variance theory: exact first and second moments of every estimator.

This package is the analytical core of the reproduction.  It evaluates —
exactly, as rationals when asked — the expectation and variance of

* the sampling-only estimators (Props 1–6; :mod:`~repro.variance.sampling`),
* the sketch-only estimators (Props 7–8; :mod:`~repro.variance.sketch`),
* the sketch-over-samples estimators, both via the *generic* moment-based
  formulas (Props 9–12; :mod:`~repro.variance.generic`) and via the
  *closed-form* per-scheme formulas printed in the paper (Props 13–16;
  :mod:`~repro.variance.closed_form`).

The generic and closed-form paths are independent implementations that must
agree exactly — that identity is tested and is the strongest correctness
check in the library.  :mod:`~repro.variance.decomposition` splits the
combined variance into the paper's three components (sampling + sketch +
interaction, Figs 1–2), and :mod:`~repro.variance.bounds` turns variances
into confidence intervals (Section II).
"""

from .bounds import (
    ConfidenceInterval,
    chebyshev_interval,
    clt_interval,
    interval,
    normal_quantile,
)
from .covariance import (
    averaged_variance,
    averaging_floor_ratio,
    basic_join_covariance,
    basic_self_join_covariance,
)
from .closed_form import (
    bernoulli_combined_join_variance,
    bernoulli_combined_self_join_variance,
    wor_combined_join_variance,
    wr_combined_join_variance,
)
from .decomposition import VarianceDecomposition, decompose_combined_variance
from .generic import (
    combined_join_expectation,
    combined_join_variance,
    combined_self_join_expectation,
    combined_self_join_variance,
    moment_model_for,
    sampling_join_variance,
    sampling_self_join_variance,
)
from .sampling import (
    bernoulli_join_variance,
    bernoulli_self_join_variance,
    degraded_bernoulli_join_variance,
    degraded_bernoulli_self_join_variance,
    sharded_bernoulli_self_join_variance,
    wor_join_variance,
    wr_join_variance,
)
from .sketch import (
    agms_join_variance,
    agms_self_join_variance,
    averaged_agms_join_variance,
    averaged_agms_self_join_variance,
)
from .powersum import FrequencyProfile, self_join_variance_from_profile
from .tail import SketchSizing, mean_rows_needed, median_of_means_sizing

__all__ = [
    "ConfidenceInterval",
    "chebyshev_interval",
    "clt_interval",
    "interval",
    "normal_quantile",
    "agms_join_variance",
    "agms_self_join_variance",
    "averaged_agms_join_variance",
    "averaged_agms_self_join_variance",
    "bernoulli_join_variance",
    "bernoulli_self_join_variance",
    "degraded_bernoulli_join_variance",
    "degraded_bernoulli_self_join_variance",
    "sharded_bernoulli_self_join_variance",
    "wr_join_variance",
    "wor_join_variance",
    "sampling_join_variance",
    "sampling_self_join_variance",
    "combined_join_expectation",
    "combined_join_variance",
    "combined_self_join_expectation",
    "combined_self_join_variance",
    "moment_model_for",
    "bernoulli_combined_join_variance",
    "bernoulli_combined_self_join_variance",
    "wr_combined_join_variance",
    "wor_combined_join_variance",
    "VarianceDecomposition",
    "decompose_combined_variance",
    "averaged_variance",
    "basic_join_covariance",
    "basic_self_join_covariance",
    "averaging_floor_ratio",
    "SketchSizing",
    "mean_rows_needed",
    "median_of_means_sizing",
    "FrequencyProfile",
    "self_join_variance_from_profile",
]
