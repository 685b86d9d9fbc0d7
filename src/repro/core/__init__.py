"""The paper's primary contribution: sketch-over-samples estimation.

This package combines the substrates — sketches (:mod:`repro.sketches`),
sampling (:mod:`repro.sampling`), and the variance theory
(:mod:`repro.variance`) — into the estimators the paper introduces
(Section V) and their three applications (Section VI):

* :mod:`~repro.core.estimators` — build a sketch over a sample of a
  relation and produce unbiased size-of-join / self-join-size estimates
  with optional theory-backed confidence intervals;
* :mod:`~repro.core.load_shedding` — streaming Bernoulli shedding with
  skip-ahead sampling and its rate ledger (Section VI-A);
* :mod:`~repro.core.iid` — estimating properties of a generative model
  from a stream of i.i.d. (with-replacement) samples (Section VI-B);
* online aggregation (Section VI-C) lives in :mod:`repro.engine`.
"""

from .heavy_hitters import HeavyHitter, estimate_frequencies, heavy_hitters
from .estimators import (
    JoinEstimate,
    SelfJoinEstimate,
    estimate_join_size,
    estimate_self_join_size,
    join_interval,
    self_join_interval,
    sketch_over_sample,
)
from .iid import GenerativeModelEstimator
from .load_shedding import LoadShedder
from .planning import SheddingPlan, plan_shedding_rate, predict_relative_error
from .sampling_estimators import (
    sample_join_interval,
    sample_join_size,
    sample_self_join_interval,
    sample_self_join_size,
)

__all__ = [
    "sketch_over_sample",
    "estimate_join_size",
    "estimate_self_join_size",
    "JoinEstimate",
    "SelfJoinEstimate",
    "join_interval",
    "self_join_interval",
    "LoadShedder",
    "GenerativeModelEstimator",
    "SheddingPlan",
    "plan_shedding_rate",
    "predict_relative_error",
    "sample_join_size",
    "sample_self_join_size",
    "sample_join_interval",
    "sample_self_join_interval",
    "HeavyHitter",
    "estimate_frequencies",
    "heavy_hitters",
]
