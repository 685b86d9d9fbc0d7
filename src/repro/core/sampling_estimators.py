"""Sampling-only estimators (Section III) — the paper's first baseline.

These estimators compute the aggregate *exactly over the sample* (no
sketch) and unbias it for the population — Props 3–6.  They are the
baseline the combined estimator is measured against, and they also mark
one side of the classic trade-off the paper's discussion cites (ref [2]):
sampling is the better primitive for **size of join**, sketches for the
**second frequency moment**.  The ablation bench
``benchmarks/test_ablation_estimator_comparison.py`` reproduces exactly
that trade-off with these estimators.

The functions accept the sample either as a key array (what a streaming
sampler emits) or as a :class:`~repro.frequency.FrequencyVector`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import DomainError
from ..frequency import FrequencyVector
from ..sampling.base import SampleInfo
from ..sampling.unbiasing import join_scale, self_join_correction
from ..variance.bounds import ConfidenceInterval, interval
from ..variance.generic import (
    moment_model_for,
    sampling_join_variance,
    sampling_self_join_variance,
)

__all__ = [
    "sample_join_size",
    "sample_self_join_size",
    "sample_join_interval",
    "sample_self_join_interval",
]

SampleLike = Union[FrequencyVector, np.ndarray, list]


def _as_frequency_vector(sample: SampleLike, domain_size: int) -> FrequencyVector:
    if isinstance(sample, FrequencyVector):
        if sample.domain_size != domain_size:
            raise DomainError(
                f"sample domain {sample.domain_size} does not match "
                f"declared domain {domain_size}"
            )
        return sample
    return FrequencyVector.from_items(np.asarray(sample), domain_size)


def sample_join_size(
    sample_f: SampleLike,
    info_f: SampleInfo,
    sample_g: SampleLike,
    info_g: SampleInfo,
    domain_size: int,
) -> float:
    """Unbiased ``|F ⋈ G|`` from two explicit samples (Props 3, 5, 6).

    ``X = C · Σᵢ f′ᵢ g′ᵢ`` with the scheme-appropriate ``C``.
    """
    fv_f = _as_frequency_vector(sample_f, domain_size)
    fv_g = _as_frequency_vector(sample_g, domain_size)
    return float(join_scale(info_f, info_g)) * fv_f.join_size(fv_g)


def sample_self_join_size(
    sample: SampleLike, info: SampleInfo, domain_size: int
) -> float:
    """Unbiased ``F₂`` from an explicit sample (Props 4 and Section III-D/E)."""
    fv = _as_frequency_vector(sample, domain_size)
    correction = self_join_correction(info)
    return correction.apply(float(fv.f2), info.sample_size)


def sample_join_interval(
    estimate: float,
    f: FrequencyVector,
    g: FrequencyVector,
    info_f: SampleInfo,
    info_g: SampleInfo,
    *,
    confidence: float = 0.95,
    method: str = "clt",
) -> ConfidenceInterval:
    """Theory-backed interval around a sampling-only join estimate.

    Uses the exact Prop 1 variance (needs the base frequency vectors —
    analysis/planning mode, like :func:`repro.core.estimators.join_interval`).
    """
    variance = float(
        sampling_join_variance(
            moment_model_for(info_f),
            f,
            moment_model_for(info_g),
            g,
            join_scale(info_f, info_g),
        )
    )
    return interval(estimate, variance, confidence, method)


def sample_self_join_interval(
    estimate: float,
    f: FrequencyVector,
    info: SampleInfo,
    *,
    confidence: float = 0.95,
    method: str = "clt",
) -> ConfidenceInterval:
    """Theory-backed interval around a sampling-only ``F₂`` estimate."""
    correction = self_join_correction(info)
    variance = float(
        sampling_self_join_variance(
            moment_model_for(info),
            f,
            correction.scale,
            correction=correction.random_coefficient,
        )
    )
    return interval(estimate, variance, confidence, method)
