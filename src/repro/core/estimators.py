"""Sketch-over-samples estimators (Section V of the paper).

The workflow mirrors the paper exactly:

1. draw a sample of a relation with one of the three schemes
   (:mod:`repro.sampling`),
2. sketch the sample instead of the full relation,
3. scale/correct the sketch estimate so it is unbiased for the *full*
   relation's aggregate (the corrections of
   :mod:`repro.sampling.unbiasing`),
4. (optionally) attach a confidence interval computed from the exact
   combined variance of Props 9–16.

:func:`sketch_over_sample` performs steps 1–2, returning the
:class:`~repro.sampling.base.SampleInfo` that steps 3–4 need;
:func:`estimate_join_size` / :func:`estimate_self_join_size` perform
step 3; :func:`join_interval` / :func:`self_join_interval` perform step 4
when the base frequency vectors are available (analysis / planning mode —
the variance formulas need the true frequency moments).

Example
-------
>>> from repro.sketches import FagmsSketch
>>> from repro.sampling import BernoulliSampler
>>> from repro.streams import zipf_relation
>>> from repro.core import sketch_over_sample, estimate_self_join_size
>>> relation = zipf_relation(100_000, 10_000, skew=1.0, seed=7)
>>> sketch = FagmsSketch(buckets=2_000, seed=42)
>>> info = sketch_over_sample(relation, BernoulliSampler(0.1), sketch, seed=3)
>>> estimate = estimate_self_join_size(sketch, info)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..errors import ConfigurationError
from ..frequency import FrequencyVector
from ..rng import SeedLike, as_generator
from ..sampling.base import SampleInfo, Sampler
from ..sampling.unbiasing import join_scale, self_join_correction
from ..sketches.base import Sketch
from ..streams.base import Relation
from ..variance.bounds import ConfidenceInterval, interval
from ..variance.generic import (
    combined_join_variance,
    combined_self_join_variance,
    moment_model_for,
)

__all__ = [
    "sketch_over_sample",
    "estimate_join_size",
    "estimate_self_join_size",
    "JoinEstimate",
    "SelfJoinEstimate",
    "join_interval",
    "self_join_interval",
]

Source = Union[Relation, FrequencyVector]


@dataclass(frozen=True)
class JoinEstimate:
    """Unbiased size-of-join estimate with its provenance."""

    value: float
    raw_sketch_estimate: float
    scale: float
    info_f: SampleInfo
    info_g: SampleInfo


@dataclass(frozen=True)
class SelfJoinEstimate:
    """Unbiased self-join-size estimate with its provenance."""

    value: float
    raw_sketch_estimate: float
    info: SampleInfo


def sketch_over_sample(
    source: Source,
    sampler: Sampler,
    sketch: Sketch,
    *,
    seed: SeedLike = None,
    path: str = "auto",
) -> SampleInfo:
    """Sample *source* and insert the sample into *sketch* (in place).

    Parameters
    ----------
    source:
        The relation to sample — a :class:`~repro.streams.base.Relation`
        (tuple-domain) or a :class:`~repro.frequency.FrequencyVector`.
    sampler:
        Any of the three sampling schemes.
    sketch:
        A zeroed (or pre-existing, if accumulating) sketch to update.
    seed:
        Randomness of the sampling draw.
    path:
        ``"items"`` forces tuple-domain sampling, ``"frequency"`` forces the
        frequency-domain fast path, ``"auto"`` (default) picks frequency
        for :class:`FrequencyVector` sources and items for relations.

    Returns
    -------
    SampleInfo
        The draw metadata required by the estimate/correction functions.
    """
    if path not in ("auto", "items", "frequency"):
        raise ConfigurationError(f"unknown sampling path {path!r}")
    rng = as_generator(seed)
    if isinstance(source, FrequencyVector):
        if path == "items":
            raise ConfigurationError(
                "tuple-domain sampling of a FrequencyVector would require "
                "materializing the relation; pass a Relation instead"
            )
        sample, info = sampler.sample_frequencies(source, rng)
        sketch.update_frequency_vector(sample)
        return info
    if not isinstance(source, Relation):
        raise ConfigurationError(
            f"source must be a Relation or FrequencyVector, got {type(source)!r}"
        )
    if path == "frequency":
        sample, info = sampler.sample_frequencies(source.frequency_vector(), rng)
        sketch.update_frequency_vector(sample)
        return info
    sampled_keys, info = sampler.sample_items(source.keys, rng)
    sketch.update(sampled_keys)
    return info


def estimate_join_size(
    sketch_f: Sketch,
    info_f: SampleInfo,
    sketch_g: Sketch,
    info_g: SampleInfo,
) -> JoinEstimate:
    """Unbiased ``|F ⋈ G|`` estimate from sketches of two samples.

    The raw sketch inner product estimates the *sample* join size
    ``Σᵢ f′ᵢg′ᵢ``; scaling by ``C`` (Eq. 18's constant) unbiases it for the
    population.
    """
    raw = sketch_f.inner_product(sketch_g)
    scale = float(join_scale(info_f, info_g))
    return JoinEstimate(
        value=scale * raw,
        raw_sketch_estimate=raw,
        scale=scale,
        info_f=info_f,
        info_g=info_g,
    )


def estimate_self_join_size(sketch: Sketch, info: SampleInfo) -> SelfJoinEstimate:
    """Unbiased ``F₂`` estimate from a sketch of one sample.

    Applies the scheme-specific scale *and* additive correction (the
    estimators of Props 4, 14 and Sections III-D/E, V-C/D).
    """
    raw = sketch.second_moment()
    correction = self_join_correction(info)
    return SelfJoinEstimate(
        value=correction.apply(raw, info.sample_size),
        raw_sketch_estimate=raw,
        info=info,
    )


# ----------------------------------------------------------------------
# Theory-backed confidence intervals (analysis / planning mode)
# ----------------------------------------------------------------------

def join_interval(
    estimate: Union[JoinEstimate, float],
    f: FrequencyVector,
    g: FrequencyVector,
    info_f: SampleInfo,
    info_g: SampleInfo,
    n: int,
    *,
    confidence: float = 0.95,
    method: str = "clt",
) -> ConfidenceInterval:
    """Confidence interval from the exact combined variance (Props 9–11).

    Needs the *base* frequency vectors — this is the paper's analysis
    setting (e.g. deciding how aggressive load shedding may be for a known
    workload profile).  ``n`` is the number of averaged basic estimators
    (the bucket count for F-AGMS).
    """
    value = estimate.value if isinstance(estimate, JoinEstimate) else float(estimate)
    variance = combined_join_variance(
        moment_model_for(info_f),
        f,
        moment_model_for(info_g),
        g,
        join_scale(info_f, info_g),
        n,
    )
    return interval(value, float(variance), confidence, method)


def self_join_interval(
    estimate: Union[SelfJoinEstimate, float],
    f: FrequencyVector,
    info: SampleInfo,
    n: int,
    *,
    confidence: float = 0.95,
    method: str = "clt",
) -> ConfidenceInterval:
    """Confidence interval from the exact combined variance (Props 10–12).

    See :func:`join_interval` about the analysis setting.
    """
    value = (
        estimate.value if isinstance(estimate, SelfJoinEstimate) else float(estimate)
    )
    correction = self_join_correction(info)
    variance = combined_self_join_variance(
        moment_model_for(info),
        f,
        correction.scale,
        n,
        correction=correction.random_coefficient,
    )
    return interval(value, float(variance), confidence, method)
