"""Sampling-only baselines (Props 3–6): correctness and the classic
sampling-vs-sketching trade-off."""

import numpy as np
import pytest

from repro.core.sampling_estimators import (
    sample_join_interval,
    sample_join_size,
    sample_self_join_interval,
    sample_self_join_size,
)
from repro.errors import ConfigurationError, DomainError
from repro.sampling import (
    BernoulliSampler,
    WithReplacementSampler,
    WithoutReplacementSampler,
)
from repro.streams.synthetic import zipf_frequency_vector

F = zipf_frequency_vector(20_000, 1_000, 1.0, seed=85, shuffle_values=False)
G = zipf_frequency_vector(20_000, 1_000, 1.0, seed=86, shuffle_values=False)

SAMPLERS = [
    BernoulliSampler(0.2),
    WithReplacementSampler(fraction=0.2),
    WithoutReplacementSampler(fraction=0.2),
]


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.scheme)
def test_full_information_recovers_truth_for_exact_schemes(sampler):
    """With a 100% Bernoulli/WOR sample the estimators are exact."""
    if sampler.scheme == "with_replacement":
        pytest.skip("WR never reduces to the identity")
    full = (
        BernoulliSampler(1.0)
        if sampler.scheme == "bernoulli"
        else WithoutReplacementSampler(fraction=1.0)
    )
    sample, info = full.sample_frequencies(F, seed=1)
    assert sample_self_join_size(sample, info, F.domain_size) == pytest.approx(F.f2)
    sample_g, info_g = full.sample_frequencies(G, seed=2)
    assert sample_join_size(
        sample, info, sample_g, info_g, F.domain_size
    ) == pytest.approx(F.join_size(G))


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.scheme)
@pytest.mark.statistical
def test_self_join_unbiased(sampler):
    estimates = []
    for seed in range(200):
        sample, info = sampler.sample_frequencies(F, seed=seed)
        estimates.append(sample_self_join_size(sample, info, F.domain_size))
    estimates = np.asarray(estimates)
    standard_error = estimates.std(ddof=1) / np.sqrt(estimates.size)
    assert abs(estimates.mean() - F.f2) < 5 * standard_error


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.scheme)
@pytest.mark.statistical
def test_join_unbiased(sampler):
    truth = F.join_size(G)
    estimates = []
    for seed in range(200):
        sample_f, info_f = sampler.sample_frequencies(F, seed=2 * seed)
        sample_g, info_g = sampler.sample_frequencies(G, seed=2 * seed + 1)
        estimates.append(
            sample_join_size(sample_f, info_f, sample_g, info_g, F.domain_size)
        )
    estimates = np.asarray(estimates)
    standard_error = estimates.std(ddof=1) / np.sqrt(estimates.size)
    assert abs(estimates.mean() - truth) < 5 * standard_error


def test_accepts_key_arrays():
    sampler = BernoulliSampler(0.5)
    keys = F.to_items()
    sampled, info = sampler.sample_items(keys, seed=3)
    estimate = sample_self_join_size(sampled, info, F.domain_size)
    assert estimate == pytest.approx(F.f2, rel=0.25)


def test_rejects_domain_mismatch():
    sampler = BernoulliSampler(0.5)
    sample, info = sampler.sample_frequencies(F, seed=4)
    with pytest.raises(DomainError):
        sample_self_join_size(sample, info, F.domain_size + 1)


def test_intervals_cover_truth_typically():
    hits_self = hits_join = 0
    trials = 12
    sampler = WithoutReplacementSampler(fraction=0.2)
    for seed in range(trials):
        sample_f, info_f = sampler.sample_frequencies(F, seed=seed)
        sample_g, info_g = sampler.sample_frequencies(G, seed=100 + seed)
        estimate_self = sample_self_join_size(sample_f, info_f, F.domain_size)
        interval_self = sample_self_join_interval(estimate_self, F, info_f)
        hits_self += interval_self.contains(F.f2)
        estimate_join = sample_join_size(
            sample_f, info_f, sample_g, info_g, F.domain_size
        )
        interval_join = sample_join_interval(
            estimate_join, F, G, info_f, info_g
        )
        hits_join += interval_join.contains(F.join_size(G))
    assert hits_self >= trials - 2
    assert hits_join >= trials - 2


def test_chebyshev_interval_method():
    sampler = BernoulliSampler(0.3)
    sample, info = sampler.sample_frequencies(F, seed=5)
    estimate = sample_self_join_size(sample, info, F.domain_size)
    clt = sample_self_join_interval(estimate, F, info, method="clt")
    chebyshev = sample_self_join_interval(estimate, F, info, method="chebyshev")
    assert chebyshev.half_width > clt.half_width


@pytest.mark.parametrize("method", ["bootstrap", "CLT"])
def test_unknown_interval_method_rejected(method):
    sampler = BernoulliSampler(0.3)
    sample_f, info_f = sampler.sample_frequencies(F, seed=5)
    sample_g, info_g = sampler.sample_frequencies(G, seed=6)
    estimate = sample_self_join_size(sample_f, info_f, F.domain_size)
    with pytest.raises(ConfigurationError):
        sample_self_join_interval(estimate, F, info_f, method=method)
    join = sample_join_size(sample_f, info_f, sample_g, info_g, F.domain_size)
    with pytest.raises(ConfigurationError):
        sample_join_interval(join, F, G, info_f, info_g, method=method)


def test_classic_tradeoff_sampling_better_for_join_sketch_for_f2():
    """The paper's §V-B remark (citing ref [2]): at equal budgets, sampling
    is the stronger primitive for size of join while sketching is stronger
    for the second frequency moment.

    Verified on the *exact theoretical variances* — WOR sample of ``m``
    tuples vs ``m`` averaged AGMS estimators — so the comparison is
    deterministic.
    """
    from repro.sampling.base import SampleInfo
    from repro.sampling.coefficients import SamplingCoefficients
    from repro.sampling.moments import WithoutReplacementMoments
    from repro.sampling.unbiasing import self_join_correction
    from repro.variance.generic import sampling_self_join_variance
    from repro.variance.sampling import wor_join_variance
    from repro.variance.sketch import agms_join_variance, agms_self_join_variance

    f = zipf_frequency_vector(20_000, 1_000, 0.8, seed=87, shuffle_values=True)
    g = zipf_frequency_vector(20_000, 1_000, 0.8, seed=88, shuffle_values=True)
    budget = 1_000  # tuples for the sample == basic estimators for the sketch
    coeff_f = SamplingCoefficients(budget, f.total)
    coeff_g = SamplingCoefficients(budget, g.total)

    join_sample_var = float(wor_join_variance(f, g, coeff_f, coeff_g))
    join_sketch_var = agms_join_variance(f, g) / budget
    assert join_sample_var < join_sketch_var

    correction = self_join_correction(
        SampleInfo("without_replacement", f.total, budget)
    )
    model = WithoutReplacementMoments(budget, f.total)
    f2_sample_var = float(
        sampling_self_join_variance(model, f, correction.scale)
    )
    f2_sketch_var = agms_self_join_variance(f) / budget
    assert f2_sketch_var < f2_sample_var
