"""Statistical contract of adaptive (piecewise-rate) load shedding.

The three claims that make rate changes safe (docs/THEORY.md, the
piecewise-rate section): estimates stay *unbiased* across rate changes,
the widened variance bound keeps *coverage at or above nominal*, and the
governor keeps per-chunk processing *under budget* through a burst.
"""

import numpy as np
import pytest

from repro.core.load_shedding import LoadShedder
from repro.errors import ConfigurationError
from repro.resilience.adaptive import (
    AdaptiveSheddingSketcher,
    averaged_estimator_count,
)
from repro.resilience.governor import LoadGovernor
from repro.sketches.agms import AgmsSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.fagms import FagmsSketch


def _true_f2(chunks, domain=1000):
    counts = np.zeros(domain, dtype=np.int64)
    for chunk in chunks:
        counts += np.bincount(chunk, minlength=domain)
    return float(np.sum(counts.astype(np.float64) ** 2))


# ----------------------------------------------------------------------
# The shedder's rate ledger
# ----------------------------------------------------------------------


def _shedder(p, *feeds, seed=0):
    """A shedder fed ``feeds``: tuple counts, or floats opening a segment."""
    shedder = LoadShedder(p, seed=seed)
    for feed in feeds:
        if isinstance(feed, float):
            shedder.set_p(feed)
        else:
            shedder.filter(np.arange(feed))
    return shedder


def test_single_segment_correction_matches_prop14_form():
    shedder = _shedder(0.25, 1000)
    assert shedder.correction() == pytest.approx(1000 * 0.75 / 0.25)


def test_rate_changes_open_segments_and_compose():
    shedder = _shedder(0.5, 100, 0.1, 200, seed=3)
    first, second = shedder.segments
    assert (first[0], first[1]) == (0.5, 100)
    assert (second[0], second[1]) == (0.1, 200)
    assert first[2] + second[2] == shedder.kept
    assert shedder.seen == 300
    assert shedder.min_rate() == pytest.approx(0.1)
    expected = 100 * 0.5 / 0.5 + 200 * 0.9 / 0.1
    assert shedder.correction() == pytest.approx(expected)


def test_empty_segment_is_rerated_in_place():
    shedder = _shedder(0.5, 0.2, 0.9)
    assert len(shedder.segments) == 1
    assert shedder.p == pytest.approx(0.9)


def test_state_round_trip():
    shedder = _shedder(0.5, 100, 0.1, 200, seed=4)
    clone = LoadShedder.restore(shedder.state())
    assert clone.segments == shedder.segments
    assert clone.correction() == pytest.approx(shedder.correction())
    assert clone.variance_bound(1e6, 64) == pytest.approx(
        shedder.variance_bound(1e6, 64)
    )


def test_variance_bound_at_p_one_is_pure_sketch():
    shedder = _shedder(1.0, 5000)
    f2 = 2.5e5
    assert shedder.variance_bound(f2, 100) == pytest.approx(2.0 / 100 * f2**2)


def test_variance_bound_widens_as_rates_drop():
    lax = _shedder(1.0, 1000)
    tight = _shedder(1.0, 500, 0.1, 500)
    assert tight.variance_bound(1e5, 64) > lax.variance_bound(1e5, 64)


def test_rate_validation():
    with pytest.raises(ConfigurationError):
        LoadShedder(0.0)
    shedder = LoadShedder(0.5)
    with pytest.raises(ConfigurationError):
        shedder.set_p(1.5)
    with pytest.raises(ConfigurationError):
        shedder.variance_bound(1e5, 0)


# ----------------------------------------------------------------------
# Unbiasedness and coverage across rate changes (seeded Monte-Carlo)
# ----------------------------------------------------------------------


def _shed_with_rate_changes(chunks, sketch, trial):
    """One adaptive run: 1.0 → 0.35 → 0.7 across thirds of the stream."""
    sketcher = AdaptiveSheddingSketcher(sketch, 1.0, seed=5000 + trial)
    third = len(chunks) // 3
    for index, chunk in enumerate(chunks):
        if index == third:
            sketcher.set_rate(0.35)
        elif index == 2 * third:
            sketcher.set_rate(0.7)
        sketcher.process(chunk)
    return sketcher


def test_estimates_unbiased_across_rate_changes(stream_chunks):
    truth = _true_f2(stream_chunks)
    estimates = [
        _shed_with_rate_changes(
            stream_chunks, FagmsSketch(buckets=256, seed=100 + trial), trial
        ).self_join_size()
        for trial in range(40)
    ]
    assert np.mean(estimates) == pytest.approx(truth, rel=0.1)


def test_coverage_at_least_nominal(stream_chunks):
    truth = _true_f2(stream_chunks)
    covered = 0
    trials = 60
    for trial in range(trials):
        sketcher = _shed_with_rate_changes(
            stream_chunks, FagmsSketch(buckets=256, seed=200 + trial), trial
        )
        interval = sketcher.self_join_interval(0.95)
        covered += int(interval.contains(truth))
    assert covered / trials >= 0.95


def test_unshedded_estimate_matches_plain_shedding_sketcher(stream_chunks):
    sketcher = AdaptiveSheddingSketcher(FagmsSketch(buckets=128, seed=9))
    for chunk in stream_chunks:
        sketcher.process(chunk)
    plain = FagmsSketch(buckets=128, seed=9)
    for chunk in stream_chunks:
        plain.update(chunk)
    assert sketcher.self_join_size() == pytest.approx(plain.second_moment())


def test_join_size_is_unbiased_under_independent_shedding(stream_chunks):
    other_chunks = [np.sort(chunk) for chunk in stream_chunks]  # same keys
    truth = _true_f2(stream_chunks)  # identical streams: join == F2
    estimates = []
    for trial in range(40):
        seed = 300 + trial
        left = AdaptiveSheddingSketcher(
            FagmsSketch(buckets=256, seed=seed), 0.5, seed=10_000 + trial
        )
        right = AdaptiveSheddingSketcher(
            FagmsSketch(buckets=256, seed=seed), 0.4, seed=20_000 + trial
        )
        for chunk, other in zip(stream_chunks, other_chunks):
            left.process(chunk)
            right.process(other)
        estimates.append(left.join_size(right))
    assert np.mean(estimates) == pytest.approx(truth, rel=0.1)


def test_averaged_estimator_count():
    assert averaged_estimator_count(FagmsSketch(buckets=512, seed=0)) == 512
    assert averaged_estimator_count(AgmsSketch(rows=64, seed=0)) == 64
    assert (
        averaged_estimator_count(
            AgmsSketch(rows=64, seed=0, combine="median-of-means", groups=8)
        )
        == 8
    )
    with pytest.raises(ConfigurationError):
        averaged_estimator_count(CountMinSketch(buckets=64, seed=0))


# ----------------------------------------------------------------------
# Governor: budget adherence through a synthetic burst
# ----------------------------------------------------------------------


def test_governor_keeps_processing_under_budget_through_burst(stream_chunks):
    budget = 2e-6  # seconds per *arriving* tuple
    governor = LoadGovernor(
        budget, p_min=0.01, headroom=0.7, smoothing=0.7, deadband=0.02
    )
    sketcher = AdaptiveSheddingSketcher(
        FagmsSketch(buckets=128, seed=4), 1.0, seed=123
    )
    burst = range(8, 22)  # per-kept cost spikes to 4x the budget
    over_budget_after_warmup = 0
    for index, chunk in enumerate(stream_chunks):
        cost_per_kept = 8e-6 if index in burst else 1e-6
        kept = sketcher.process(chunk)
        elapsed = kept * cost_per_kept
        if index >= 11 and elapsed > budget * chunk.size:
            over_budget_after_warmup += 1
        proposal = governor.propose(sketcher.rate, kept, elapsed)
        if proposal is not None:
            sketcher.set_rate(proposal)
    # the controller needs ~3 chunks of the burst to relearn the cost;
    # after that every burst chunk must come in under the chunk budget
    assert over_budget_after_warmup == 0
    # after the burst the rate recovers (growth-capped) toward p_max
    assert sketcher.rate > 0.5
    # and the estimate is still sane, with a wider (but finite) interval
    interval = sketcher.self_join_interval(0.95)
    truth = _true_f2(stream_chunks)
    assert interval.contains(truth)


def test_governor_proposals_are_clamped_and_deadbanded():
    governor = LoadGovernor(1e-6, p_min=0.05, growth_limit=2.0, deadband=0.1)
    # 10x over budget: wants p = 0.09, reachable directly
    assert governor.propose(1.0, kept=1000, elapsed=1e-2) == pytest.approx(
        0.09, rel=1e-6
    )
    # recovery from a low rate is growth-capped at 2x per step
    cheap = LoadGovernor(1e-3, p_min=0.05, growth_limit=2.0)
    assert cheap.propose(0.1, kept=1000, elapsed=1e-4) == pytest.approx(0.2)
    # inside the deadband: no proposal
    steady = LoadGovernor(1e-6, headroom=1.0, deadband=0.2)
    assert steady.propose(1.0, kept=1000, elapsed=1e-3) is None


def test_governor_state_round_trip():
    governor = LoadGovernor(1e-6)
    governor.observe(100, 5e-4)
    clone = LoadGovernor(1e-6)
    clone.restore(governor.state())
    assert clone.cost_estimate == pytest.approx(governor.cost_estimate)


def test_governor_validation():
    with pytest.raises(ConfigurationError):
        LoadGovernor(0.0)
    with pytest.raises(ConfigurationError):
        LoadGovernor(1e-6, p_min=0.5, p_max=0.4)
    with pytest.raises(ConfigurationError):
        LoadGovernor(1e-6, growth_limit=0.5)
    governor = LoadGovernor(1e-6)
    with pytest.raises(ConfigurationError):
        governor.propose(0.0, kept=10, elapsed=1e-3)
