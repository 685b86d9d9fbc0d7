"""Runtime plug-in variance bounds for serving prefix estimates.

The exact variances of the sketch-over-samples estimators (Props 9–16)
are functions of frequency moments — ``F₁..F₄``, cross moments like
``Σ f g²`` — that a live service does not know.  These helpers bound the
variance of a *prefix* estimate (a WOR sample of ``scanned`` of ``total``
tuples) using only quantities the snapshot itself provides: the estimate,
the relation cardinalities, and the sketch shape.

The substitutions follow the precedent of
:func:`repro.resilience.distributed.widened_self_join_variance`:

* ``F₂`` — the (non-negative part of the) estimate itself;
* ``F₄ ≤ F₂²`` and ``F₃ ≤ F₂^1.5`` — power-mean/norm monotonicity for
  non-negative frequencies;
* ``F₁`` — the declared relation cardinality (exact, from the catalog);
* every negative-signed exact-variance term is dropped and every
  coefficient is absolute-valued.

Each substitution only enlarges the bound, so Chebyshev/CLT intervals
built from these values *over-cover* — the honest direction for a bound
served to a tenant who cannot see the data.  The conservativeness (and
the over-coverage) is checked against the empirical estimator variance
by ``tests/test_variance_runtime.py``.
"""

from __future__ import annotations

from ..errors import ConfigurationError

__all__ = [
    "prefix_join_variance",
    "prefix_point_frequency_variance",
    "prefix_self_join_variance",
]


def _check_prefix(scanned: int, total: int, label: str = "") -> float:
    tag = f" ({label})" if label else ""
    if total < 1:
        raise ConfigurationError(f"total must be >= 1{tag}, got {total}")
    if not 1 <= scanned <= total:
        raise ConfigurationError(
            f"scanned must be in [1, total]{tag}, got {scanned}/{total}"
        )
    return scanned / total


def _sampling_surrogate(f2: float, f1: float, alpha: float) -> float:
    """Widened Eq. 7 sampling variance at inclusion probability ``alpha``.

    WOR inclusion of each tuple happens with marginal probability
    ``alpha``; the Bernoulli(``alpha``) form with dropped negative terms
    upper-bounds the WOR sampling variance (WOR's negative inclusion
    covariances only shrink it).  ``F₃`` is plugged in as ``F₂^1.5``.
    """
    if alpha >= 1.0:
        return 0.0
    f3 = f2**1.5
    return (1.0 - alpha) / alpha**3 * (
        4.0 * alpha * alpha * f3
        + 2.0 * alpha * abs(1.0 - 3.0 * alpha) * f2
        + alpha * abs(2.0 - 3.0 * alpha) * f1
    )


def prefix_self_join_variance(
    estimate: float,
    *,
    scanned: int,
    total: int,
    averaged: int = 1,
) -> float:
    """Conservative variance bound for a prefix self-join (``F₂``) estimate.

    Combines the widened sampling surrogate with the sketch term of the
    combined estimator — ``(2/n)·(F₂² + V_sampling)`` with ``n`` averaged
    basic estimators (buckets for F-AGMS), the same composition as
    :meth:`repro.core.load_shedding.LoadShedder.variance_bound` —
    evaluated with the estimate standing in for ``F₂``.
    """
    alpha = _check_prefix(scanned, total)
    if averaged < 1:
        raise ConfigurationError(f"averaged must be >= 1, got {averaged}")
    f2 = max(float(estimate), 0.0)
    sampling = _sampling_surrogate(f2, float(total), alpha)
    return sampling + (2.0 / averaged) * (f2 * f2 + sampling)


def prefix_join_variance(
    estimate: float,
    f2_f: float,
    f2_g: float,
    *,
    scanned_f: int,
    total_f: int,
    scanned_g: int,
    total_g: int,
    averaged: int = 1,
) -> float:
    """Conservative variance bound for a prefix join-size estimate.

    ``f2_f`` / ``f2_g`` are the relations' (estimated) second moments —
    the per-stream plug-ins the snapshot can compute.  Sampling terms use
    the widened Eq. 6 substitutions of
    :func:`repro.resilience.distributed.widened_join_variance`
    (``Σ f g² ≤ J·G₁``, ``Σ f² g ≤ J·F₁``); the sketch term is the Prop 7
    bound ``(F₂·G₂ + J²)/n``; the interaction term crosses the sampling
    inflations with the sketch moments.
    """
    alpha_f = _check_prefix(scanned_f, total_f, "f")
    alpha_g = _check_prefix(scanned_g, total_g, "g")
    if averaged < 1:
        raise ConfigurationError(f"averaged must be >= 1, got {averaged}")
    j = max(float(estimate), 0.0)
    f2_hat = max(float(f2_f), 0.0)
    g2_hat = max(float(f2_g), 0.0)
    f1 = float(total_f)
    g1 = float(total_g)
    a = (1.0 - alpha_f) / alpha_f
    b = (1.0 - alpha_g) / alpha_g
    sampling = a * j * g1 + b * j * f1 + a * b * j
    sketch = (f2_hat * g2_hat + j * j) / averaged
    interaction = (a * f1 * g2_hat + b * f2_hat * g1 + a * b * f1 * g1) / averaged
    return sampling + sketch + interaction


def prefix_point_frequency_variance(
    estimate: float,
    prefix_second_moment: float,
    *,
    scanned: int,
    total: int,
    buckets: int,
) -> float:
    """Conservative variance bound for a prefix point-frequency estimate.

    The ``1/α``-scaled Count-Sketch point estimate has two error sources:

    * collision noise — bounded by the prefix's second moment spread over
      ``buckets`` counters, inflated by the ``1/α²`` scaling;
    * sampling noise — the HT-scaled frequency of the key itself; with
      the unknown true frequency plugged in as the estimate, bounded by
      ``|f̂|·(1-α)/α``.
    """
    alpha = _check_prefix(scanned, total)
    if buckets < 1:
        raise ConfigurationError(f"buckets must be >= 1, got {buckets}")
    collision = max(float(prefix_second_moment), 0.0) / buckets / (alpha * alpha)
    sampling = abs(float(estimate)) * (1.0 - alpha) / alpha
    return collision + sampling
