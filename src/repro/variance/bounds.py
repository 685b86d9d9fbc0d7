"""Confidence intervals from estimator variances (Section II).

The paper reports results as expected values and variances and notes that
"actual error guarantees can be obtained straightforwardly" via either

* **distribution-independent** bounds — Chebyshev's inequality:
  ``P(|X − E[X]| ≥ t) ≤ Var[X]/t²``, giving a half-width of
  ``sqrt(Var / (1 − confidence))``; or
* **distribution-dependent** bounds — a CLT/normal approximation, giving
  the familiar ``z · sqrt(Var)`` half-width.

:func:`normal_quantile` implements the standard-normal inverse CDF with
Acklam's rational approximation (relative error below 1.15·10⁻⁹) so the
library keeps numpy as its only dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = [
    "ConfidenceInterval",
    "chebyshev_interval",
    "clt_interval",
    "interval",
    "normal_quantile",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a point estimate."""

    estimate: float
    low: float
    high: float
    confidence: float
    method: str

    @property
    def half_width(self) -> float:
        """Half the interval width."""
        return (self.high - self.low) / 2

    def contains(self, value: float) -> bool:
        """Whether *value* lies inside the interval (inclusive)."""
        return self.low <= value <= self.high

    def __repr__(self) -> str:
        return (
            f"ConfidenceInterval({self.estimate:.6g} ∈ [{self.low:.6g}, "
            f"{self.high:.6g}] @ {self.confidence:.0%} {self.method})"
        )


def _validate(variance: float, confidence: float) -> None:
    if variance < 0:
        raise ConfigurationError(f"variance must be >= 0, got {variance}")
    if not 0 < confidence < 1:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )


def chebyshev_interval(
    estimate: float, variance: float, confidence: float = 0.95
) -> ConfidenceInterval:
    """Distribution-independent interval via Chebyshev's inequality.

    Valid for *any* estimator distribution with the given variance; wider
    than the CLT interval (at 95%: ~4.47σ vs 1.96σ).
    """
    _validate(variance, confidence)
    half = math.sqrt(variance / (1 - confidence))
    return ConfidenceInterval(
        estimate=float(estimate),
        low=float(estimate) - half,
        high=float(estimate) + half,
        confidence=confidence,
        method="chebyshev",
    )


def clt_interval(
    estimate: float, variance: float, confidence: float = 0.95
) -> ConfidenceInterval:
    """Normal-approximation interval (Central Limit Theorem).

    Appropriate for averaged estimators (many rows / buckets); the paper's
    standard choice for reporting.
    """
    _validate(variance, confidence)
    z = normal_quantile(0.5 + confidence / 2)
    half = z * math.sqrt(variance)
    return ConfidenceInterval(
        estimate=float(estimate),
        low=float(estimate) - half,
        high=float(estimate) + half,
        confidence=confidence,
        method="clt",
    )


def interval(
    estimate: float, variance: float, confidence: float, method: str
) -> ConfidenceInterval:
    """The ``"chebyshev"`` or ``"clt"`` interval, picked by *method*.

    Any other *method* raises :class:`~repro.errors.ConfigurationError`.
    """
    if method == "chebyshev":
        return chebyshev_interval(estimate, variance, confidence)
    if method == "clt":
        return clt_interval(estimate, variance, confidence)
    raise ConfigurationError(
        f"unknown interval method {method!r}; expected 'chebyshev' or 'clt'"
    )


# Coefficients of Acklam's inverse-normal-CDF approximation.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425
_P_HIGH = 1 - _P_LOW


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF ``Φ⁻¹(p)`` (Acklam's approximation)."""
    if not 0 < p < 1:
        raise ConfigurationError(f"quantile argument must be in (0, 1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2 * math.log(p))
        return (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1)
    if p <= _P_HIGH:
        q = p - 0.5
        r = q * q
        return (
            (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
            * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1)
        )
    q = math.sqrt(-2 * math.log(1 - p))
    return -(
        ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
    ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1)
