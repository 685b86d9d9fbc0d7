"""Combining per-row basic estimates into a single sketch estimate.

A sketch holds ``rows`` independent basic estimators.  The classic ways to
combine them (Section IV / refs [1], [2]):

* ``mean`` — average all rows; variance drops by the number of rows (for
  sketches over full streams; Props 11–12 quantify the weaker improvement
  over samples).
* ``median`` — median of the rows; turns Chebyshev bounds into
  exponentially small failure probability, and is the standard combiner for
  F-AGMS rows (ref [3]).
* ``median-of-means`` — partition rows into groups, average within groups,
  take the median of group means; the textbook (ε, δ) estimator.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError

__all__ = ["combine_estimates", "exact_median", "validate_combine"]

_METHODS = ("mean", "median", "median-of-means")


def validate_combine(method: str, rows: int, groups: int) -> None:
    """Validate a combining configuration at sketch-construction time."""
    if method not in _METHODS:
        raise ConfigurationError(
            f"unknown combine method {method!r}; expected one of {_METHODS}"
        )
    if groups < 1:
        raise ConfigurationError(f"groups must be >= 1, got {groups}")
    if method == "median-of-means":
        if rows % groups != 0:
            raise ConfigurationError(
                f"median-of-means needs rows divisible by groups: "
                f"rows={rows}, groups={groups}"
            )
    elif groups != 1:
        raise ConfigurationError(
            f"groups={groups} only makes sense with combine='median-of-means'"
        )


def exact_median(values: np.ndarray):
    """``np.median(values, axis=0)``, bit for bit, without its dispatch.

    For float64 input: a 1-D array gives a float, a 2-D array the median
    of each column.  NumPy takes the mean of the one or two middle order
    statistics, and its sum starts from +0.0: a middle value of -0.0
    comes back as +0.0, which a plain pick would not do (F-AGMS point
    probes produce -0.0 for empty buckets, so served answers depend on
    it).  A 1-D input whose sum is NaN (a NaN, or infinities of both
    signs) and a 2-D input holding a NaN go to ``np.median`` itself,
    which decides which NaN wins.
    """
    if values.ndim == 1:
        items = values.tolist()
        if math.isnan(sum(items)):
            return float(np.median(values))
        items.sort()
        half = len(items) // 2
        if len(items) % 2:
            return 0.0 + items[half]
        return (0.0 + items[half - 1] + items[half]) / 2
    ordered = np.sort(values, axis=0)
    if np.isnan(ordered[-1]).any():
        return np.median(values, axis=0)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return 0.0 + ordered[half]
    return (0.0 + ordered[half - 1] + ordered[half]) / 2


def combine_estimates(values: np.ndarray, method: str, groups: int = 1) -> float:
    """Collapse per-row estimates into one number.

    *values* is the 1-D array of basic estimates (one per row); *method*
    and *groups* as validated by :func:`validate_combine`.
    """
    if values.ndim != 1 or values.size == 0:
        raise ConfigurationError(
            f"expected a non-empty 1-D estimate array, got shape {values.shape}"
        )
    if method == "mean":
        return float(values.mean())
    if method == "median":
        return exact_median(values)
    return exact_median(values.reshape(groups, -1).mean(axis=1))
