"""Set-expression estimators over named stream snapshots.

"A Framework for Estimating Stream Expression Cardinalities"
(arXiv 1510.01455) shows that sketch summaries of individual streams
compose over set expressions.  Our sketches are linear, so the bag-union
of streams is exactly the sum of their sketches (the monoid merge), and
every expression below reduces to second moments and inner products of
the per-stream sketch views a snapshot already holds:

``union`` (bag semantics, any number of streams)
    ``F₂(A ⊎ B ⊎ …) = Σᵢ F₂(i) + 2 Σ_{i<j} J(i, j)`` — expanding the
    square of the summed frequency vectors.

``intersection`` (join mass, two streams)
    ``⟨f, g⟩ = Σ_v f(v)·g(v)`` — the join size; for indicator (0/1)
    streams this is exactly ``|A ∩ B|``.

``set_union`` (distinct semantics, two streams)
    ``|A ∪ B| = F₂(A) + F₂(B) − ⟨f, g⟩`` for indicator streams, by
    inclusion–exclusion (``F₂ = cardinality`` when frequencies are 0/1).

Composition happens **per sketch row** with the WOR unbiasing applied
per term *before* rows are combined (the corrections are affine with
positive scale, so they commute with the median within each term; doing
it row-level keeps the estimator identical to sketching the merged
stream directly — tested against a literal monoid merge in
``tests/serving/test_expressions.py``).

Variance bounds compose by Cauchy–Schwarz: for any dependence structure,
``Var(Σ Xᵢ) ≤ (Σ σᵢ)²``, so each term contributes the square root of its
prefix variance bound (scaled by its coefficient) and the sum of
standard deviations is squared.  Conservative, never anti-conservative.

Each stream's ``F₂`` rows and their combined value come from the
snapshot, which keeps them (:class:`~repro.engine.snapshot.RelationMoments`);
an expression computes each pairwise inner product once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.snapshot import join_scale_between
from ..errors import ConfigurationError
from ..sketches._combine import combine_estimates
from ..variance.runtime import prefix_join_variance, prefix_self_join_variance

__all__ = ["EXPRESSION_OPS", "ExpressionEstimate", "evaluate_expression"]

#: Supported expression operators and their arity constraints.
EXPRESSION_OPS = {
    "union": (2, None),
    "intersection": (2, 2),
    "set_union": (2, 2),
}


@dataclass(frozen=True)
class ExpressionEstimate:
    """Result of a set-expression evaluation over stream snapshots."""

    op: str
    estimate: float
    variance_bound: float


def _f2_term(snapshot, name: str) -> tuple[np.ndarray, float]:
    """One stream's per-row unbiased ``F₂`` and its standard-deviation bound."""
    relation = snapshot.relation(name)
    moments = snapshot.moments(name)
    variance = prefix_self_join_variance(
        moments.corrected_second_moment,
        scanned=relation.scanned,
        total=relation.total_tuples,
        averaged=snapshot.averaged_estimators,
    )
    return moments.corrected_rows, variance**0.5


def _join_term(
    snap_a, name_a: str, snap_b, name_b: str
) -> tuple[np.ndarray, float, float]:
    """Per-row unbiased join estimates, their combined value and σ bound."""
    rel_a = snap_a.relation(name_a)
    rel_b = snap_b.relation(name_b)
    view_a = snap_a.sketch_view(name_a)
    scale = join_scale_between(snap_a, name_a, snap_b, name_b)
    rows = scale * view_a.row_inner_products(snap_b.sketch_view(name_b))
    estimate = float(combine_estimates(rows, view_a.combine, view_a.groups))
    variance = prefix_join_variance(
        estimate,
        snap_a.moments(name_a).corrected_second_moment,
        snap_b.moments(name_b).corrected_second_moment,
        scanned_f=rel_a.scanned,
        total_f=rel_a.total_tuples,
        scanned_g=rel_b.scanned,
        total_g=rel_b.total_tuples,
        averaged=min(snap_a.averaged_estimators, snap_b.averaged_estimators),
    )
    return rows, estimate, variance**0.5


def _check_streams(op: str, streams) -> list:
    streams = list(streams)
    if op not in EXPRESSION_OPS:
        raise ConfigurationError(
            f"unknown expression op {op!r}; supported: {sorted(EXPRESSION_OPS)}"
        )
    low, high = EXPRESSION_OPS[op]
    if len(streams) < low or (high is not None and len(streams) > high):
        span = f"exactly {low}" if high == low else f"at least {low}"
        raise ConfigurationError(
            f"op {op!r} takes {span} streams, got {len(streams)}"
        )
    names = [name for _, name in streams]
    if len(set(names)) != len(names):
        raise ConfigurationError(
            f"expression streams must be distinct, got {names}"
        )
    for snapshot, name in streams:
        if snapshot.relation(name).scanned < 2:
            raise ConfigurationError(
                f"stream {name!r} needs at least 2 scanned tuples for an "
                "expression estimate"
            )
    return streams


def evaluate_expression(op: str, streams) -> ExpressionEstimate:
    """Evaluate a set expression over ``(snapshot, relation_name)`` pairs.

    *streams* is a sequence of pairs — each an
    :class:`~repro.engine.snapshot.EngineSnapshot` and the name of the
    relation inside it (a :class:`~repro.serving.registry.SketchRegistry`
    stream's snapshot holds one relation named after the stream).  All
    snapshots must come from engines sharing one seed, so their sketch
    views are mutually compatible; incompatible views raise.

    Returns the estimate with a conservative composed variance bound —
    see the module docstring for the estimator algebra.
    """
    streams = _check_streams(op, streams)
    header = streams[0][0].template_header
    combine = header.get("combine", "median")
    groups = header.get("groups", 1)

    if op == "intersection":
        _, estimate, sigma = _join_term(*streams[0], *streams[1])
        return ExpressionEstimate(op, estimate, sigma * sigma)

    f2 = [_f2_term(snapshot, name) for snapshot, name in streams]
    if op == "set_union":
        (rows_a, sigma_a), (rows_b, sigma_b) = f2
        join_rows, _, join_sigma = _join_term(*streams[0], *streams[1])
        rows = rows_a + rows_b - join_rows
        sigma = sigma_a + sigma_b + join_sigma
        estimate = float(combine_estimates(rows, combine, groups))
        return ExpressionEstimate(op, estimate, sigma * sigma)

    # union (bag semantics): F2 of the monoid-merged stream.
    rows = np.zeros_like(f2[0][0])
    sigma = 0.0
    for f2_rows, f2_sigma in f2:
        rows += f2_rows
        sigma += f2_sigma
    for i, pair_a in enumerate(streams):
        for pair_b in streams[i + 1 :]:
            join_rows, _, join_sigma = _join_term(*pair_a, *pair_b)
            rows += 2.0 * join_rows
            sigma += 2.0 * join_sigma
    estimate = float(combine_estimates(rows, combine, groups))
    return ExpressionEstimate(op, estimate, sigma * sigma)
