"""Convex aggregation of expert relations and utilities.

A group of reciprocal relations sharing one neutral element can be merged
entrywise with convex weights; reciprocity, the neutral diagonal, and
consistency all survive the combination.  Aggregating the experts'
individual utility vectors with the same weights gives a cheap, generally
suboptimal utility for the merged relation, and the gap is sandwiched:

    optimum(merged) <= deviation(merged, aggregated utilities)
                    <= sum_k w_k * optimum(expert k)

``verify_bounds`` evaluates all three terms for a given group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .lad import Model, UtilityVector, derive_utility, evaluate_objective
from .relations import TrFPR, _check_group
from .trfn import TrFN

__all__ = ["GroupWeights", "BoundsReport", "aggregate_relations", "aggregate_utilities", "verify_bounds"]

BOUND_SLACK = 1e-7


def convex_weights(values: Sequence[float], name: str) -> tuple[float, ...]:
    """``values`` as floats, checked to be finite, non-negative and to sum to 1."""
    values = tuple(float(v) for v in values)
    if not values:
        raise ValidationError(f"{name} cannot be empty")
    for k, w in enumerate(values):
        if not math.isfinite(w) or w < 0.0:
            raise ValidationError(f"{name}: weight {k + 1} must be a non-negative real, got {w}")
    total = sum(values)
    if abs(total - 1.0) > 1e-12:
        raise ValidationError(f"{name} must sum to 1, got {total}")
    return values


def weighted_sum(weights: Sequence[float], arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_k weights[k] * arrays[k]``, accumulated in order from zero."""
    total = np.zeros_like(arrays[0])
    for w, part in zip(weights, arrays):
        total = total + w * part
    return total


def combine_utilities(
    weights: Sequence[float], vectors: Sequence[UtilityVector]
) -> tuple[TrFN, ...]:
    """Componentwise ``sum_k weights[k] * vectors[k]`` of equally long utility vectors."""
    parts = [np.array([u.components for u in vec.utilities]) for vec in vectors]
    return tuple(TrFN(*row) for row in weighted_sum(weights, parts).tolist())


@dataclass(frozen=True)
class GroupWeights:
    """Non-negative expert weights summing to one."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", convex_weights(self.values, "group weights"))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def aggregate_relations(relations: Sequence[TrFPR], weights: GroupWeights) -> TrFPR:
    """Entrywise convex combination of relations sharing a neutral element.

    The lower triangle is written as the negation of the combined upper
    triangle and the diagonal as the shared neutral element; both equal the
    entrywise combination mathematically but stay bit-exactly reciprocal.
    """
    relations = _check_group(relations, weights, TrFPR, "relation")
    combined = weighted_sum(weights, [rel.array for rel in relations])
    return TrFPR.from_upper(combined, relations[0].neutral)


def aggregate_utilities(
    vectors: Sequence[UtilityVector], weights: GroupWeights, matrix: TrFPR
) -> UtilityVector:
    """Convex combination of utility vectors, scored against ``matrix``.

    The combination itself never touches a solver; the reported objective
    is the deviation the combined utilities achieve on the supplied
    (typically aggregated) relation.
    """
    vectors = tuple(vectors)
    if len(vectors) != len(weights):
        raise ValidationError(f"got {len(vectors)} vectors for {len(weights)} weights")
    n = vectors[0].n
    for e, vec in enumerate(vectors):
        if vec.n != n:
            raise ValidationError(f"vector {e + 1} has length {vec.n}, expected {n}")
    combined = combine_utilities(weights, vectors)
    objective = evaluate_objective(matrix, combined)
    return UtilityVector(combined, objective, vectors[0].model)


@dataclass(frozen=True)
class BoundsReport:
    """The three terms of the aggregation sandwich and whether it held."""

    z_star_agg: float
    z_agg_at_uc: float
    weighted_sum: float
    holds: bool


def verify_bounds(relations: Sequence[TrFPR], weights: GroupWeights) -> BoundsReport:
    """Evaluate the aggregation bound chain for a group under model P."""
    relations = tuple(relations)
    per_expert = tuple(derive_utility(rel, Model.P) for rel in relations)
    merged = aggregate_relations(relations, weights)
    at_combined = aggregate_utilities(per_expert, weights, merged)
    z_star = derive_utility(merged, Model.P).objective
    weighted = sum(w * vec.objective for w, vec in zip(weights, per_expert))
    holds = (
        z_star <= at_combined.objective + BOUND_SLACK
        and at_combined.objective <= weighted + BOUND_SLACK
    )
    return BoundsReport(z_star, at_combined.objective, weighted, holds)
