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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, _expect, _items
from .lad import Model, UtilityVector, _utilities, derive_utility, evaluate_objective
from .relations import TrFPR, _bounds, _require_kind
from .trfn import TrFN, _real

__all__ = ["GroupWeights", "BoundsReport", "aggregate_relations", "aggregate_utilities", "verify_bounds"]

BOUND_SLACK = 1e-7


def convex_weights(values: Sequence[float], name: str) -> tuple[float, ...]:
    """``values`` as floats, checked to be finite, non-negative and to sum to 1."""
    values = tuple(_real(v, f"{name}: weight {k + 1}") for k, v in enumerate(_items(values, name)))
    if not values:
        raise ValidationError(f"{name} cannot be empty")
    for k, w in enumerate(values):
        if w < 0.0:
            raise ValidationError(f"{name}: weight {k + 1} must be a non-negative real, got {w}")
    total = sum(values)
    if abs(total - 1.0) > 1e-12:
        raise ValidationError(f"{name} must sum to 1, got {total}")
    return values


def _check_group(members, weights, group: str, cls: type, name: str) -> tuple:
    """``(members, weights)``: ``cls`` relations of one size and neutral, one per convex weight."""
    weights = convex_weights(weights, f"{group} weights")
    members = _items(members, group)
    if len(members) != len(weights):
        raise ValidationError(f"got {len(weights)} weights for {len(members)} relations")
    for k, member in enumerate(members):
        _require_kind(member, cls, f"{name} {k + 1}")
        if member.n != members[0].n:
            raise ValidationError(f"{name} {k + 1} has size {member.n}, expected {members[0].n}")
        neutrals = (member.neutral, members[0].neutral)
        if neutrals[0] != neutrals[1]:
            got, want = (f"{t.value} on {_bounds(t.scale)[2]}" for t in neutrals)
            raise ValidationError(f"{name} {k + 1} uses neutral element {got}, expected {want}")
    return members, weights


def weighted_sum(weights: Sequence[float], arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_k weights[k] * arrays[k]``, accumulated in order from zero."""
    total = np.zeros_like(arrays[0])
    for w, part in zip(weights, arrays):
        total = total + w * part
    return total


def combine_utilities(
    weights: Sequence[float], vectors: Sequence[UtilityVector]
) -> tuple[TrFN, ...]:
    """Componentwise ``sum_k weights[k] * vectors[k]``, finished for the first vector's model."""
    parts = [np.array([u.components for u in vec.utilities]) for vec in vectors]
    return _utilities(weighted_sum(weights, parts), vectors[0].model)


class GroupWeights(tuple):
    """Non-negative expert weights summing to one, as a tuple of floats."""

    __slots__ = ()

    def __new__(cls, values: Sequence[float]):
        return super().__new__(cls, convex_weights(values, "group weights"))


def aggregate_relations(relations: Sequence[TrFPR], weights: Sequence[float]) -> TrFPR:
    """Entrywise convex combination of relations sharing a neutral element.

    The lower triangle is written as the negation of the combined upper
    triangle and the diagonal as the shared neutral element; both equal the
    entrywise combination mathematically but stay bit-exactly reciprocal.
    """
    relations, weights = _check_group(relations, weights, "group", TrFPR, "relation")
    combined = weighted_sum(weights, [rel.array for rel in relations])
    return TrFPR.from_upper(combined, relations[0].neutral)


def aggregate_utilities(
    vectors: Sequence[UtilityVector], weights: Sequence[float], matrix: TrFPR
) -> UtilityVector:
    """Convex combination of utility vectors, scored against ``matrix``.

    The combination itself never touches a solver; the reported objective
    is the deviation the combined utilities achieve on the supplied
    (typically aggregated) relation.
    """
    vectors, weights = _items(vectors, "vectors"), convex_weights(weights, "group weights")
    if len(vectors) != len(weights):
        raise ValidationError(f"got {len(vectors)} vectors for {len(weights)} weights")
    first = vectors[0]
    for e, vec in enumerate(vectors):
        _expect(vec, UtilityVector, f"vector {e + 1}", "a UtilityVector")
        if vec.n != first.n:
            raise ValidationError(f"vector {e + 1} has length {vec.n}, expected {first.n}")
        if vec.model is not first.model:
            got, want = vec.model.value, first.model.value
            raise ValidationError(f"vector {e + 1} has model {got}, expected {want}")
    combined = combine_utilities(weights, vectors)
    objective = evaluate_objective(matrix, combined)
    return UtilityVector(combined, objective, first.model)


@dataclass(frozen=True)
class BoundsReport:
    """The three terms of the aggregation sandwich and whether it held."""

    z_star_agg: float
    z_agg_at_uc: float
    weighted_sum: float

    @property
    def holds(self) -> bool:
        return (
            self.z_star_agg <= self.z_agg_at_uc + BOUND_SLACK
            and self.z_agg_at_uc <= self.weighted_sum + BOUND_SLACK
        )


def verify_bounds(relations: Sequence[TrFPR], weights: Sequence[float]) -> BoundsReport:
    """Evaluate the aggregation bound chain under model P, checking the group before any LP."""
    relations, weights = _check_group(relations, weights, "group", TrFPR, "relation")
    per_expert = tuple(derive_utility(rel, Model.P) for rel in relations)
    merged = aggregate_relations(relations, weights)
    at_combined = aggregate_utilities(per_expert, weights, merged)
    z_star = derive_utility(merged, Model.P).objective
    weighted = sum(w * vec.objective for w, vec in zip(weights, per_expert))
    return BoundsReport(z_star, at_combined.objective, weighted)
