"""Convex aggregation of expert relations, utilities, and the bound chain."""

import dataclasses

import numpy as np
import pytest

import fuzzylad.group
from fuzzylad import (
    GroupWeights,
    Model,
    TrFPR,
    NeutralElement,
    TrFN,
    UtilityVector,
    ValidationError,
    aggregate_relations,
    aggregate_utilities,
    check_consistency,
    derive_utility,
    evaluate_objective,
    from_utilities,
    negate,
    to_multiplicative,
    verify_bounds,
)
from conftest import rand_consistent_trfpr, rand_neutral, rand_trfpr


def two_by_two(entry, neutral):
    """Tiny 2x2 relation with one free upper entry."""
    rows = (
        (neutral.value, entry),
        (negate(entry), neutral.value),
    )
    return TrFPR(rows, neutral)



class TestGroupWeights:
    def test_valid_weights_round_trip(self):
        w = GroupWeights((0.5, 0.3, 0.2))
        assert len(w) == 3
        assert tuple(w) == (0.5, 0.3, 0.2)

    def test_zero_weights_are_allowed(self):
        w = GroupWeights((1.0, 0.0))
        assert tuple(w) == (1.0, 0.0)

    def test_empty_weights_are_rejected(self):
        with pytest.raises(ValidationError):
            GroupWeights(())

    def test_negative_weights_are_rejected(self):
        with pytest.raises(ValidationError):
            GroupWeights((1.2, -0.2))

    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError):
            GroupWeights((0.5, 0.6))

    def test_weights_are_a_plain_tuple_of_floats(self):
        w = GroupWeights((0.5, 0.5))
        assert isinstance(w, tuple) and w == (0.5, 0.5)
        assert not hasattr(w, "values") and not hasattr(w, "__dataclass_fields__")


def _entry_points(relation):
    """Each group entry point, called on two copies of ``relation`` with the given weights."""
    vector = derive_utility(relation, Model.P)
    return {
        "aggregate_relations": lambda w: aggregate_relations((relation, relation), w),
        "aggregate_utilities": lambda w: aggregate_utilities((vector, vector), w, relation),
        "verify_bounds": lambda w: verify_bounds((relation, relation), w),
    }


class TestEveryEntryPointChecksItsWeights:
    @pytest.mark.parametrize("entry", ["aggregate_relations", "aggregate_utilities", "verify_bounds"])
    @pytest.mark.parametrize("weights", [(0.5, 0.3), (1.5, -0.5)])
    def test_plain_non_convex_weights_are_refused(self, base_relation, entry, weights):
        with pytest.raises(ValidationError, match="^group weights"):
            _entry_points(base_relation)[entry](weights)

    def test_verify_bounds_takes_a_generator_of_relations(self, base_relation):
        report = verify_bounds((r for r in (base_relation, base_relation)), (0.5, 0.5))
        assert report.holds


class TestVerifyBoundsChecksBeforeSolving:
    @pytest.fixture
    def derivations(self, monkeypatch):
        calls = []
        original = fuzzylad.group.derive_utility

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fuzzylad.group, "derive_utility", counting)
        return calls

    def test_size_mismatch_is_refused_before_any_lp(self, base_relation, neutral_4556, derivations):
        large = rand_trfpr(np.random.default_rng(0), 16, neutral=neutral_4556)
        with pytest.raises(ValidationError, match="^relation 2 has size 16, expected 3$"):
            verify_bounds((base_relation, large), (0.5, 0.5))
        assert derivations == []

    def test_ratio_relations_are_refused_before_any_lp(self, base_relation, derivations):
        y = to_multiplicative(base_relation, 9)
        with pytest.raises(ValidationError, match="^relation 1"):
            verify_bounds((y, y), GroupWeights((0.5, 0.5)))
        assert derivations == []


class TestAggregateRelations:
    def test_two_expert_hand_computation(self, neutral_4556):
        t0 = neutral_4556.value
        e1 = TrFN(0.6, 0.7, 0.7, 0.8)
        e2 = TrFN(0.4, 0.5, 0.5, 0.6)
        x1 = two_by_two(e1, neutral_4556)
        x2 = two_by_two(e2, neutral_4556)
        merged = aggregate_relations((x1, x2), GroupWeights((0.25, 0.75)))
        got = merged.entry(0, 1)
        expected = tuple(0.25 * a + 0.75 * b for a, b in zip(e1, e2))
        assert got.components == pytest.approx(expected, abs=1e-15)
        assert merged.entry(0, 0) == t0

    def test_unit_weight_reproduces_the_expert(self, base_relation, consistent_relation):
        merged = aggregate_relations(
            (base_relation, consistent_relation), GroupWeights((1.0, 0.0))
        )
        for i in range(3):
            for j in range(3):
                for u, v in zip(merged.entry(i, j), base_relation.entry(i, j)):
                    assert abs(u - v) <= 1e-15

    def test_count_mismatch_is_rejected(self, base_relation):
        with pytest.raises(ValidationError):
            aggregate_relations((base_relation,), GroupWeights((0.5, 0.5)))

    def test_size_mismatch_is_rejected(self, base_relation, neutral_4556):
        small = two_by_two(TrFN(0.6, 0.7, 0.7, 0.8), neutral_4556)
        with pytest.raises(ValidationError):
            aggregate_relations((base_relation, small), GroupWeights((0.5, 0.5)))

    def test_neutral_mismatch_is_rejected(self, base_relation):
        other = NeutralElement.additive(TrFN(0.3, 0.5, 0.5, 0.7))
        shifted = rand_consistent_trfpr(np.random.default_rng(0), 3, neutral=other)
        with pytest.raises(ValidationError):
            aggregate_relations((base_relation, shifted), GroupWeights((0.5, 0.5)))

    def test_consistency_survives_aggregation(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            neutral = rand_neutral(rng)
            experts = tuple(
                rand_consistent_trfpr(rng, n, neutral=neutral) for _ in range(3)
            )
            raw = rng.uniform(0.1, 1.0, size=3)
            weights = GroupWeights(tuple(raw / raw.sum()))
            merged = aggregate_relations(experts, weights)
            assert check_consistency(merged, tol=1e-9).consistent

    def test_aggregation_commutes_with_reconstruction(self):
        # Merging relations built from utility vectors equals building one
        # relation from the merged utilities.
        rng = np.random.default_rng(52)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            neutral = rand_neutral(rng)
            t0 = neutral.value
            support = t0.d - t0.a
            core = t0.c - t0.b
            delta = t0.b - t0.a
            groups = []
            for _ in range(2):
                utilities = []
                for _ in range(n):
                    a = float(rng.uniform(0.5 - t0.a / 2.0, 0.5 + t0.a / 2.0))
                    b = a + float(rng.uniform(0.0, delta)) if delta > 0 else a
                    utilities.append(TrFN(a, b, b + core, a + support))
                groups.append(tuple(utilities))
            lam = float(rng.uniform(0.0, 1.0))
            weights = GroupWeights((lam, 1.0 - lam))
            merged_relations = aggregate_relations(
                tuple(from_utilities(g, neutral) for g in groups), weights
            )
            merged_utilities = tuple(
                TrFN(*(lam * u.components[c] + (1 - lam) * v.components[c] for c in range(4)))
                for u, v in zip(groups[0], groups[1])
            )
            rebuilt = from_utilities(merged_utilities, neutral)
            for i in range(n):
                for j in range(n):
                    for u, v in zip(merged_relations.entry(i, j), rebuilt.entry(i, j)):
                        assert abs(u - v) <= 1e-12


class TestAggregateUtilities:
    def test_combination_and_objective(self, base_relation):
        v1 = derive_utility(base_relation, Model.P)
        v2 = derive_utility(base_relation, Model.P)
        weights = GroupWeights((0.5, 0.5))
        combined = aggregate_utilities((v1, v2), weights, base_relation)
        assert combined.model is Model.P
        for u, v in zip(combined.utilities, v1.utilities):
            assert u.components == pytest.approx(v.components, abs=1e-15)
        assert combined.objective == pytest.approx(v1.objective, abs=1e-12)

    def test_objective_is_evaluated_on_the_given_matrix(self, base_relation, consistent_relation):
        v1 = derive_utility(consistent_relation, Model.P)
        combined = aggregate_utilities((v1,), GroupWeights((1.0,)), base_relation)
        assert combined.objective == evaluate_objective(base_relation, v1.utilities)

    def test_length_mismatch_is_rejected(self, base_relation):
        v1 = derive_utility(base_relation, Model.P)
        with pytest.raises(ValidationError):
            aggregate_utilities((v1,), GroupWeights((0.5, 0.5)), base_relation)

    def test_vectors_of_different_lengths_are_rejected(self, base_relation):
        v1 = derive_utility(base_relation, Model.P)
        v2 = UtilityVector(v1.utilities[:2], 0.0, Model.P)
        with pytest.raises(ValidationError, match="^vector 2 has length 2, expected 3$"):
            aggregate_utilities((v1, v2), GroupWeights((0.5, 0.5)), base_relation)

    @pytest.mark.parametrize("order", [(Model.P, Model.PUNIT), (Model.PUNIT, Model.P)])
    def test_vectors_of_different_models_are_rejected_in_either_order(self, base_relation, order):
        vectors = tuple(derive_utility(base_relation, model) for model in order)
        expected = f"^vector 2 has model {order[1].value}, expected {order[0].value}$"
        with pytest.raises(ValidationError, match=expected):
            aggregate_utilities(vectors, GroupWeights((0.5, 0.5)), base_relation)

    def test_what_is_not_a_utility_vector_is_rejected(self, base_relation):
        with pytest.raises(ValidationError, match="^vector 1: expected a UtilityVector, got str$"):
            aggregate_utilities(["x"], [1.0], base_relation)

    def test_unit_vectors_combine_inside_the_unit_interval(self, base_relation):
        # These weights sum to 1 + 2.2e-16, so the plain weighted sum of the
        # last components rounds to 1.0000000000000002.
        vector = UtilityVector((TrFN(0, 0.5, 0.9, 1.0), TrFN(0, 0.1, 0.2, 1.0)), 0.0, Model.PUNIT)
        weights = (0.6202543683944639, 0.1050450131239899, 0.2747006184815463)
        x = two_by_two(TrFN(0.5, 0.6, 0.6, 0.7), base_relation.neutral)
        combined = aggregate_utilities((vector,) * 3, weights, x)
        assert combined.model is Model.PUNIT
        assert [u.d for u in combined.utilities] == [1.0, 1.0]

    def test_identical_unit_experts_combine_under_any_convex_weights(self):
        rng = np.random.default_rng(0)
        touching_one = 0
        for _ in range(300):
            x = rand_trfpr(rng, 4)
            expert = derive_utility(x, Model.PUNIT)
            if max(u.d for u in expert.utilities) != 1.0:
                continue
            touching_one += 1
            k = int(rng.integers(2, 6))
            weights = rng.dirichlet(np.ones(k))
            combined = aggregate_utilities((expert,) * k, (weights / weights.sum()).tolist(), x)
            assert 1.0 - 1e-15 <= max(u.d for u in combined.utilities) <= 1.0
        assert touching_one > 100


class TestBoundChain:
    def test_identical_experts_collapse_the_sandwich(self, base_relation):
        weights = GroupWeights((0.5, 0.5))
        report = verify_bounds((base_relation, base_relation), weights)
        assert report.holds
        assert report.z_star_agg == pytest.approx(report.weighted_sum, abs=1e-9)
        assert report.z_agg_at_uc == pytest.approx(report.weighted_sum, abs=1e-9)

    def test_sandwich_holds_on_random_groups(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            neutral = rand_neutral(rng)
            experts = tuple(
                rand_trfpr(rng, n, neutral=neutral) for _ in range(int(rng.integers(2, 4)))
            )
            raw = rng.uniform(0.1, 1.0, size=len(experts))
            weights = GroupWeights(tuple(raw / raw.sum()))
            report = verify_bounds(experts, weights)
            assert report.holds
            assert report.z_star_agg <= report.z_agg_at_uc + 1e-7
            assert report.z_agg_at_uc <= report.weighted_sum + 1e-7

    def test_the_verdict_is_read_from_the_three_terms(self, base_relation):
        report = verify_bounds((base_relation, base_relation), GroupWeights((0.5, 0.5)))
        names = [f.name for f in dataclasses.fields(report)]
        assert names == ["z_star_agg", "z_agg_at_uc", "weighted_sum"]
        assert report.holds
        assert not dataclasses.replace(report, weighted_sum=report.z_agg_at_uc - 1e-6).holds
        assert not dataclasses.replace(report, z_star_agg=report.z_agg_at_uc + 1e-6).holds
        assert dataclasses.replace(report, weighted_sum=report.z_agg_at_uc - 1e-8).holds

    def test_consistent_group_reaches_zero_everywhere(self):
        rng = np.random.default_rng(54)
        neutral = rand_neutral(rng)
        experts = tuple(rand_consistent_trfpr(rng, 3, neutral=neutral) for _ in range(2))
        report = verify_bounds(experts, GroupWeights((0.4, 0.6)))
        assert report.z_star_agg <= 1e-8

