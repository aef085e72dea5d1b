"""Trapezoidal number arithmetic, magnitude scoring, and ranking."""

import math

import numpy as np
import pytest

from fuzzylad import (
    DEFAULT_MAG_WEIGHTS,
    GroupWeights,
    MagWeights,
    TrFN,
    ValidationError,
    add,
    crisp,
    distance,
    invert,
    magnitude,
    mul,
    negate,
    rank,
    scale,
    sub,
)
from conftest import rand_trfn

N_TRIALS = 250
HUGE = 10**400


class TestConstruction:
    def test_components_are_stored_in_order(self):
        t = TrFN(0.1, 0.2, 0.3, 0.4)
        assert t.components == (0.1, 0.2, 0.3, 0.4)
        assert tuple(t) == (0.1, 0.2, 0.3, 0.4)

    def test_degenerate_point_is_allowed(self):
        t = crisp(0.5)
        assert t.components == (0.5, 0.5, 0.5, 0.5)

    def test_integers_are_coerced_to_floats(self):
        t = TrFN(0, 1, 2, 3)
        assert all(isinstance(v, float) for v in t.components)

    @pytest.mark.parametrize(
        "bad",
        [
            (0.3, 0.2, 0.4, 0.5),
            (0.1, 0.5, 0.4, 0.6),
            (0.1, 0.2, 0.7, 0.6),
        ],
    )
    def test_misordered_components_are_rejected(self, bad):
        with pytest.raises(ValidationError):
            TrFN(*bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_components_are_rejected(self, bad):
        with pytest.raises(ValidationError):
            TrFN(0.0, 0.1, 0.2, bad)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TrFN("x", 1, 1, 1), r"component a='x' is not a real number"),
            (lambda: TrFN(float("nan"), 1, 1, 1), r"component a=nan is not finite"),
            (lambda: TrFN(HUGE, HUGE, HUGE, HUGE), r"component a does not fit in a float"),
            (lambda: TrFN(-HUGE, 0, 0, 0), r"component a does not fit in a float"),
            (lambda: MagWeights(HUGE, 0.25), r"magnitude weight w1 does not fit in a float"),
            (lambda: MagWeights("x", 0.25), r"magnitude weight w1='x' is not a real number"),
            (lambda: GroupWeights((HUGE,)), r"group weights: weight 1 does not fit in a float"),
            (lambda: GroupWeights(("x",)), r"group weights: weight 1='x' is not a real number"),
            (lambda: scale(HUGE, TrFN(1, 2, 3, 4)), r"scale factor does not fit in a float"),
        ],
        ids=["trfn-text", "trfn-nan", "trfn-huge", "trfn-negative-huge", "mag-huge", "mag-text",
             "group-huge", "group-text", "scale-huge"],
    )
    def test_a_value_no_float_holds_is_refused_naming_its_field(self, build, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build()

    def test_str_is_readable(self):
        assert str(TrFN(0.0, 0.25, 0.5, 1.0)) == "T(0.0, 0.25, 0.5, 1.0)"


class TestArithmetic:
    def test_addition_is_componentwise(self):
        s = add(TrFN(1, 2, 3, 4), TrFN(10, 20, 30, 40))
        assert s.components == (11.0, 22.0, 33.0, 44.0)

    def test_subtraction_pairs_opposite_components(self):
        d = sub(TrFN(5, 6, 7, 8), TrFN(1, 2, 3, 4))
        assert d.components == (1.0, 3.0, 5.0, 7.0)

    def test_scaling_by_a_positive_factor(self):
        t = scale(2.0, TrFN(1, 2, 3, 4))
        assert t.components == (2.0, 4.0, 6.0, 8.0)

    def test_scaling_by_nonpositive_factor_is_rejected(self):
        with pytest.raises(ValidationError):
            scale(0.0, TrFN(1, 2, 3, 4))
        with pytest.raises(ValidationError):
            scale(-1.0, TrFN(1, 2, 3, 4))

    def test_multiplication_is_componentwise_for_positive_operands(self):
        p = mul(TrFN(1, 2, 3, 4), TrFN(2, 3, 4, 5))
        assert p.components == (2.0, 6.0, 12.0, 20.0)

    def test_multiplication_rejects_nonpositive_operands(self):
        with pytest.raises(ValidationError):
            mul(TrFN(-1, 2, 3, 4), TrFN(1, 2, 3, 4))

    def test_operations_return_new_values(self):
        t1 = TrFN(0.1, 0.2, 0.3, 0.4)
        t2 = TrFN(0.2, 0.3, 0.4, 0.5)
        add(t1, t2)
        assert t1.components == (0.1, 0.2, 0.3, 0.4)
        assert t2.components == (0.2, 0.3, 0.4, 0.5)

    def test_addition_commutes_and_associates_on_a_lattice(self):
        rng = np.random.default_rng(20260814)
        for _ in range(N_TRIALS):
            t1 = rand_trfn(rng, lattice=True)
            t2 = rand_trfn(rng, lattice=True)
            t3 = rand_trfn(rng, lattice=True)
            assert add(t1, t2) == add(t2, t1)
            assert add(add(t1, t2), t3) == add(t1, add(t2, t3))


class TestNegation:
    def test_negation_flips_and_complements(self):
        assert negate(TrFN(0.1, 0.2, 0.3, 0.4)).components == (0.6, 0.7, 0.8, 0.9)

    def test_negation_is_an_involution_on_a_lattice(self):
        # Lattice values make 1 - (1 - v) exact, so the round trip is
        # required to be bitwise equal, not merely close.
        rng = np.random.default_rng(7)
        for _ in range(N_TRIALS):
            t = rand_trfn(rng, lattice=True)
            assert negate(negate(t)) == t

    def test_negation_round_trip_on_generic_floats(self):
        rng = np.random.default_rng(8)
        for _ in range(N_TRIALS):
            t = rand_trfn(rng)
            back = negate(negate(t))
            assert all(abs(u - v) <= 1e-15 for u, v in zip(back, t))


class TestInversion:
    def test_inversion_flips_reciprocals(self):
        t = invert(TrFN(1, 2, 4, 8))
        assert t.components == (0.125, 0.25, 0.5, 1.0)

    def test_inversion_rejects_nonpositive_values(self):
        with pytest.raises(ValidationError):
            invert(TrFN(0.0, 1.0, 2.0, 3.0))

    def test_inversion_is_an_involution_on_powers_of_two(self):
        rng = np.random.default_rng(9)
        for _ in range(N_TRIALS):
            exps = np.sort(rng.integers(-6, 7, size=4))
            t = TrFN(*(2.0 ** e for e in exps))
            assert invert(invert(t)) == t

    def test_inversion_round_trip_on_generic_floats(self):
        rng = np.random.default_rng(10)
        for _ in range(N_TRIALS):
            t = rand_trfn(rng, lo=0.1, hi=9.0)
            back = invert(invert(t))
            assert all(abs(u - v) <= 1e-12 * max(1.0, v) for u, v in zip(back, t))


class TestDistance:
    def test_distance_is_mean_absolute_component_gap(self):
        d = distance(TrFN(0.0, 0.1, 0.2, 0.3), TrFN(0.1, 0.3, 0.4, 0.7))
        assert d == pytest.approx((0.1 + 0.2 + 0.2 + 0.4) / 4.0, abs=1e-15)

    def test_distance_is_a_metric_sample(self):
        rng = np.random.default_rng(11)
        for _ in range(N_TRIALS):
            t1 = rand_trfn(rng)
            t2 = rand_trfn(rng)
            t3 = rand_trfn(rng)
            assert distance(t1, t1) == 0.0
            assert distance(t1, t2) == distance(t2, t1)
            assert distance(t1, t3) <= distance(t1, t2) + distance(t2, t3) + 1e-12


class TestMagnitude:
    def test_default_weights_recover_the_twelfths_formula(self):
        t = TrFN(0.1, 0.2, 0.4, 0.5)
        expected = (0.1 + 5 * 0.2 + 5 * 0.4 + 0.5) / 12.0
        assert magnitude(t) == pytest.approx(expected, abs=1e-15)

    def test_weights_must_be_positive_and_normalized(self):
        with pytest.raises(ValidationError):
            MagWeights(0.0, 0.5)
        with pytest.raises(ValidationError):
            MagWeights(0.25, 0.35)

    def test_default_weights_satisfy_the_normalization(self):
        w = DEFAULT_MAG_WEIGHTS
        assert 2.0 * (w.w1 + w.w2) == pytest.approx(1.0, abs=1e-15)

    def test_scores_scale_linearly_in_the_components(self):
        w = MagWeights(0.125, 0.375)
        t = TrFN(0.2, 0.4, 0.6, 0.8)
        assert magnitude(t, w) == pytest.approx(
            0.125 * (0.2 + 0.8) + 0.375 * (0.4 + 0.6), abs=1e-15
        )

    def test_negation_mirrors_the_score_around_one_half(self):
        # With dyadic weights and lattice components the identity
        # Mag(negate(t)) = 1 - Mag(t) is exact in floats.
        w = MagWeights(0.125, 0.375)
        rng = np.random.default_rng(12)
        for _ in range(N_TRIALS):
            t = rand_trfn(rng, lattice=True)
            assert magnitude(negate(t), w) == 1.0 - magnitude(t, w)

    def test_negation_mirrors_the_score_with_default_weights(self):
        rng = np.random.default_rng(13)
        for _ in range(N_TRIALS):
            t = rand_trfn(rng)
            gap = magnitude(negate(t)) - (1.0 - magnitude(t))
            assert abs(gap) <= 1e-15

    def test_neutral_fixed_points_score_one_half(self):
        rng = np.random.default_rng(14)
        for _ in range(N_TRIALS):
            a = rng.uniform(0.0, 0.5)
            b = rng.uniform(a, 0.5)
            t = TrFN(a, b, 1.0 - b, 1.0 - a)
            assert magnitude(t) == pytest.approx(0.5, abs=1e-15)

    def test_additivity_under_addition(self):
        rng = np.random.default_rng(15)
        for _ in range(N_TRIALS):
            t1 = rand_trfn(rng)
            t2 = rand_trfn(rng)
            lhs = magnitude(add(t1, t2))
            assert lhs == pytest.approx(magnitude(t1) + magnitude(t2), abs=1e-12)


class TestRanking:
    def test_descending_order_with_distinct_scores(self):
        values = (
            TrFN(0.1, 0.2, 0.3, 0.4),
            TrFN(0.5, 0.6, 0.7, 0.8),
            TrFN(0.3, 0.4, 0.5, 0.6),
        )
        ranking = rank(values)
        assert ranking.order() == (1, 2, 0)
        assert ranking.groups == ((1,), (2,), (0,))
        assert ranking.label() == "A2 > A3 > A1"

    def test_ties_within_the_band_are_grouped(self):
        values = (
            TrFN(0.1, 0.2, 0.3, 0.4),
            TrFN(0.1, 0.2, 0.3, 0.4),
            TrFN(0.5, 0.6, 0.7, 0.8),
        )
        ranking = rank(values)
        assert ranking.groups == ((2,), (0, 1))
        assert ranking.label() == "A3 > A1 ~ A2"

    def test_near_ties_within_tolerance_are_grouped(self):
        values = (
            TrFN(0.5, 0.5, 0.5, 0.5),
            TrFN(0.5, 0.5, 0.5, 0.5 + 1e-10),
        )
        ranking = rank(values)
        assert ranking.groups == ((0, 1),) or ranking.groups == ((1, 0),)

    def test_gaps_beyond_tolerance_stay_separate(self):
        values = (
            TrFN(0.5, 0.5, 0.5, 0.5),
            TrFN(0.5, 0.5, 0.5, 0.501),
        )
        ranking = rank(values, tie_tol=1e-9)
        assert ranking.groups == ((1,), (0,))

    @pytest.mark.parametrize("tie_tol", [-1e-9, float("nan"), "x", None])
    def test_tie_tolerance_must_be_non_negative(self, tie_tol):
        values = (TrFN(0.5, 0.5, 0.5, 0.5), TrFN(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValidationError, match="tie tolerance must be non-negative"):
            rank(values, tie_tol=tie_tol)

    def test_custom_prefix_and_magnitudes_exposed(self):
        values = (TrFN(0.1, 0.2, 0.3, 0.4), TrFN(0.5, 0.6, 0.7, 0.8))
        ranking = rank(values)
        assert ranking.label(prefix="alt") == "alt2 > alt1"
        assert len(ranking.magnitudes) == 2
        assert ranking.magnitudes[0] == pytest.approx(magnitude(values[0]))

    def test_permuting_the_input_permutes_the_report(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            values = tuple(rand_trfn(rng) for _ in range(n))
            perm = rng.permutation(n)
            permuted = tuple(values[p] for p in perm)
            base = rank(values)
            moved = rank(permuted)
            # Index i of the permuted input is index perm[i] of the original.
            relabeled = tuple(
                tuple(sorted(int(perm[i]) for i in g)) for g in moved.groups
            )
            original = tuple(tuple(sorted(g)) for g in base.groups)
            assert relabeled == original

    def test_ranking_is_stable_for_exact_duplicates(self):
        t = TrFN(0.2, 0.3, 0.4, 0.5)
        ranking = rank((t, t, t))
        assert ranking.groups == ((0, 1, 2),)
        assert ranking.label() == "A1 ~ A2 ~ A3"

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValidationError):
            rank(())

    def test_entries_must_be_trapezoids(self):
        with pytest.raises(ValidationError, match="^rank: value 1 is not a trapezoidal number$"):
            rank([1, 2])
