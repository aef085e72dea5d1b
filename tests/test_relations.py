"""Reciprocal relation validation, scale mapping, and consistency checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzylad import (
    NeutralElement,
    TrFN,
    TrFPR,
    TrMPR,
    ValidationError,
    check_consistency,
    check_consistency_mult,
    from_utilities,
    invert,
    negate,
    phi,
    phi_inv,
    to_additive,
    to_multiplicative,
)
from fuzzylad.errors import OutOfUnitIntervalError
from conftest import rand_consistent_trfpr, rand_neutral, rand_trfpr, relabel

N_TRIALS = 200


class TestNeutralElement:
    def test_additive_fixed_point_accepted(self):
        ne = NeutralElement.additive(TrFN(0.4, 0.5, 0.5, 0.6))
        assert ne.kind == "additive"
        assert ne.scale is None

    def test_additive_requires_negation_fixed_point(self):
        with pytest.raises(ValidationError):
            NeutralElement.additive(TrFN(0.4, 0.5, 0.5, 0.7))
        with pytest.raises(ValidationError):
            NeutralElement.additive(TrFN(0.4, 0.45, 0.5, 0.6))

    def test_value_must_be_a_trapezoid(self):
        with pytest.raises(
            ValidationError, match="^neutral element must be a trapezoidal number, got str$"
        ):
            NeutralElement("x")

    def test_additive_requires_unit_interval(self):
        with pytest.raises(ValidationError) as info:
            NeutralElement.additive(TrFN(-0.1, 0.5, 0.5, 1.1))
        assert str(info.value) == "neutral element T(-0.1, 0.5, 0.5, 1.1) leaves [0, 1]"

    def test_multiplicative_fixed_point_accepted(self):
        p = 9.0 ** 0.2
        ne = NeutralElement.multiplicative(TrFN(1.0 / p, 1.0, 1.0, p), 9)
        assert ne.kind == "multiplicative"
        assert ne.scale == 9

    def test_multiplicative_requires_inversion_fixed_point(self):
        with pytest.raises(ValidationError):
            NeutralElement.multiplicative(TrFN(0.5, 1.0, 1.0, 3.0), 9)
        with pytest.raises(ValidationError):
            NeutralElement.multiplicative(TrFN(0.5, 0.8, 1.2, 2.0), 9)

    @pytest.mark.parametrize("value", [TrFN(0.05, 1.0, 1.0, 20.0), TrFN(-1.0, 1.0, 1.0, 2.0)])
    def test_multiplicative_requires_scale_range(self, value):
        with pytest.raises(ValidationError) as info:
            NeutralElement.multiplicative(value, 9)
        assert str(info.value) == f"neutral element {value} leaves [1/9, 9]"

    @pytest.mark.parametrize("scale", [1, 2.0, True, None])
    def test_scale_must_be_integer_at_least_two(self, scale):
        with pytest.raises(ValidationError) as info:
            NeutralElement.multiplicative(TrFN(0.5, 1.0, 1.0, 2.0), scale)
        assert str(info.value) == f"scale must be an integer >= 2, got {scale!r}"

    def test_scale_alone_decides_the_kind(self):
        p = 9.0 ** 0.2
        assert NeutralElement(TrFN(1.0 / p, 1.0, 1.0, p), 9).kind == "multiplicative"
        assert NeutralElement(TrFN(0.4, 0.5, 0.5, 0.6)).kind == "additive"
        assert [f.name for f in dataclasses.fields(NeutralElement)] == ["value", "scale"]

    def test_a_kind_name_is_not_a_scale(self):
        with pytest.raises(ValidationError) as info:
            NeutralElement(TrFN(0.4, 0.5, 0.5, 0.6), "additive")
        assert str(info.value) == "scale must be an integer >= 2, got 'additive'"

    def test_scale_must_fit_in_a_float(self):
        with pytest.raises(ValidationError) as info:
            NeutralElement.multiplicative(TrFN(1.0, 1.0, 1.0, 1.0), 10**400)
        assert str(info.value) == "scale must fit in a float, got a 1329-bit integer"
        for refused in (lambda: phi(0.5, 10**400), lambda: phi_inv(1.0, 10**400)):
            with pytest.raises(ValidationError, match="scale must fit in a float"):
                refused()

    def test_the_largest_scale_a_float_holds_is_accepted(self):
        assert NeutralElement.multiplicative(TrFN(1.0, 1.0, 1.0, 1.0), 10**308).scale == 10**308
        assert phi(1.0, 10**308) == 1e308

    def test_crisp_one_half_is_the_classic_neutral(self):
        ne = NeutralElement.additive(TrFN(0.5, 0.5, 0.5, 0.5))
        assert ne.value.components == (0.5, 0.5, 0.5, 0.5)


class TestTrFPRValidation:
    def test_round_trip_of_a_valid_relation(self, base_relation):
        assert base_relation.n == 3
        assert base_relation.entry(0, 1).components == (0.6, 0.7, 0.7, 0.8)
        assert base_relation.entry(1, 0).components == pytest.approx(
            (0.2, 0.3, 0.3, 0.4), abs=1e-15
        )

    def test_storage_is_one_read_only_array(self, base_relation):
        array = base_relation.array
        assert array.shape == (3, 3, 4) and array.dtype == np.float64
        assert not array.flags.writeable
        assert tuple(array[0, 1]) == base_relation.entry(0, 1).components
        assert base_relation.entries[2][1] == base_relation.entry(2, 1)

    def test_entries_are_not_kept_next_to_the_array(self, base_relation):
        assert base_relation.entries[0][1] == base_relation.entry(0, 1)
        assert "entries" not in vars(base_relation)

    def test_signed_zeros_give_equal_relations_and_hashes(self, neutral_4556):
        upper = np.zeros((2, 2, 4))
        upper[0, 1] = (0.0, 0.2, 0.3, 1.0)
        plus = TrFPR.from_upper(upper, neutral_4556)
        upper[0, 1, 0] = -0.0
        minus = TrFPR.from_upper(upper, neutral_4556)
        assert np.signbit(minus.array[0, 1, 0]) and not np.signbit(plus.array[0, 1, 0])
        assert minus == plus and hash(minus) == hash(plus)

    def test_equal_grids_give_equal_relations(self, base_relation):
        copy = TrFPR(base_relation.entries, base_relation.neutral)
        assert copy == base_relation and hash(copy) == hash(base_relation)
        assert copy != to_multiplicative(base_relation, 9)

    def test_diagonal_must_equal_the_neutral_element(self, neutral_4556):
        t0 = neutral_4556.value
        off = TrFN(0.5, 0.6, 0.6, 0.7)
        rows = (
            (TrFN(0.4, 0.5, 0.5, 0.7), off),
            (negate(off), t0),
        )
        with pytest.raises(ValidationError, match=r"\(1,1\)"):
            TrFPR(rows, neutral_4556)

    def test_reciprocity_violations_name_the_cell(self, neutral_4556):
        t0 = neutral_4556.value
        rows = (
            (t0, TrFN(0.5, 0.6, 0.6, 0.7)),
            (TrFN(0.3, 0.4, 0.4, 0.6), t0),
        )
        with pytest.raises(ValidationError, match=r"\(2,1\).*negation.*\(1,2\)"):
            TrFPR(rows, neutral_4556)

    def test_entries_must_stay_inside_the_unit_interval(self, neutral_4556):
        t0 = neutral_4556.value
        rows = (
            (t0, TrFN(0.5, 0.6, 0.7, 1.2)),
            (TrFN(-0.2, 0.3, 0.4, 0.5), t0),
        )
        with pytest.raises(ValidationError):
            TrFPR(rows, neutral_4556)

    def test_rows_must_be_square(self, neutral_4556):
        t0 = neutral_4556.value
        with pytest.raises(ValidationError):
            TrFPR(((t0, t0, t0), (t0, t0, t0)), neutral_4556)

    def test_kind_mismatch_is_rejected(self, ratio_neutral):
        t0 = ratio_neutral.value
        with pytest.raises(ValidationError):
            TrFPR(((t0,),), ratio_neutral)

    def test_no_alternatives_are_rejected(self, neutral_4556):
        with pytest.raises(ValidationError, match="^a preference relation needs at least one"):
            TrFPR([], neutral_4556)

    def test_neutral_must_be_a_neutral_element(self, neutral_4556):
        t0 = neutral_4556.value
        with pytest.raises(
            ValidationError, match="^an additive relation needs an additive neutral element$"
        ):
            TrFPR(((t0,),), "x")

    @pytest.mark.parametrize(
        "cls, phrase", [(TrFPR, "an additive"), (TrMPR, "a multiplicative")], ids=["TrFPR", "TrMPR"]
    )
    def test_from_upper_checks_the_neutral_before_reading_it(self, cls, phrase):
        message = f"^{phrase} relation needs {phrase} neutral element$"
        with pytest.raises(ValidationError, match=message):
            cls.from_upper(np.full((2, 2, 4), 0.5), "x")

    @pytest.mark.parametrize(
        "array, message",
        [
            (np.zeros((0, 0, 4)), "^a preference relation needs at least one alternative$"),
            (np.zeros((2, 2)), r"needs an \(n, n, 4\) array, got shape \(2, 2\)$"),
            (np.zeros((2, 2, 3)), r"needs an \(n, n, 4\) array, got shape \(2, 2, 3\)$"),
            ([[["a", "b", "c", "d"]]], "^a preference relation needs a numeric array"),
        ],
        ids=["empty", "no-components", "three-components", "non-numeric"],
    )
    def test_from_upper_refuses_an_empty_or_mis_shaped_array(self, neutral_4556, array, message):
        with pytest.raises(ValidationError, match=message):
            TrFPR.from_upper(array, neutral_4556)

    def test_from_upper_reads_a_nested_list_as_its_array(self, neutral_4556):
        upper = np.zeros((2, 2, 4))
        upper[0, 1] = (0.5, 0.6, 0.6, 0.7)
        assert TrFPR.from_upper(upper.tolist(), neutral_4556) == TrFPR.from_upper(upper, neutral_4556)

    def test_entries_must_be_trapezoids(self, neutral_4556):
        t0 = neutral_4556.value
        with pytest.raises(ValidationError, match=r"^entry \(1,2\) is not a trapezoidal number$"):
            TrFPR(((t0, (0.4, 0.5, 0.5, 0.6)), (t0, t0)), neutral_4556)

    def test_random_mirrored_relations_validate(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            x = rand_trfpr(rng, n)
            assert x.n == n


class TestTrMPRValidation:
    def test_round_trip_of_a_valid_relation(self, ratio_relation):
        assert ratio_relation.n == 3
        assert ratio_relation.scale == 9

    def test_reciprocity_violations_name_the_cell(self, ratio_neutral):
        s0 = ratio_neutral.value
        rows = (
            (s0, TrFN(1.0, 2.0, 2.0, 3.0)),
            (TrFN(1.0 / 3.0, 0.5, 0.5, 1.1), s0),
        )
        with pytest.raises(ValidationError, match=r"\(2,1\).*inverse.*\(1,2\)"):
            TrMPR(rows, ratio_neutral)

    def test_entries_must_stay_inside_the_scale_range(self, ratio_neutral):
        s0 = ratio_neutral.value
        rows = (
            (s0, TrFN(1.0, 2.0, 3.0, 12.0)),
            (invert(TrFN(1.0, 2.0, 3.0, 12.0)), s0),
        )
        with pytest.raises(ValidationError):
            TrMPR(rows, ratio_neutral)

    def test_diagonal_must_equal_the_neutral_element(self, ratio_neutral):
        off = TrFN(1.0, 2.0, 2.0, 3.0)
        rows = (
            (TrFN(1.0, 1.0, 1.0, 1.0), off),
            (invert(off), TrFN(1.0, 1.0, 1.0, 1.0)),
        )
        with pytest.raises(ValidationError, match=r"\(1,1\)"):
            TrMPR(rows, ratio_neutral)


class TestScaleMap:
    def test_midpoint_maps_to_one(self):
        assert phi(0.5, 9) == pytest.approx(1.0, abs=1e-15)

    def test_endpoints_map_to_scale_bounds(self):
        assert phi(0.0, 9) == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert phi(1.0, 9) == pytest.approx(9.0, rel=1e-15)

    def test_known_interior_value(self):
        assert phi(0.75, 9) == pytest.approx(3.0, rel=1e-12)
        assert phi_inv(3.0, 9) == pytest.approx(0.75, abs=1e-12)

    def test_round_trip_is_tight(self):
        rng = np.random.default_rng(22)
        for _ in range(N_TRIALS):
            x = float(rng.uniform(0.0, 1.0))
            m = int(rng.choice([2, 9]))
            assert phi_inv(phi(x, m), m) == pytest.approx(x, abs=1e-12)
            y = float(rng.uniform(1.0 / m, m))
            assert phi(phi_inv(y, m), m) == pytest.approx(y, rel=1e-12)

    @pytest.mark.parametrize(
        "fn, span",
        [(phi, "[0, 1]"), (phi_inv, "[1/9, 9]")],
        ids=["phi", "phi_inv"],
    )
    @pytest.mark.parametrize("value", [float("nan"), -0.5, 10.0])
    def test_values_outside_the_range_are_rejected(self, fn, span, value):
        with pytest.raises(ValidationError) as info:
            fn(value, 9)
        assert str(info.value) == f"{fn.__name__} expects a value in {span}, got {value}"

    @pytest.mark.parametrize(
        "fn, value, message",
        [
            (phi, 10**400, "phi argument x does not fit in a float"),
            (phi_inv, 10**400, "phi_inv argument y does not fit in a float"),
            (phi, "x", "phi argument x='x' is not a real number"),
            (phi_inv, None, "phi_inv argument y=None is not a real number"),
        ],
        ids=["phi-huge", "phi_inv-huge", "phi-text", "phi_inv-none"],
    )
    def test_values_that_are_no_float_are_rejected_naming_the_function(self, fn, value, message):
        with pytest.raises(ValidationError) as info:
            fn(value, 9)
        assert str(info.value) == message

    def test_monotone_increasing(self):
        rng = np.random.default_rng(23)
        xs = np.sort(rng.uniform(0.0, 1.0, size=50))
        ys = [phi(x, 9) for x in xs]
        assert all(u <= v + 1e-15 for u, v in zip(ys, ys[1:]))


class TestConversions:
    def test_unit_to_ratio_and_back_is_identity(self, base_relation):
        y = to_multiplicative(base_relation, 9)
        back = to_additive(y)
        for i in range(3):
            for j in range(3):
                for u, v in zip(back.entry(i, j), base_relation.entry(i, j)):
                    assert abs(u - v) <= 1e-12

    def test_ratio_to_unit_and_back_is_identity(self, ratio_relation):
        x = to_additive(ratio_relation)
        back = to_multiplicative(x, 9)
        for i in range(3):
            for j in range(3):
                for u, v in zip(back.entry(i, j), ratio_relation.entry(i, j)):
                    assert abs(u - v) <= 1e-9 * max(1.0, abs(v))

    def test_ratio_relation_maps_to_exact_twentieths(self, ratio_relation):
        # Entries are powers of 9, so their unit-interval images are
        # 0.5 + exponent/2 and every component lands on a 0.05 grid.
        x = to_additive(ratio_relation)
        expected_12 = (0.6, 0.7, 0.7, 0.8)
        for u, v in zip(x.entry(0, 1), expected_12):
            assert abs(u - v) <= 1e-12
        expected_13 = (0.6, 0.7, 0.8, 0.9)
        for u, v in zip(x.entry(0, 2), expected_13):
            assert abs(u - v) <= 1e-12

    def test_neutral_elements_map_onto_each_other(self, base_relation):
        y = to_multiplicative(base_relation, 9)
        s0 = y.neutral.value
        assert s0.b == pytest.approx(1.0, abs=1e-12)
        assert s0.a * s0.d == pytest.approx(1.0, rel=1e-12)

    def test_round_trip_on_random_relations(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            x = rand_trfpr(rng, n)
            m = int(rng.choice([2, 9]))
            back = to_additive(to_multiplicative(x, m))
            for i in range(n):
                for j in range(n):
                    for u, v in zip(back.entry(i, j), x.entry(i, j)):
                        assert abs(u - v) <= 1e-10


class TestConsistency:
    def test_base_relation_is_not_consistent(self, base_relation):
        report = check_consistency(base_relation)
        assert not report.consistent
        assert report.max_violation == pytest.approx(0.1, abs=1e-12)
        assert report.worst_triple == (0, 1, 2)

    def test_consistent_relation_passes(self, consistent_relation):
        report = check_consistency(consistent_relation)
        assert report.consistent
        assert report.max_violation <= 1e-12

    def test_describe_prints_one_based_indices(self, base_relation):
        text = check_consistency(base_relation).describe()
        assert "(1, 2, 3)" in text
        assert "0.1" in text

    def test_tolerance_is_respected(self, base_relation):
        assert check_consistency(base_relation, tol=0.2).consistent
        assert not check_consistency(base_relation, tol=0.05).consistent

    def test_the_verdict_is_read_from_the_violation_and_the_tolerance(self, base_relation):
        report = check_consistency(base_relation)
        names = [f.name for f in dataclasses.fields(report)]
        assert names == ["max_violation", "worst_triple", "tol"]
        assert dataclasses.replace(report, tol=0.2).consistent
        assert not dataclasses.replace(report, tol=0.2, max_violation=0.3).consistent

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12, "x", None])
    def test_tolerance_must_be_finite_and_non_negative(self, base_relation, ratio_relation, tol):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            check_consistency(base_relation, tol)
        with pytest.raises(ValidationError, match="finite and non-negative"):
            check_consistency_mult(ratio_relation, tol)

    def test_ratio_relation_consistency_matches_its_unit_image(self, ratio_relation):
        rep_mult = check_consistency_mult(ratio_relation)
        rep_add = check_consistency(to_additive(ratio_relation))
        assert rep_mult.consistent == rep_add.consistent

    def test_ratio_products_compared_by_the_scan(self, ratio_relation):
        # The two sides of the worst ratio triple, multiplied out
        # componentwise.
        from fuzzylad import mul

        s0 = ratio_relation.neutral.value
        lhs = mul(ratio_relation.entry(0, 1), s0)
        for u, v in zip(lhs, (1.0, 9.0 ** 0.4, 9.0 ** 0.4, 9.0 ** 0.8)):
            assert u == pytest.approx(v, rel=1e-12)
        rhs = mul(ratio_relation.entry(0, 2), ratio_relation.entry(2, 1))
        for u, v in zip(rhs, (9.0 ** -0.4, 1.0, 9.0 ** 0.4, 9.0 ** 0.8)):
            assert u == pytest.approx(v, rel=1e-12)
        assert not check_consistency_mult(ratio_relation).consistent

    def test_random_constructed_consistent_relations_pass(self):
        rng = np.random.default_rng(25)
        for _ in range(N_TRIALS):
            n = int(rng.integers(2, 6))
            x = rand_consistent_trfpr(rng, n)
            report = check_consistency(x)
            assert report.consistent, report.describe()

    def test_single_cell_perturbation_is_caught(self):
        rng = np.random.default_rng(26)
        hits = 0
        for _ in range(N_TRIALS):
            n = int(rng.integers(3, 6))
            x = rand_consistent_trfpr(rng, n)
            i, j = 0, 1
            entry = x.entry(i, j)
            delta = 0.02
            if entry.d + delta > 1.0:
                delta = -0.02
                if entry.a + delta < 0.0:
                    continue
            bumped = TrFN(*(v + delta for v in entry.components))
            rows = [list(r) for r in x.entries]
            rows[i][j] = bumped
            rows[j][i] = negate(bumped)
            noisy = TrFPR(tuple(tuple(r) for r in rows), x.neutral)
            report = check_consistency(noisy)
            assert not report.consistent
            assert report.max_violation >= 0.02 - 1e-9
            hits += 1
        assert hits >= N_TRIALS // 2


class TestFromUtilities:
    def test_reconstruction_inverts_derivation(self, neutral_4556):
        utilities = (
            TrFN(0.55, 0.65, 0.65, 0.75),
            TrFN(0.45, 0.55, 0.55, 0.65),
            TrFN(0.35, 0.45, 0.45, 0.55),
        )
        x = from_utilities(utilities, neutral_4556)
        assert check_consistency(x).consistent
        t0 = neutral_4556.value
        got = x.entry(0, 1)
        assert got.a == pytest.approx(0.55 + (1 - 0.65) - t0.a, abs=1e-12)
        assert got.d == pytest.approx(0.75 + (1 - 0.45) - t0.d, abs=1e-12)

    def test_diagonal_is_the_neutral_element_exactly(self, neutral_4556):
        utilities = (TrFN(0.5, 0.6, 0.6, 0.7), TrFN(0.4, 0.5, 0.5, 0.6))
        x = from_utilities(utilities, neutral_4556)
        assert x.entry(0, 0) == neutral_4556.value
        assert x.entry(1, 1) == neutral_4556.value

    def test_a_multiplicative_neutral_is_rejected(self, ratio_neutral):
        with pytest.raises(ValidationError, match="^from_utilities needs an additive neutral"):
            from_utilities((ratio_neutral.value,), ratio_neutral)

    def test_no_utilities_are_rejected(self, neutral_4556):
        with pytest.raises(ValidationError, match="^from_utilities needs at least one utility$"):
            from_utilities((), neutral_4556)

    def test_utilities_must_be_trapezoids(self, neutral_4556):
        with pytest.raises(ValidationError, match="^utility 2 is not a trapezoidal number$"):
            from_utilities((neutral_4556.value, (0.4, 0.5, 0.5, 0.6)), neutral_4556)

    def test_spread_mismatch_is_rejected(self, neutral_4556):
        utilities = (TrFN(0.2, 0.5, 0.5, 0.8), TrFN(0.4, 0.5, 0.5, 0.6))
        with pytest.raises(ValidationError):
            from_utilities(utilities, neutral_4556)

    def test_unordered_rebuilt_entries_are_rejected(self, neutral_4556):
        utilities = (TrFN(0.5, 0.5, 0.5, 0.7), TrFN(0.3, 0.5, 0.5, 0.5))
        with pytest.raises(ValidationError, match=r"^entry \(1,2\): components must satisfy"):
            from_utilities(utilities, neutral_4556)

    def test_entries_leaving_the_unit_interval_are_rejected(self, neutral_4556):
        utilities = (TrFN(0.9, 1.0, 1.0, 1.1), TrFN(0.0, 0.1, 0.1, 0.2))
        with pytest.raises(OutOfUnitIntervalError):
            from_utilities(utilities, neutral_4556)

    def test_random_compatible_utilities_rebuild_consistent_relations(self):
        rng = np.random.default_rng(27)
        for _ in range(N_TRIALS):
            n = int(rng.integers(2, 6))
            neutral = rand_neutral(rng)
            t0 = neutral.value
            support = t0.d - t0.a
            core = t0.c - t0.b
            delta = t0.b - t0.a
            utilities = []
            for _ in range(n):
                a = float(rng.uniform(0.5 - t0.a / 2.0, 0.5 + t0.a / 2.0))
                b = a + float(rng.uniform(0.0, delta)) if delta > 0 else a
                utilities.append(TrFN(a, b, b + core, a + support))
            x = from_utilities(tuple(utilities), neutral)
            assert check_consistency(x).consistent
            entry = x.entry(0, min(1, n - 1))
            u0, u1 = utilities[0], utilities[min(1, n - 1)]
            if n > 1:
                assert entry.a == pytest.approx(u0.a + 1.0 - u1.d - t0.a, abs=1e-12)
                assert entry.d == pytest.approx(u0.d + 1.0 - u1.a - t0.d, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    consistent=st.booleans(),
    ratio=st.booleans(),
    data=st.data(),
)
def test_relabelling_leaves_the_consistency_report_exactly(seed, n, consistent, ratio, data):
    rng = np.random.default_rng(seed)
    x = (rand_consistent_trfpr if consistent else rand_trfpr)(rng, n)
    if ratio:
        x = to_multiplicative(x, 9)
    before = check_consistency(x)
    after = check_consistency(relabel(x, data.draw(st.permutations(range(n)))))
    assert (after.consistent, after.max_violation) == (before.consistent, before.max_violation)
