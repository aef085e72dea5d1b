"""Deviation objective, LP assembly, and utility derivation."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzylad import (
    MAX_LP_ALTERNATIVES,
    MAX_SIGMA,
    IterationLimitError,
    Model,
    NeutralElement,
    NotConsistentError,
    SizeLimitError,
    TrFN,
    TrFPR,
    TrMPR,
    UtilityVector,
    ValidationError,
    add,
    build_lp,
    check_consistency,
    crisp,
    derive_utility,
    derive_utility_mult,
    derive_weights,
    evaluate_objective,
    fast_path_consistent,
    magnitude,
    rank,
    shift_normalize,
    simplex,
    to_additive,
    to_multiplicative,
)
from fuzzylad.simplex import LinearProgram, LpSolution, LpStatus, solve
from conftest import (
    LATTICE,
    lattice_value,
    rand_consistent_trfpr,
    rand_trfn,
    rand_trfpr,
    relabel,
)

PAPER_UTILITIES = (
    TrFN(0.3, 0.3, 0.3, 0.5),
    TrFN(0.1, 0.1, 0.1, 0.3),
    TrFN(0.0, 0.0, 0.0, 0.2),
)

SIGMA_AT_THE_LIMIT = TrFN(*(MAX_SIGMA * r for r in (0.8 / 1.2, 0.9 / 1.2, 1.1 / 1.2, 1.0)))

# Psigma targets far above 1, on seeded relations and their ratio images:
# the solver reads its feasibility checks against the program's scale.
LARGE_TARGET_CASES = [
    (d, n, ratio)
    for d in (1e5, 1e8, 1e12)
    for n in (3, 5, 7, 11, 15)
    if n < 15 or d == 1e8
    for ratio in (False, True)
]
LARGE_TARGET_IDS = [
    f"d{d:.0e}-n{n}-{'ratio' if r else 'additive'}" for d, n, r in LARGE_TARGET_CASES
]


def feasible_point(x, sigma):
    """Zero utilities, or ``sigma / n`` each, with every deviation at its cell's |residual|.

    Variables are laid out as in ``build_lp``: utility components first,
    then one deviation per cell (i, j) and component, row-major.
    """
    x = to_additive(x) if isinstance(x, TrMPR) else x
    share = np.zeros(4) if sigma is None else np.array(sigma.components) / x.n
    u = np.tile(share, (x.n, 1))
    rebuilt = u[:, None, :] + (1.0 - u[None, :, ::-1])
    residual = x.array + np.array(x.neutral.value.components) - rebuilt
    return np.concatenate([u.ravel(), np.abs(residual).ravel()])


class TestEvaluateObjective:
    def test_known_value_on_the_reference_relation(self, base_relation):
        assert evaluate_objective(base_relation, PAPER_UTILITIES) == pytest.approx(
            0.2, abs=1e-12
        )

    def test_zero_on_the_consistent_twin(self, consistent_relation):
        assert evaluate_objective(consistent_relation, PAPER_UTILITIES) <= 1e-12

    def test_wrong_utility_count_is_rejected(self, base_relation):
        with pytest.raises(ValidationError):
            evaluate_objective(base_relation, PAPER_UTILITIES[:2])

    def test_utilities_must_be_trapezoids(self, base_relation, portfolio):
        with pytest.raises(ValidationError, match="^utility 1 is not a trapezoidal number$"):
            evaluate_objective(base_relation, [1, 2, 3])
        with pytest.raises(ValidationError, match="^utility 1 is not a trapezoidal number$"):
            evaluate_objective(portfolio["matrices"][0], [1, 2, 3, 4])

    def test_shift_invariance_is_exact_on_a_lattice(self):
        # Adding the same crisp constant to every utility must not move
        # the objective at all: every rebuilt comparison gains and loses
        # the constant once.  On dyadic data this is exact in floats.
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            x = rand_trfpr(rng, n, lattice=True)
            utilities = tuple(rand_trfn(rng, lattice=True) for _ in range(n))
            delta = crisp(lattice_value(rng, 0.0, 0.5))
            shifted = tuple(add(u, delta) for u in utilities)
            assert evaluate_objective(x, shifted) == evaluate_objective(x, utilities)

    def test_shift_invariance_on_generic_floats(self, base_relation):
        rng = np.random.default_rng(32)
        for _ in range(100):
            utilities = tuple(rand_trfn(rng) for _ in range(3))
            delta = crisp(float(rng.uniform(0.0, 0.7)))
            shifted = tuple(add(u, delta) for u in utilities)
            gap = evaluate_objective(base_relation, shifted) - evaluate_objective(
                base_relation, utilities
            )
            assert abs(gap) <= 1e-12


class TestBuildLp:
    def test_variable_and_row_counts(self, base_relation):
        lp = build_lp(base_relation, Model.P)
        assert lp.num_vars == 48  # 12 utility components + 36 deviations
        assert lp.a_ub.shape == (81, 48)  # 72 deviation rows + 9 chain rows
        assert lp.a_eq.shape == (0, 48)

    def test_objective_prices_only_deviation_variables(self, base_relation):
        lp = build_lp(base_relation, Model.P)
        assert np.all(lp.c[:12] == 0.0)
        assert np.all(lp.c[12:] == 0.25)

    def test_model_p_bounds_sign_only_the_support_start(self, base_relation):
        lp = build_lp(base_relation, Model.P)
        for k in range(3):
            assert lp.bounds[4 * k + 0] == (0.0, np.inf)
            assert lp.bounds[4 * k + 1] == (-np.inf, np.inf)
            assert lp.bounds[4 * k + 2] == (-np.inf, np.inf)
            assert lp.bounds[4 * k + 3] == (-np.inf, np.inf)
        assert all(b == (0.0, np.inf) for b in lp.bounds[12:])

    def test_model_p0_leaves_utilities_free(self, base_relation):
        lp = build_lp(base_relation, Model.P0)
        for k in range(3):
            assert lp.bounds[4 * k + 0] == (-np.inf, np.inf)

    def test_model_punit_adds_upper_bounds(self, base_relation):
        lp = build_lp(base_relation, Model.PUNIT)
        for k in range(3):
            assert lp.bounds[4 * k + 0] == (0.0, np.inf)
            assert lp.bounds[4 * k + 3] == (-np.inf, 1.0)

    def test_ordering_chain_rows(self, base_relation):
        lp = build_lp(base_relation, Model.P)
        chain = lp.a_ub[72:]
        assert chain.shape == (9, 48)
        for k in range(3):
            for comp in range(3):
                row = chain[3 * k + comp]
                assert row[4 * k + comp] == 1.0
                assert row[4 * k + comp + 1] == -1.0
                assert np.count_nonzero(row) == 2
        assert np.all(lp.b_ub[72:] == 0.0)

    def test_total_target_becomes_four_equality_rows(self, base_relation, sigma_unit):
        lp = build_lp(base_relation, Model.PSIGMA, sigma_unit)
        assert lp.a_eq.shape == (4, 48)
        assert lp.b_eq == pytest.approx(
            [sigma_unit.a, sigma_unit.b, sigma_unit.c, sigma_unit.d]
        )
        for comp in range(4):
            row = lp.a_eq[comp]
            hot = [4 * k + comp for k in range(3)]
            assert all(row[h] == 1.0 for h in hot)
            assert np.count_nonzero(row) == 3

    def test_model_must_be_a_model(self, base_relation):
        with pytest.raises(ValidationError, match="^build_lp: expected a Model, got str$"):
            build_lp(base_relation, "punit")

    def test_derive_utility_refuses_a_model_name_through_build_lp(self, base_relation):
        with pytest.raises(ValidationError, match="^build_lp: expected a Model, got str$"):
            derive_utility(base_relation, "punit")

    def test_target_required_and_rejected_appropriately(self, base_relation, sigma_unit):
        with pytest.raises(ValidationError):
            build_lp(base_relation, Model.PSIGMA)
        with pytest.raises(ValidationError):
            build_lp(base_relation, Model.P, sigma_unit)

    def test_relations_above_the_size_limit_are_refused_before_allocation(self):
        x = rand_consistent_trfpr(np.random.default_rng(40), MAX_LP_ALTERNATIVES + 1)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=r"at most 15 alternatives, got 16"):
                build_lp(x, Model.P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The LP's dense constraint matrix alone would take about 18 MB.
        assert peak < 100_000
        assert issubclass(SizeLimitError, ValidationError)

    def test_one_solve_needs_little_beyond_its_tableau_and_program(self):
        psigma = build_lp(
            rand_trfpr(np.random.default_rng(7), 7), Model.PSIGMA, TrFN(0.8, 0.9, 1.1, 1.2)
        )
        # Each equality row given twice, so phase 1 leaves redundant rows.
        redundant = LinearProgram(
            psigma.c, psigma.a_ub, psigma.b_ub, np.vstack([psigma.a_eq] * 2),
            np.tile(psigma.b_eq, 2), psigma.bounds,
        )
        for lp in (build_lp(rand_trfpr(np.random.default_rng(47), 7), Model.PUNIT), redundant):
            lo, hi = np.array(lp.bounds).T
            std_columns = lp.num_vars + int(np.count_nonzero(np.isinf(lo) & np.isinf(hi)))
            ub_rows = lp.a_ub.shape[0] + int(np.count_nonzero(np.isfinite(lo) & np.isfinite(hi)))
            rows = ub_rows + lp.a_eq.shape[0]
            # Standard columns, one slack per inequality, at most one artificial
            # per row and the right-hand side; the cost row below.
            tableau_bytes = 8 * (rows + 1) * (std_columns + ub_rows + rows + 1)
            program_bytes = sum(a.nbytes for a in (lp.c, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq))
            tracemalloc.start()
            try:
                solution = solve(lp)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert solution.status is LpStatus.OPTIMAL
            assert peak <= 1.1 * (tableau_bytes + program_bytes)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_lp_has_a_feasible_point_and_an_objective_bounded_below(self, n):
        additive = rand_trfpr(np.random.default_rng(1500 + n), n)
        cases = [(Model.P0, None), (Model.P, None), (Model.PUNIT, None)]
        cases += [(Model.PSIGMA, TrFN(0.8, 0.9, 1.1, 1.2)), (Model.PSIGMA, SIGMA_AT_THE_LIMIT)]
        for x in (additive, to_multiplicative(additive, 9)):
            for model, sigma in cases:
                lp = build_lp(x, model, sigma)
                z = feasible_point(x, sigma)
                scale = 1.0 + max(np.abs(lp.b_ub).max(), np.abs(lp.b_eq).max(initial=0.0))
                assert np.max(lp.a_ub @ z - lp.b_ub) <= 1e-12 * scale
                assert np.max(np.abs(lp.a_eq @ z - lp.b_eq), initial=0.0) <= 1e-12 * scale
                lower, upper = np.array(lp.bounds).T
                assert np.all(lower <= z) and np.all(z <= upper)
                # Costs only on variables bounded below by 0 keep c @ z >= 0 on the feasible set.
                assert np.all(lp.c[lower >= 0.0] >= 0.0) and np.all(lp.c[lower < 0.0] == 0.0)

    def test_the_size_limit_itself_is_accepted(self):
        x = rand_consistent_trfpr(np.random.default_rng(41), MAX_LP_ALTERNATIVES)
        assert build_lp(x, Model.P).num_vars == 4 * 15 + 4 * 15 * 15

    def test_target_must_be_a_trapezoid(self, base_relation):
        refusal = "^sigma: expected a trapezoidal number, got tuple$"
        with pytest.raises(ValidationError, match=refusal):
            build_lp(base_relation, Model.PSIGMA, (0.8, 0.9, 1.1, 1.2))

    def test_nonpositive_target_is_rejected(self, base_relation):
        with pytest.raises(ValidationError):
            build_lp(base_relation, Model.PSIGMA, TrFN(0.0, 0.1, 0.2, 0.3))


class TestDeriveUtility:
    def test_reference_relation_objective(self, base_relation):
        result = derive_utility(base_relation, Model.P)
        assert result.objective == pytest.approx(0.2, abs=1e-9)
        assert result.model is Model.P

    def test_unit_model_matches_on_the_reference_relation(self, base_relation):
        result = derive_utility(base_relation)  # default model
        assert result.model is Model.PUNIT
        assert result.objective == pytest.approx(0.2, abs=1e-9)
        for u in result.utilities:
            assert 0.0 <= u.a and u.d <= 1.0

    def test_reference_ranking(self, base_relation):
        result = derive_utility(base_relation)
        ranking = rank(result.utilities)
        assert ranking.label() == "A1 > A2 > A3"

    def test_objective_agrees_with_direct_evaluation(self, base_relation):
        result = derive_utility(base_relation, Model.P)
        assert result.objective == evaluate_objective(base_relation, result.utilities)

    def test_consistent_relation_reaches_zero(self, consistent_relation):
        result = derive_utility(consistent_relation, Model.P)
        assert result.objective <= 1e-9

    def test_free_model_matches_signed_model(self):
        # The sign constraint never costs anything: any free optimum can
        # be shifted into the non-negative orthant without changing the
        # objective.
        rng = np.random.default_rng(33)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            x = rand_trfpr(rng, n)
            z_free = derive_utility(x, Model.P0).objective
            z_signed = derive_utility(x, Model.P).objective
            assert abs(z_free - z_signed) <= 1e-9

    def test_unit_model_never_beats_signed_model(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            x = rand_trfpr(rng, n)
            z_signed = derive_utility(x, Model.P).objective
            z_unit = derive_utility(x, Model.PUNIT).objective
            assert z_unit >= z_signed - 1e-9

    def test_zero_objective_iff_consistent(self):
        rng = np.random.default_rng(35)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            if trial % 2 == 0:
                x = rand_consistent_trfpr(rng, n)
            else:
                x = rand_trfpr(rng, n)
            consistent = check_consistency(x).consistent
            objective = derive_utility(x, Model.P).objective
            if consistent:
                assert objective <= 1e-7
            else:
                assert objective > 1e-7

    def test_utilities_respect_model_bounds(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            x = rand_trfpr(rng, n)
            result = derive_utility(x, Model.PUNIT)
            for u in result.utilities:
                assert u.a >= 0.0
                assert u.d <= 1.0

    def test_ranking_transfers_from_relation_to_utilities(self):
        # On a consistent relation the pairwise magnitude excess over 0.5
        # equals the utility magnitude gap, so orderings agree.
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            x = rand_consistent_trfpr(rng, n)
            result = derive_utility(x, Model.P)
            mags = [magnitude(u) for u in result.utilities]
            for i in range(n):
                for j in range(n):
                    pair_gap = magnitude(x.entry(i, j)) - 0.5
                    assert mags[i] - mags[j] == pytest.approx(pair_gap, abs=1e-7)

    def test_pivot_budget_error_names_n_and_the_model(self, base_relation, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 2)
        with pytest.raises(IterationLimitError, match=r"^n = 3, model punit: simplex pivot budget"):
            derive_utility(base_relation, Model.PUNIT)

    @pytest.mark.parametrize("status", [LpStatus.INFEASIBLE, LpStatus.UNBOUNDED])
    def test_any_status_but_optimal_is_a_solver_error_naming_it(
        self, base_relation, monkeypatch, status
    ):
        monkeypatch.setattr("fuzzylad.lad.solve", lambda lp: LpSolution(status, None, None, 0))
        with pytest.raises(ArithmeticError, match=f"solver read the deviation LP {status.value};"):
            derive_utility(base_relation, Model.PUNIT)

    def test_weights_model_is_rejected_here(self, ratio_relation):
        with pytest.raises(ValidationError):
            derive_utility(to_additive(ratio_relation), Model.QSIGMA)


class TestShiftNormalize:
    def test_free_solution_becomes_signed(self, base_relation):
        free = derive_utility(base_relation, Model.P0)
        shifted = shift_normalize(free)
        assert shifted.model is Model.P
        assert all(u.a >= 0.0 for u in shifted.utilities)
        assert shifted.objective == free.objective
        recomputed = evaluate_objective(base_relation, shifted.utilities)
        assert recomputed == pytest.approx(free.objective, abs=1e-9)

    def test_already_signed_solutions_pass_through(self):
        u = UtilityVector(
            (TrFN(0.1, 0.2, 0.3, 0.4), TrFN(0.2, 0.3, 0.4, 0.5)), 0.125, Model.P0
        )
        shifted = shift_normalize(u)
        assert shifted.utilities == u.utilities
        assert shifted.model is Model.P

    def test_a_vector_touching_zero_keeps_its_components(self):
        u = UtilityVector((TrFN(0.0, 0.2, 0.3, 0.4), TrFN(0.2, 0.3, 0.4, 0.5)), 0.125, Model.P0)
        shifted = shift_normalize(u)
        assert shifted.utilities == u.utilities
        assert shifted.model is Model.P

    def test_only_the_free_model_is_accepted(self, base_relation):
        signed = derive_utility(base_relation, Model.P)
        with pytest.raises(ValidationError):
            shift_normalize(signed)

    def test_what_is_not_a_utility_vector_is_refused(self):
        with pytest.raises(
            ValidationError, match="^shift_normalize: expected a UtilityVector, got str$"
        ):
            shift_normalize("x")


class TestRatioScalePaths:
    def test_ratio_derivation_matches_the_reference(self, ratio_relation):
        result = derive_utility_mult(ratio_relation)
        assert result.objective == pytest.approx(0.2, abs=1e-6)
        assert result.model is Model.P
        ranking = rank(result.utilities)
        assert ranking.label() == "A1 > A2 > A3"

    def test_both_scales_reach_the_same_objective(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            x = rand_trfpr(rng, n)
            direct = derive_utility(x, Model.P).objective
            mapped = derive_utility_mult(to_multiplicative(x, 9)).objective
            assert abs(direct - mapped) <= 1e-7

    def test_weight_derivation_reference_values(self, ratio_relation, sigma_unit):
        result = derive_weights(ratio_relation, sigma_unit)
        assert result.model is Model.QSIGMA
        assert result.objective == pytest.approx(0.6, abs=1e-6)
        for comp in range(4):
            total = sum(u.components[comp] for u in result.utilities)
            assert total == pytest.approx(sigma_unit.components[comp], abs=1e-9)
        assert rank(result.utilities).label() == "A1 > A2 > A3"

    def test_weight_derivation_validates_the_target(self, ratio_relation):
        with pytest.raises(ValidationError):
            derive_weights(ratio_relation, TrFN(0.0, 0.9, 1.1, 1.2))

    def test_weight_target_above_the_limit_is_refused(self, ratio_relation):
        limit = re.escape(f"{MAX_SIGMA:g}")
        with pytest.raises(ValidationError, match=f"target is at most {limit}, got"):
            derive_weights(ratio_relation, TrFN(0.8, 0.9, 1.1, MAX_SIGMA * 1.001))

    def test_target_at_the_limit_solves_the_largest_relation(self):
        x = rand_trfpr(np.random.default_rng(2150), MAX_LP_ALTERNATIVES)
        sigma = SIGMA_AT_THE_LIMIT
        result = derive_utility(x, Model.PSIGMA, sigma)
        for comp in range(4):
            total = sum(u.components[comp] for u in result.utilities)
            assert total == pytest.approx(sigma.components[comp], rel=1e-9)

    @pytest.mark.parametrize("d, n, ratio", LARGE_TARGET_CASES, ids=LARGE_TARGET_IDS)
    def test_large_targets_solve_and_match_highs(self, d, n, ratio):
        pytest.importorskip("scipy.optimize")
        from test_lp_oracle import highs_optimum, lad_lp

        x = rand_trfpr(np.random.default_rng(9000 + n), n)
        relation = to_multiplicative(x, 9) if ratio else x
        sigma = TrFN(*(d * r for r in (2 / 3, 3 / 4, 11 / 12, 1.0)))
        result = derive_utility(relation, Model.PSIGMA, sigma)
        for comp in range(4):
            total = sum(u.components[comp] for u in result.utilities)
            assert total == pytest.approx(sigma.components[comp], rel=1e-9)
        additive = to_additive(relation) if ratio else x
        optimum = highs_optimum(lad_lp(additive, Model.PSIGMA, sigma, halved=False))
        assert abs(result.objective - optimum) <= 1e-9 * (1.0 + abs(optimum))


class TestFastPath:
    def test_consistent_relation_yields_zero_deviation(self, consistent_relation):
        result = fast_path_consistent(consistent_relation)
        assert result.objective <= 1e-12
        assert result.model is Model.P
        expected = tuple(consistent_relation.entry(i, 0) for i in range(3))
        assert result.utilities == expected

    def test_any_column_works(self, consistent_relation):
        for k in range(3):
            result = fast_path_consistent(consistent_relation, k=k)
            assert result.objective <= 1e-12
        same = fast_path_consistent(consistent_relation, k=np.int64(1))
        assert same == fast_path_consistent(consistent_relation, k=1)

    def test_fast_path_agrees_with_the_solver(self, consistent_relation):
        fast = fast_path_consistent(consistent_relation)
        solved = derive_utility(consistent_relation, Model.P)
        assert abs(fast.objective - solved.objective) <= 1e-9

    def test_inconsistent_relations_are_refused(self, base_relation):
        with pytest.raises(NotConsistentError):
            fast_path_consistent(base_relation)

    @pytest.mark.parametrize("k", [3, "1", None, 1.5, True])
    def test_column_index_is_validated(self, consistent_relation, k):
        with pytest.raises(ValidationError):
            fast_path_consistent(consistent_relation, k=k)

    def test_a_column_inside_the_accepted_band_is_clamped_into_model_p(self):
        # -1e-12 lies inside the relation's band around [0, 1], and every
        # relation of two alternatives is consistent.
        upper = np.zeros((2, 2, 4))
        upper[0, 1] = (-1e-12, 0.1, 0.1, 0.2)
        x = TrFPR.from_upper(upper, NeutralElement.additive(TrFN(0.4, 0.5, 0.5, 0.6)))
        result = fast_path_consistent(x, 1)
        assert result.utilities == (TrFN(0.0, 0.1, 0.1, 0.2), TrFN(0.4, 0.5, 0.5, 0.6))
        assert result.model is Model.P

    def test_relations_above_the_lp_size_limit_are_accepted(self):
        x = rand_consistent_trfpr(np.random.default_rng(42), MAX_LP_ALTERNATIVES + 9)
        assert fast_path_consistent(x).objective <= 1e-10

    def test_random_consistent_relations(self):
        rng = np.random.default_rng(39)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            x = rand_consistent_trfpr(rng, n)
            k = int(rng.integers(0, n))
            result = fast_path_consistent(x, k=k)
            assert result.objective <= 1e-10


class TestUtilityVectorInvariants:
    def test_negative_objective_is_rejected(self):
        with pytest.raises(ValidationError):
            UtilityVector((TrFN(0.1, 0.2, 0.3, 0.4),), -0.1, Model.P)

    def test_signed_model_rejects_negative_support(self):
        with pytest.raises(ValidationError):
            UtilityVector((TrFN(-0.1, 0.2, 0.3, 0.4),), 0.0, Model.P)

    def test_unit_model_rejects_support_past_one(self):
        with pytest.raises(ValidationError):
            UtilityVector((TrFN(0.1, 0.2, 0.3, 1.4),), 0.0, Model.PUNIT)

    def test_no_entries_are_rejected(self):
        with pytest.raises(ValidationError, match="^a utility vector needs at least one entry$"):
            UtilityVector((), 0.0, Model.P)

    def test_entries_must_be_trapezoids(self):
        with pytest.raises(ValidationError, match="^utility 2 is not a trapezoidal number$"):
            UtilityVector((TrFN(0.1, 0.2, 0.3, 0.4), (0.1, 0.2, 0.3, 0.4)), 0.0, Model.P)

    def test_free_model_allows_negative_support(self):
        u = UtilityVector((TrFN(-0.5, 0.2, 0.3, 0.4),), 0.0, Model.P0)
        assert u.utilities[0].a == -0.5

    def test_nan_objective_is_rejected(self):
        with pytest.raises(ValidationError, match="^objective=nan is not finite$"):
            UtilityVector((TrFN(0.1, 0.2, 0.3, 0.4),), float("nan"), Model.P)

    def test_objective_must_be_a_number(self):
        with pytest.raises(ValidationError, match="^objective='x' is not a real number$"):
            UtilityVector((TrFN(0.1, 0.2, 0.3, 0.4),), "x", Model.P)

    def test_model_must_be_a_model(self):
        with pytest.raises(ValidationError, match="^UtilityVector: expected a Model, got str$"):
            UtilityVector((TrFN(0.1, 0.2, 0.3, 0.4),), 0.0, "p")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), ratio=st.booleans(), data=st.data())
def test_relabelling_leaves_the_objective(seed, n, ratio, data):
    # Optimal vertices may differ between labellings; the optimum may not.
    x = rand_trfpr(np.random.default_rng(seed), n)
    if ratio:
        x = to_multiplicative(x, 9)
    y = relabel(x, data.draw(st.permutations(range(n))))
    for model in (Model.P0, Model.P, Model.PUNIT):
        gap = derive_utility(y, model).objective - derive_utility(x, model).objective
        assert abs(gap) <= 1e-12, (model, gap)
