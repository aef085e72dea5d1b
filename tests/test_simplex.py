"""Dense two-phase simplex: known optima, random oracle, edge cases.

The oracle enumerates candidate vertices of box-bounded instances by
solving every square active set, filters them for feasibility, and takes
the best objective value.  Any disagreement beyond 1e-7 is a solver bug.
"""

import itertools

import numpy as np
import pytest

from fuzzylad import IterationLimitError, ValidationError, simplex
from fuzzylad.simplex import LinearProgram, LpStatus, _pivot, _subtract_rows, solve

N_ORACLE_TRIALS = 100


def brute_force_minimum(lp: LinearProgram, tol: float = 1e-9):
    """Best vertex value of a bounded-feasible LP, or None if infeasible."""
    n = lp.num_vars
    rows = [(np.asarray(r, dtype=float), float(b)) for r, b in zip(lp.a_ub, lp.b_ub)]
    for j, (lo, hi) in enumerate(lp.bounds):
        if np.isfinite(lo):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append((e, lo))
        if np.isfinite(hi):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append((e, hi))
    eq_rows = [(np.asarray(r, dtype=float), float(b)) for r, b in zip(lp.a_eq, lp.b_eq)]
    need = n - len(eq_rows)
    best = None
    for subset in itertools.combinations(range(len(rows)), need):
        a = np.array([r for r, _ in eq_rows] + [rows[s][0] for s in subset])
        rhs = np.array([b for _, b in eq_rows] + [rows[s][1] for s in subset])
        try:
            x = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.max(np.abs(a @ x - rhs)) > 1e-6:
            continue
        if lp.a_ub.size and np.any(lp.a_ub @ x > lp.b_ub + tol):
            continue
        if lp.a_eq.size and np.any(np.abs(lp.a_eq @ x - lp.b_eq) > tol):
            continue
        ok = True
        for j, (lo, hi) in enumerate(lp.bounds):
            if x[j] < lo - tol or x[j] > hi + tol:
                ok = False
                break
        if not ok:
            continue
        value = float(lp.c @ x)
        if best is None or value < best:
            best = value
    return best


def random_boxed_lp(rng):
    n = int(rng.integers(2, 7))
    m_ub = int(rng.integers(1, min(n + 2, 5)))
    lo = rng.uniform(-2.0, 0.0, size=n)
    hi = lo + rng.uniform(0.5, 3.0, size=n)
    center = (lo + hi) / 2.0
    a_ub = rng.normal(size=(m_ub, n))
    # Fixed-order sums, so the programs' data do not depend on the BLAS kernel.
    b_ub = np.cumsum(a_ub * center, axis=1)[:, -1] + rng.uniform(0.1, 2.0, size=m_ub)
    c = rng.normal(size=n)
    if rng.random() < 0.3:
        a_eq = rng.normal(size=(1, n))
        b_eq = np.cumsum(a_eq * center, axis=1)[:, -1]
    else:
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    bounds = tuple((float(l), float(h)) for l, h in zip(lo, hi))
    return LinearProgram(c, a_ub, b_ub, a_eq, b_eq, bounds)


class TestKnownOptima:
    def test_two_variable_textbook_instance(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
        lp = LinearProgram(
            c=[-1.0, -1.0],
            a_ub=[[1.0, 2.0], [3.0, 1.0]],
            b_ub=[4.0, 6.0],
        )
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-2.8, abs=1e-9)
        assert sol.x == pytest.approx([1.6, 1.2], abs=1e-9)

    def test_equality_constrained_instance(self):
        # min x + 2y + 3z s.t. x + y + z = 1, y - z = 0, all >= 0
        lp = LinearProgram(
            c=[1.0, 2.0, 3.0],
            a_eq=[[1.0, 1.0, 1.0], [0.0, 1.0, -1.0]],
            b_eq=[1.0, 0.0],
        )
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
        assert sol.x == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)

    def test_free_variable_reaches_a_negative_optimum(self):
        # min x with x free, x >= -5 imposed through a row, not a bound.
        lp = LinearProgram(
            c=[1.0],
            a_ub=[[-1.0]],
            b_ub=[5.0],
            bounds=[(-np.inf, np.inf)],
        )
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)

    def test_upper_bounded_variable(self):
        lp = LinearProgram(
            c=[-1.0, 0.0],
            a_ub=[[1.0, 1.0]],
            b_ub=[10.0],
            bounds=[(0.0, 3.0), (0.0, np.inf)],
        )
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)

    def test_two_sided_bounds_off_origin(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            bounds=[(1.5, 4.0), (-2.0, -1.0)],
        )
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x == pytest.approx([1.5, -2.0], abs=1e-9)
        assert sol.objective_value == pytest.approx(-0.5, abs=1e-9)

    def test_upper_bound_only_variable(self):
        # Variable may go arbitrarily negative; a row keeps it finite.
        lp = LinearProgram(
            c=[1.0],
            a_ub=[[-1.0]],
            b_ub=[2.0],
            bounds=[(-np.inf, 1.0)],
        )
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-9)

    def test_degenerate_cycling_instance_terminates(self):
        # Classic cycling example for the most-negative-cost rule; the
        # anti-cycling fallback must still reach the optimum -0.05.
        lp = LinearProgram(
            c=[-0.75, 150.0, -0.02, 6.0],
            a_ub=[
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            b_ub=[0.0, 0.0, 1.0],
        )
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)

    def test_redundant_rows_are_harmless(self):
        lp = LinearProgram(
            c=[-1.0, -2.0],
            a_ub=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
            b_ub=[1.0, 1.0, 2.0],
        )
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-9)

    def test_duplicate_equality_rows_are_harmless(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_eq=[[1.0, 1.0], [1.0, 1.0]],
            b_eq=[1.0, 1.0],
        )
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_fixed_variable_via_equal_bounds(self):
        lp = LinearProgram(
            c=[1.0, -1.0],
            a_ub=[[0.0, 1.0]],
            b_ub=[2.0],
            bounds=[(0.7, 0.7), (0.0, np.inf)],
        )
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(0.7, abs=1e-12)
        assert sol.objective_value == pytest.approx(0.7 - 2.0, abs=1e-9)


class TestClassification:
    def test_contradictory_rows_are_infeasible(self):
        lp = LinearProgram(
            c=[1.0],
            a_ub=[[1.0], [-1.0]],
            b_ub=[1.0, -2.0],
        )
        assert solve(lp).status is LpStatus.INFEASIBLE

    def test_row_conflicting_with_bounds_is_infeasible(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_ub=[[1.0, 1.0]],
            b_ub=[-1.0],
        )
        assert solve(lp).status is LpStatus.INFEASIBLE

    def test_empty_equality_system_conflict_is_infeasible(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_eq=[[1.0, 1.0], [1.0, 1.0]],
            b_eq=[1.0, 2.0],
        )
        assert solve(lp).status is LpStatus.INFEASIBLE

    def test_free_descent_direction_is_unbounded(self):
        lp = LinearProgram(
            c=[1.0],
            bounds=[(-np.inf, np.inf)],
        )
        assert solve(lp).status is LpStatus.UNBOUNDED

    def test_ray_in_a_cone_is_unbounded(self):
        lp = LinearProgram(
            c=[-1.0, -1.0],
            a_ub=[[1.0, -1.0]],
            b_ub=[1.0],
        )
        assert solve(lp).status is LpStatus.UNBOUNDED

    def test_omitted_blocks_are_empty_and_omitted_bounds_non_negative(self):
        lp = LinearProgram(c=[1.0])
        assert lp.a_ub.shape == (0, 1) and lp.b_ub.shape == (0,)
        assert lp.a_eq.shape == (0, 1) and lp.b_eq.shape == (0,)
        assert lp.bounds == ((0.0, np.inf),)
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == 0.0 and sol.x.tolist() == [0.0]
        assert not hasattr(LinearProgram, "build")

    def test_non_optimal_statuses_carry_no_point(self):
        lp = LinearProgram(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
        sol = solve(lp)
        assert sol.x is None
        assert sol.objective_value is None


PAIRS = r"bounds must be \(lower, upper\) pairs of real numbers"


class TestValidation:
    def test_width_mismatch_is_rejected(self):
        with pytest.raises(ValidationError):
            LinearProgram(c=[1.0, 2.0], a_ub=[[1.0, 2.0, 3.0]], b_ub=[1.0])

    @pytest.mark.parametrize(
        "a_ub, b_ub",
        [([[1, 2, 3], [4, 5, 6]], [1, 2, 3]), ([1, 2], [1]), ([[[1, 2]]], [1])],
        ids=["rows-of-three-re-read-as-pairs", "flat", "three-d"],
    )
    def test_a_block_must_have_one_column_per_variable(self, a_ub, b_ub):
        with pytest.raises(ValidationError, match="^constraint matrix width must match 2 variables$"):
            LinearProgram(c=[1, 1], a_ub=a_ub, b_ub=b_ub)
        with pytest.raises(ValidationError, match="^constraint matrix width must match 2 variables$"):
            LinearProgram(c=[1, 1], a_eq=a_ub, b_eq=b_ub)

    @pytest.mark.parametrize("block", [None, [], [[]], np.zeros((0, 2))])
    def test_an_omitted_or_empty_block_has_no_rows(self, block):
        lp = LinearProgram(c=[1, 1], a_ub=block, a_eq=block)
        assert lp.a_ub.shape == lp.a_eq.shape == (0, 2)

    def test_rhs_length_mismatch_is_rejected(self):
        with pytest.raises(ValidationError):
            LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[1.0, 2.0])

    def test_empty_objective_is_rejected(self):
        with pytest.raises(ValidationError, match="^objective must be a non-empty vector$"):
            LinearProgram(c=[])

    def test_equality_rhs_length_mismatch_is_rejected(self):
        with pytest.raises(ValidationError, match="^b_eq length must match a_eq row count$"):
            LinearProgram(c=[1.0], a_eq=[[1.0]], b_eq=[1.0, 2.0])

    def test_one_bound_pair_per_variable(self):
        with pytest.raises(ValidationError, match="^expected 2 bound pairs, got 1$"):
            LinearProgram(c=[1.0, 1.0], bounds=[(0.0, 1.0)])

    def test_non_finite_data_is_rejected(self):
        with pytest.raises(ValidationError):
            LinearProgram(c=[np.nan])
        with pytest.raises(ValidationError):
            LinearProgram(c=[1.0], a_ub=[[np.inf]], b_ub=[1.0])

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(c=["x"]), "c must be an array of real numbers"),
            (dict(c=[10**400]), "c must be an array of real numbers"),
            (dict(c=[1.0], a_ub=[[1.0]], b_ub=["x"]), "b_ub must be an array of real numbers"),
            (dict(c=[1.0], bounds=[(0, 1, 2)]), PAIRS),
            (dict(c=[1.0], bounds=[5]), PAIRS),
            (dict(c=[1.0], bounds=[(0,)]), PAIRS),
            (dict(c=[1.0], bounds=[("x", 1)]), PAIRS),
            (dict(c=[1.0], bounds=[(None, 1)]), PAIRS),
            (dict(c=[1.0], bounds=[(0, 10**400)]), PAIRS),
        ],
        ids=["c-text", "c-overflow", "b_ub-text", "triple", "scalar", "single", "text", "none",
             "overflow"],
    )
    def test_malformed_fields_are_refused_naming_the_field(self, fields, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            LinearProgram(**fields)

    def test_inverted_bounds_are_rejected(self):
        with pytest.raises(ValidationError):
            LinearProgram(c=[1.0], bounds=[(2.0, 1.0)])

    @pytest.mark.parametrize("bound", [(np.inf, np.inf), (-np.inf, -np.inf)])
    def test_infinite_bounds_pointing_the_wrong_way_are_rejected(self, bound):
        lo, hi = bound
        with pytest.raises(ValidationError, match=rf"^invalid bounds \({lo}, {hi}\) for variable 0$"):
            LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[1.0], bounds=[bound])

    def test_iteration_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
        lp = LinearProgram(
            c=[-1.0, -1.0, -1.0],
            a_ub=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]],
            b_ub=[1.0, 1.0, 1.0],
        )
        with pytest.raises(IterationLimitError):
            solve(lp)


class TestOracleAgreement:
    def test_random_boxed_instances_match_vertex_enumeration(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(N_ORACLE_TRIALS):
            lp = random_boxed_lp(rng)
            expected = brute_force_minimum(lp)
            sol = solve(lp)
            if expected is None:
                assert sol.status is LpStatus.INFEASIBLE
                continue
            assert sol.status is LpStatus.OPTIMAL
            scale = max(1.0, abs(expected))
            assert abs(sol.objective_value - expected) <= 1e-7 * scale
            # The reported point must actually attain the reported value
            # and satisfy every constraint.
            assert float(lp.c @ sol.x) == pytest.approx(
                sol.objective_value, abs=1e-9 * scale
            )
            if lp.a_ub.size:
                assert np.all(lp.a_ub @ sol.x <= lp.b_ub + 1e-7)
            if lp.a_eq.size:
                assert np.max(np.abs(lp.a_eq @ sol.x - lp.b_eq)) <= 1e-7
            for j, (lo, hi) in enumerate(lp.bounds):
                assert lo - 1e-9 <= sol.x[j] <= hi + 1e-9
            checked += 1
        assert checked >= N_ORACLE_TRIALS * 0.8

    def test_guaranteed_infeasible_random_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            lo = rng.uniform(-1.0, 0.0, size=n)
            hi = lo + rng.uniform(0.5, 2.0, size=n)
            e = np.zeros(n)
            e[0] = 1.0
            lp = LinearProgram(
                c=rng.normal(size=n),
                a_ub=[e],
                b_ub=[lo[0] - 1.0],
                bounds=tuple((float(l), float(h)) for l, h in zip(lo, hi)),
            )
            assert solve(lp).status is LpStatus.INFEASIBLE


class TestDeterminism:
    def test_repeat_solves_are_bitwise_identical(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            lp = random_boxed_lp(rng)
            first = solve(lp)
            second = solve(lp)
            assert first.status is second.status
            assert first.iterations == second.iterations
            if first.status is LpStatus.OPTIMAL:
                assert first.objective_value == second.objective_value
                assert np.array_equal(first.x, second.x)


class TestTableauKernels:
    """The pivot and the row subtraction against plain reference loops."""

    def test_pivot_matches_a_full_sweep(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            shape = (int(rng.integers(2, 30)), int(rng.integers(2, 40)))
            dense = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
            dense[rng.random(shape) < 0.7] = 0.0
            dense[rng.random(shape) < 0.1] = -0.0
            candidates = np.argwhere(dense != 0.0)
            if not len(candidates):
                continue
            row, col = candidates[rng.integers(len(candidates))]
            expected = dense.copy()
            expected[row] /= expected[row, col]
            column = expected[:, col].copy()
            column[row] = 0.0
            expected -= np.outer(column, expected[row])
            expected[:, col] = 0.0
            expected[row, col] = 1.0
            tableau = np.asfortranarray(dense)
            _pivot(tableau, int(row), int(col))
            # Exact equality; only the sign of a zero may differ.
            assert np.array_equal(tableau, expected)

    def test_subtract_rows_matches_a_plain_loop(self):
        rng = np.random.default_rng(46)
        shape = (301, 20)
        dense = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
        # More rows than one group of 32, taken in order with gaps.
        rows = np.flatnonzero(rng.random(shape[0] - 1) < 0.6)
        weights = rng.normal(size=rows.size) * 10.0 ** rng.integers(-3, 3, size=rows.size)
        expected = dense[-1].copy()
        for r, w in zip(rows, weights):
            expected = expected - w * dense[r]
        tableau = np.asfortranarray(dense)
        _subtract_rows(tableau, rows, weights)
        assert np.array_equal(tableau[-1], expected)
        assert np.array_equal(tableau[:-1], dense[:-1])
        _subtract_rows(tableau, rows[:0], weights[:0])
        assert np.array_equal(tableau[-1], expected)
