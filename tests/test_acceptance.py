"""Acceptance suite: frozen reference values, large property sweeps, and
independent oracles.

Each criterion is one test that prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -s`` to see the lines as they appear).
Reference numbers are frozen here on purpose; they must not be computed
with the library under test.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fuzzylad import (
    AhpProblem,
    GroupWeights,
    LinearProgram,
    LpStatus,
    Model,
    TrFN,
    add,
    aggregate_relations,
    amm_weights,
    check_consistency,
    check_consistency_mult,
    crisp,
    derive_utility,
    derive_weights,
    deviation,
    evaluate_objective,
    from_utilities,
    gmm_weights,
    invert,
    magnitude,
    negate,
    rank,
    run_ahp,
    to_additive,
    to_multiplicative,
    verify_bounds,
)
from fuzzylad.simplex import solve
from conftest import (
    lattice_value,
    rand_consistent_trfpr,
    rand_neutral,
    rand_trfn,
    rand_trfpr,
)
from test_simplex import brute_force_minimum, random_boxed_lp

# Frozen reference outputs for the portfolio walkthrough: expected utility
# magnitudes of the global weights, the reference local weight vectors per
# criterion, the mean-method weight vectors for the first criterion, and
# the deviations of all three methods on that matrix.
REFERENCE_MAGNITUDES = (0.4082, 0.3699, 0.0652, 0.1567)
REFERENCE_RANKING = "A1 > A2 > A4 > A3"
REFERENCE_LOCAL_WEIGHTS = (
    (
        (0.3000, 0.3291, 0.3713, 0.3713),
        (0.4577, 0.4868, 0.4868, 0.5073),
        (0.0423, 0.0790, 0.1628, 0.2423),
        (0.0000, 0.0051, 0.0791, 0.0791),
    ),
    (
        (0.3711, 0.3711, 0.5155, 0.5712),
        (0.1500, 0.2134, 0.2134, 0.2577),
        (0.0000, 0.0000, 0.0000, 0.0000),
        (0.2789, 0.3155, 0.3711, 0.3711),
    ),
    (
        (0.4244, 0.4996, 0.4996, 0.5732),
        (0.2667, 0.2667, 0.3667, 0.3667),
        (0.0000, 0.0004, 0.0248, 0.0512),
        (0.1089, 0.1333, 0.2089, 0.2089),
    ),
)
AMM_REFERENCE = (
    (0.1476, 0.2703, 0.3539, 0.6298),
    (0.2629, 0.4452, 0.5961, 0.9811),
    (0.0503, 0.0795, 0.1316, 0.2660),
    (0.0316, 0.0586, 0.0900, 0.1548),
)
GMM_REFERENCE = (
    (0.1344, 0.2727, 0.3195, 0.6846),
    (0.2390, 0.4850, 0.5845, 1.1136),
    (0.0491, 0.0846, 0.1167, 0.2421),
    (0.0327, 0.0602, 0.0873, 0.1572),
)
REFERENCE_DEVIATIONS = {"lad": 0.9823, "amm": 2.3955, "gmm": 2.6843}


@contextmanager
def _criterion(number, description):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"criterion {number}: FAIL - {description}", flush=True)
        raise
    line = f"criterion {number}: PASS - {description}"
    if info.get("detail"):
        line += f" ({info['detail']})"
    print(line, flush=True)


def test_criterion_1_reference_utility_derivation(base_relation):
    with _criterion(1, "unit-bounded utility on the reference relation") as info:
        start = time.perf_counter()
        result = derive_utility(base_relation, Model.PUNIT)
        elapsed = time.perf_counter() - start
        assert result.objective == pytest.approx(0.2, abs=1e-6)
        label = rank(result.utilities).label()
        assert label == "A1 > A2 > A3"
        assert elapsed < 1.0
        info["detail"] = f"objective {result.objective:.6f}, ranking {label}, {elapsed * 1000:.0f} ms"


def test_criterion_2_reference_weight_derivation(ratio_relation, base_relation, sigma_unit):
    with _criterion(2, "normalized weights on the ratio-scale relation") as info:
        weights = derive_weights(ratio_relation, sigma_unit)
        assert weights.objective == pytest.approx(0.6, abs=1e-6)
        additive_path = derive_utility(base_relation, Model.P).objective
        ratio_path = derive_utility(to_additive(ratio_relation), Model.P).objective
        assert abs(additive_path - ratio_path) <= 1e-7
        info["detail"] = (
            f"objective {weights.objective:.6f}, "
            f"path gap {abs(additive_path - ratio_path):.2e}"
        )


def test_criterion_3_portfolio_case_study(portfolio):
    with _criterion(3, "three-criterion portfolio pipeline") as info:
        start = time.perf_counter()
        problem = AhpProblem(
            portfolio["criteria_weights"], portfolio["matrices"], portfolio["sigma"]
        )
        result = run_ahp(problem)
        elapsed = time.perf_counter() - start
        for got, want in zip(result.magnitudes, REFERENCE_MAGNITUDES):
            assert got == pytest.approx(want, abs=5e-3)
        assert result.ranking.label() == REFERENCE_RANKING
        # The LPs admit optimal faces, so the reference vectors need only be
        # matched up to an equally good alternative: componentwise agreement,
        # or the reference vector must not score a strictly lower deviation.
        matched = 0
        for k, reference in enumerate(REFERENCE_LOCAL_WEIGHTS):
            ours = result.local_weights[k]
            exact = all(
                abs(t.components[c] - reference[i][c]) <= 5e-4
                for i, t in enumerate(ours.utilities)
                for c in range(4)
            )
            if exact:
                matched += 1
                continue
            candidate = tuple(TrFN(*row) for row in reference)
            x_add = to_additive(portfolio["matrices"][k])
            candidate_objective = evaluate_objective(x_add, candidate)
            assert candidate_objective >= ours.objective - 1e-6
        assert elapsed < 5.0
        objectives = ", ".join(f"{z:.4f}" for z in result.per_criterion_objectives)
        info["detail"] = (
            f"objectives [{objectives}], ranking {result.ranking.label()}, "
            f"{matched}/3 vectors matched componentwise, {elapsed:.2f} s"
        )


def test_criterion_4_mean_baseline_comparison(portfolio, sigma_unit):
    with _criterion(4, "arithmetic and geometric mean baselines") as info:
        y1 = portfolio["matrices"][0]
        amm = amm_weights(y1)
        gmm = gmm_weights(y1)
        for got, want in zip(amm, AMM_REFERENCE):
            assert got.components == pytest.approx(want, abs=5e-4)
        for got, want in zip(gmm, GMM_REFERENCE):
            assert got.components == pytest.approx(want, abs=5e-4)
        dev_lad = derive_weights(y1, sigma_unit).objective
        dev_amm = deviation(y1, amm)
        dev_gmm = deviation(y1, gmm)
        assert dev_lad == pytest.approx(REFERENCE_DEVIATIONS["lad"], abs=5e-3)
        assert dev_amm == pytest.approx(REFERENCE_DEVIATIONS["amm"], abs=5e-3)
        assert dev_gmm == pytest.approx(REFERENCE_DEVIATIONS["gmm"], abs=5e-3)
        assert dev_lad <= dev_amm <= dev_gmm
        info["detail"] = f"deviations {dev_lad:.4f} <= {dev_amm:.4f} <= {dev_gmm:.4f}"


def test_criterion_5_property_sweeps():
    with _criterion(5, "randomized property sweeps, 200 trials each") as info:
        suites = []

        # Negation and inversion are involutions; the magnitude of a negated
        # trapezoid mirrors around one half; any neutral element scores 0.5.
        rng = np.random.default_rng(101)
        for _ in range(200):
            t = rand_trfn(rng, 0.05, 0.95, lattice=True)
            assert negate(negate(t)).components == t.components
            assert abs(magnitude(negate(t)) - (1.0 - magnitude(t))) <= 1e-12
            p = rand_trfn(rng, 1.0 / 9.0, 9.0)
            back = invert(invert(p))
            for got, want in zip(back.components, p.components):
                assert got == pytest.approx(want, rel=1e-12)
            assert abs(magnitude(rand_neutral(rng, lattice=True).value) - 0.5) <= 1e-15
        suites.append("algebra")

        # The scale bijection round-trips and preserves the consistency
        # verdict on both a narrow and a wide ratio scale.
        rng = np.random.default_rng(102)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            if trial % 2 == 0:
                x = rand_consistent_trfpr(rng, n)
            else:
                x = rand_trfpr(rng, n)
            for m in (2, 9):
                y = to_multiplicative(x, m)
                back = to_additive(y)
                for i in range(n):
                    for j in range(n):
                        assert back.entry(i, j).components == pytest.approx(
                            x.entry(i, j).components, abs=1e-12
                        )
                assert (
                    check_consistency_mult(y).consistent
                    == check_consistency(x).consistent
                )
        suites.append("scale map")

        # A zero optimum is equivalent to consistency, and on consistent
        # relations the derived utilities reproduce every pairwise verdict
        # through the magnitude gap.
        rng = np.random.default_rng(103)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            if trial % 2 == 0:
                x = rand_consistent_trfpr(rng, n)
            else:
                x = rand_trfpr(rng, n)
            consistent = check_consistency(x).consistent
            result = derive_utility(x, Model.P)
            if consistent:
                assert result.objective <= 1e-7
                mags = [magnitude(u) for u in result.utilities]
                for i in range(n):
                    for j in range(n):
                        gap = mags[i] - mags[j]
                        want = magnitude(x.entry(i, j)) - 0.5
                        assert abs(gap - want) <= 1e-7
            else:
                assert result.objective > 1e-7
        suites.append("zero-objective")

        # Shifting every utility by the same crisp constant leaves the
        # evaluated objective bitwise unchanged on dyadic data.
        rng = np.random.default_rng(104)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            x = rand_trfpr(rng, n, lattice=True)
            utilities = tuple(rand_trfn(rng, lattice=True) for _ in range(n))
            delta = crisp(lattice_value(rng, 0.0, 0.5))
            shifted = tuple(add(u, delta) for u in utilities)
            assert evaluate_objective(x, shifted) == evaluate_objective(x, utilities)
        suites.append("shift invariance")

        # Group bounds sandwich the aggregate optimum, and aggregation
        # commutes with rebuilding a relation from combined utilities.
        rng = np.random.default_rng(105)
        for _ in range(200):
            n = int(rng.integers(2, 4))
            neutral = rand_neutral(rng)
            experts = tuple(
                rand_consistent_trfpr(rng, n, neutral)
                if rng.random() < 0.5
                else rand_trfpr(rng, n, neutral)
                for _ in range(2)
            )
            lam = float(rng.uniform(0.0, 1.0))
            report = verify_bounds(experts, GroupWeights((lam, 1.0 - lam)))
            assert report.holds
            assert report.z_star_agg <= report.z_agg_at_uc + 1e-7
            assert report.z_agg_at_uc <= report.weighted_sum + 1e-7
        rng = np.random.default_rng(106)
        for _ in range(200):
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
            merged_relation = aggregate_relations(
                tuple(from_utilities(g, neutral) for g in groups), weights
            )
            merged_utilities = tuple(
                TrFN(
                    *(
                        lam * groups[0][i].components[c]
                        + (1.0 - lam) * groups[1][i].components[c]
                        for c in range(4)
                    )
                )
                for i in range(n)
            )
            rebuilt = from_utilities(merged_utilities, neutral)
            for i in range(n):
                for j in range(n):
                    assert merged_relation.entry(i, j).components == pytest.approx(
                        rebuilt.entry(i, j).components, abs=1e-12
                    )
        suites.append("group bounds")

        info["detail"] = ", ".join(suites)


GRID = np.linspace(0.0, 1.0, 21)
GRID_TUPLES = np.array(
    list(itertools.combinations_with_replacement(range(21), 4)), dtype=np.intp
)
# Component a of cell (i, j) compares u_i[a] with u_j[3 - a], so the objective
# splits into a part in components 0 and 3 and a part in components 1 and 2.
# OUTER and INNER give each grid tuple's index into the two parts' tables.
OUTER = len(GRID) * GRID_TUPLES[:, 0] + GRID_TUPLES[:, 3]
INNER = len(GRID) * GRID_TUPLES[:, 1] + GRID_TUPLES[:, 2]


def _grid_objective(x, t1, t2):
    """Objective at a candidate pair, straight from the deviation recipe."""
    t0 = x.neutral.value.components
    total = 0.0
    pairs = (((0, 0), t1, t1), ((0, 1), t1, t2), ((1, 0), t2, t1), ((1, 1), t2, t2))
    for (i, j), u_i, u_j in pairs:
        cell = x.entry(i, j).components
        for a in range(4):
            k = cell[a] + t0[a] - 1.0
            total += abs(k - u_i.components[a] + u_j.components[3 - a])
    return 0.25 * total


def _grid_tables(x):
    """``(outer, inner)``: the objective at grid tuples ``(s, t)`` is
    ``0.25 * (outer[OUTER[s], OUTER[t]] + inner[INNER[s], INNER[t]])``."""
    t0 = x.neutral.value.components

    def dev(i, j, a):
        """Cell (i, j) component a's deviation, by grid index of u_i[a] and u_j[3 - a]."""
        k = x.entry(i, j).components[a] + t0[a] - 1.0
        return np.abs(k - GRID[:, None] + GRID[None, :])

    tables = []
    for a, b in ((0, 3), (1, 2)):
        # Axes: first trapezoid's components a and b, then the second's.
        terms = (
            dev(0, 0, a)[:, :, None, None] + dev(0, 0, b).T[:, :, None, None]
            + dev(1, 1, a)[None, None] + dev(1, 1, b).T[None, None]
            + dev(0, 1, a)[:, None, None, :] + dev(0, 1, b)[None, :, :, None]
            + dev(1, 0, a).T[None, :, :, None] + dev(1, 0, b).T[:, None, None, :]
        )
        tables.append(terms.reshape(len(GRID) ** 2, len(GRID) ** 2))
    return tables


def _grid_minimum(x, chunk=256):
    """Exhaustive minimum over every ordered 0.05-grid pair of trapezoids."""
    outer, inner = _grid_tables(x)
    # One row per first trapezoid; columns are gathered per chunk of second ones.
    rows_outer, rows_inner = outer[OUTER], inner[INNER]
    best = np.inf
    for lo in range(0, len(GRID_TUPLES), chunk):
        block = np.take(rows_outer, OUTER[lo : lo + chunk], axis=1)
        block += np.take(rows_inner, INNER[lo : lo + chunk], axis=1)
        best = min(best, block.min())
    return 0.25 * best


def test_criterion_6_exhaustive_grid_oracle():
    with _criterion(6, "two-alternative grid search never beats the optimizer") as info:
        start = time.perf_counter()
        rng = np.random.default_rng(107)
        # The vectorized search must agree with the scalar recipe before
        # its verdict counts for anything.
        probe = rand_trfpr(rng, 2)
        outer, inner = _grid_tables(probe)
        for _ in range(200):
            s, t = rng.integers(0, len(GRID_TUPLES), size=2)
            t1 = TrFN(*GRID[GRID_TUPLES[s]])
            t2 = TrFN(*GRID[GRID_TUPLES[t]])
            assert abs(
                _grid_objective(probe, t1, t2) - evaluate_objective(probe, (t1, t2))
            ) <= 1e-10
            tabled = 0.25 * (outer[OUTER[s], OUTER[t]] + inner[INNER[s], INNER[t]])
            assert abs(tabled - _grid_objective(probe, t1, t2)) <= 1e-10
        gaps = []
        for kind in ("generic", "generic", "consistent"):
            if kind == "generic":
                x = rand_trfpr(rng, 2)
            else:
                x = rand_consistent_trfpr(rng, 2)
            lp_value = derive_utility(x, Model.P).objective
            grid_value = _grid_minimum(x)
            assert grid_value >= lp_value - 1e-7
            if kind == "consistent":
                # With a zero optimum, some grid pair must sit within the
                # resolution bound, or the search is not really looking.
                assert grid_value <= 0.4
            gaps.append(grid_value - lp_value)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        info["detail"] = (
            f"{len(GRID_TUPLES)} candidate trapezoids per side, "
            f"gaps {', '.join(f'{g:.2e}' for g in gaps)}, {elapsed:.1f} s"
        )


def test_criterion_7_lp_solver_oracles():
    with _criterion(7, "simplex agrees with a vertex-enumeration oracle") as info:
        rng = np.random.default_rng(108)
        solved = 0
        for _ in range(100):
            lp = random_boxed_lp(rng)
            sol = solve(lp)
            oracle = brute_force_minimum(lp)
            if oracle is None:
                assert sol.status is LpStatus.INFEASIBLE
                continue
            assert sol.status is LpStatus.OPTIMAL
            scale = max(1.0, abs(oracle))
            assert abs(sol.objective_value - oracle) <= 1e-7 * scale
            solved += 1
        assert solved >= 80

        infeasible = LinearProgram(
            c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0]
        )
        assert solve(infeasible).status is LpStatus.INFEASIBLE
        unbounded = LinearProgram(
            c=[-1.0, -1.0], a_ub=[[1.0, -1.0]], b_ub=[1.0]
        )
        assert solve(unbounded).status is LpStatus.UNBOUNDED

        degenerate = LinearProgram(
            c=[-0.75, 150.0, -0.02, 6.0],
            a_ub=[
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            b_ub=[0.0, 0.0, 1.0],
        )
        sol = solve(degenerate)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)
        info["detail"] = f"{solved}/100 instances solved to optimality, rest infeasible"
