"""Criteria-weighted ranking pipeline and the two mean-based baselines."""

import dataclasses

import numpy as np
import pytest

from fuzzylad import (
    MAX_LP_ALTERNATIVES,
    AhpProblem,
    IterationLimitError,
    MagWeights,
    SizeLimitError,
    TrFN,
    ValidationError,
    amm_weights,
    deviation,
    derive_weights,
    evaluate_objective,
    gmm_weights,
    magnitude,
    run_ahp,
    simplex,
    to_additive,
    to_multiplicative,
)
from conftest import rand_trfpr

PAPER_MAGNITUDES = (0.4082, 0.3699, 0.0652, 0.1567)

AMM_REFERENCE = (
    TrFN(0.1476, 0.2703, 0.3539, 0.6298),
    TrFN(0.2629, 0.4452, 0.5961, 0.9811),
    TrFN(0.0503, 0.0795, 0.1316, 0.2660),
    TrFN(0.0316, 0.0586, 0.0900, 0.1548),
)

GMM_REFERENCE = (
    TrFN(0.1344, 0.2727, 0.3195, 0.6846),
    TrFN(0.2390, 0.4850, 0.5845, 1.1136),
    TrFN(0.0491, 0.0846, 0.1167, 0.2421),
    TrFN(0.0327, 0.0602, 0.0873, 0.1572),
)


@pytest.fixture(scope="module")
def problem(portfolio):
    return AhpProblem(
        criteria_weights=portfolio["criteria_weights"],
        matrices=portfolio["matrices"],
        sigma=portfolio["sigma"],
    )


@pytest.fixture(scope="module")
def result(problem):
    return run_ahp(problem)


class TestProblemValidation:
    def test_weight_count_must_match_matrices(self, portfolio):
        with pytest.raises(ValidationError):
            AhpProblem(
                criteria_weights=(0.5, 0.5),
                matrices=portfolio["matrices"],
                sigma=portfolio["sigma"],
            )

    def test_weights_must_sum_to_one(self, portfolio):
        with pytest.raises(ValidationError):
            AhpProblem(
                criteria_weights=(0.5, 0.3, 0.3),
                matrices=portfolio["matrices"],
                sigma=portfolio["sigma"],
            )

    def test_weights_must_be_non_negative(self, portfolio):
        with pytest.raises(ValidationError):
            AhpProblem(
                criteria_weights=(0.7, 0.5, -0.2),
                matrices=portfolio["matrices"],
                sigma=portfolio["sigma"],
            )

    def test_weights_must_be_finite(self, portfolio):
        with pytest.raises(ValidationError, match="weight 2"):
            AhpProblem(
                criteria_weights=(0.5, float("nan"), 0.5),
                matrices=portfolio["matrices"],
                sigma=portfolio["sigma"],
            )

    def test_matrix_sizes_must_agree(self, portfolio, ratio_relation):
        with pytest.raises(ValidationError):
            AhpProblem(
                criteria_weights=(0.5, 0.3, 0.2),
                matrices=portfolio["matrices"][:2] + (ratio_relation,),
                sigma=portfolio["sigma"],
            )

    def test_magnitude_weights_must_be_mag_weights(self, portfolio):
        with pytest.raises(
            ValidationError, match="^magnitude weights must be MagWeights, got str$"
        ):
            AhpProblem(
                criteria_weights=portfolio["criteria_weights"],
                matrices=portfolio["matrices"],
                sigma=portfolio["sigma"],
                mag_weights="x",
            )

    def test_total_target_is_validated(self, portfolio):
        with pytest.raises(ValidationError):
            AhpProblem(
                criteria_weights=portfolio["criteria_weights"],
                matrices=portfolio["matrices"],
                sigma=TrFN(0.0, 0.9, 1.1, 1.2),
            )


class TestPipeline:
    def test_magnitudes_match_the_reference_study(self, result):
        for got, expected in zip(result.magnitudes, PAPER_MAGNITUDES):
            assert got == pytest.approx(expected, abs=5e-3)

    def test_ranking_label(self, result):
        assert result.ranking.label() == "A1 > A2 > A4 > A3"

    def test_magnitudes_and_objectives_are_read_from_the_ranking_and_local_weights(self, result):
        names = [f.name for f in dataclasses.fields(result)]
        assert names == ["local_weights", "global_weights", "ranking"]
        assert result.magnitudes == result.ranking.magnitudes
        assert result.per_criterion_objectives == tuple(v.objective for v in result.local_weights)

    def test_global_weights_are_the_weighted_sum_of_locals(self, result, portfolio):
        omegas = portfolio["criteria_weights"]
        for i, g in enumerate(result.global_weights):
            for comp in range(4):
                expected = sum(
                    omegas[k] * result.local_weights[k].utilities[i].components[comp]
                    for k in range(3)
                )
                assert g.components[comp] == pytest.approx(expected, abs=1e-12)

    def test_local_weights_satisfy_the_total_target(self, result, portfolio):
        sigma = portfolio["sigma"]
        for locals_k in result.local_weights:
            for comp in range(4):
                total = sum(w.components[comp] for w in locals_k.utilities)
                assert total == pytest.approx(sigma.components[comp], abs=1e-9)

    def test_per_criterion_objectives_are_optimal(self, result, portfolio):
        # Re-derive independently and compare.
        for k, y in enumerate(portfolio["matrices"]):
            redo = derive_weights(y, portfolio["sigma"])
            assert result.per_criterion_objectives[k] == pytest.approx(
                redo.objective, abs=1e-9
            )

    def test_first_criterion_objective_matches_the_reference(self, result):
        assert result.per_criterion_objectives[0] == pytest.approx(0.9823, abs=5e-3)

    def test_magnitudes_follow_from_global_weights(self, result, problem):
        for mag, w in zip(result.magnitudes, result.global_weights):
            assert mag == pytest.approx(magnitude(w, problem.mag_weights), abs=1e-12)

    def test_custom_magnitude_weights_flow_through(self, portfolio):
        custom = AhpProblem(
            criteria_weights=portfolio["criteria_weights"],
            matrices=portfolio["matrices"],
            sigma=portfolio["sigma"],
            mag_weights=MagWeights(0.25, 0.25),
        )
        res = run_ahp(custom)
        for mag, w in zip(res.magnitudes, res.global_weights):
            assert mag == pytest.approx(magnitude(w, MagWeights(0.25, 0.25)), abs=1e-12)


class TestSolverErrors:
    def test_pivot_budget_error_names_the_criterion_n_and_the_model(self, problem, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 5)
        with pytest.raises(IterationLimitError) as info:
            run_ahp(problem)
        assert str(info.value) == (
            "criterion 1: n = 4, model psigma: "
            "simplex pivot budget exhausted after 5 pivots in this phase"
        )

    def test_criteria_above_the_lp_size_limit_are_refused_naming_the_criterion(self, sigma_unit):
        n = MAX_LP_ALTERNATIVES + 1
        y = to_multiplicative(rand_trfpr(np.random.default_rng(16), n), 9)
        with pytest.raises(SizeLimitError) as info:
            run_ahp(AhpProblem((1.0,), (y,), sigma_unit))
        assert str(info.value) == (
            f"criterion 1: the deviation LP takes at most {MAX_LP_ALTERNATIVES} alternatives, "
            f"got {n}"
        )


class TestBaselines:
    def test_row_sum_weights_match_the_reference_table(self, portfolio):
        got = amm_weights(portfolio["matrices"][0])
        for w, expected in zip(got, AMM_REFERENCE):
            for u, v in zip(w, expected):
                assert u == pytest.approx(v, abs=5e-4)

    def test_geometric_mean_weights_match_the_reference_table(self, portfolio):
        got = gmm_weights(portfolio["matrices"][0])
        for w, expected in zip(got, GMM_REFERENCE):
            for u, v in zip(w, expected):
                assert u == pytest.approx(v, abs=5e-4)

    def test_reference_deviations(self, portfolio, sigma_unit):
        y1 = portfolio["matrices"][0]
        lad = derive_weights(y1, sigma_unit)
        assert lad.objective == pytest.approx(0.9823, abs=5e-3)
        assert deviation(y1, amm_weights(y1)) == pytest.approx(2.3955, abs=5e-3)
        assert deviation(y1, gmm_weights(y1)) == pytest.approx(2.6843, abs=5e-3)

    def test_derived_weights_never_lose_to_the_baselines(self, portfolio, sigma_unit):
        for y in portfolio["matrices"]:
            lad = derive_weights(y, sigma_unit).objective
            assert lad <= deviation(y, amm_weights(y)) + 1e-9
            assert lad <= deviation(y, gmm_weights(y)) + 1e-9

    def test_deviation_is_the_additive_objective(self, portfolio):
        y1 = portfolio["matrices"][0]
        weights = amm_weights(y1)
        assert deviation(y1, weights) == evaluate_objective(to_additive(y1), weights)

    def test_deviation_refuses_weights_that_are_not_trapezoids(self, portfolio):
        with pytest.raises(ValidationError, match="^utility 1 is not a trapezoidal number$"):
            deviation(portfolio["matrices"][0], (1, 2, 3, 4))

    def test_baseline_weights_are_positive_and_ordered(self, portfolio, ratio_relation):
        for y in portfolio["matrices"] + (ratio_relation,):
            for w in amm_weights(y) + gmm_weights(y):
                assert w.a > 0.0
                assert w.a <= w.b <= w.c <= w.d
