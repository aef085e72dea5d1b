"""Tests for the benchmark's own logic: inputs, spans and the tail rule."""

import collections

import numpy as np
import pytest

import fuzzylad
from fuzzylad import TrFPR, TrMPR, check_consistency

import inputs
import spans
from oracle import max_violation
from percentiles import percentile, tail_percentile

SEEDS = [0, 1, 7, 12345]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_relations_are_valid_and_inconsistent(seed):
    rng = np.random.default_rng(seed)
    for n in (3, 5, 7):
        x = inputs.rand_relation(rng, n)
        assert isinstance(x, TrFPR) and x.n == n
        assert not check_consistency(x).consistent
        y = inputs.rand_ratio_relation(rng, n)
        assert isinstance(y, TrMPR) and y.scale == inputs.SCALE


@pytest.mark.parametrize("seed", SEEDS)
def test_consistent_relations_pass_the_triple_scan(seed):
    rng = np.random.default_rng(seed)
    neutral = inputs.rand_neutral(rng)
    for n in (16, 24):
        x = inputs.rand_consistent(rng, n, neutral)
        assert x.neutral == neutral
        assert check_consistency(x).consistent


@pytest.mark.parametrize("seed", SEEDS)
def test_criteria_weights_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    for count in range(3, 8):
        weights = inputs.rand_criteria_weights(rng, count)
        assert len(weights) == count and min(weights) > 0.0
        assert abs(sum(weights) - 1.0) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_relations_with_a_shared_neutral_element_merge(seed):
    rng = np.random.default_rng(seed)
    neutral = inputs.rand_neutral(rng)
    experts = tuple(inputs.rand_relation(rng, 5, neutral) for _ in range(3))
    assert all(x.neutral == neutral for x in experts)
    weights = fuzzylad.GroupWeights(inputs.rand_criteria_weights(rng, 3))
    merged = fuzzylad.aggregate_relations(experts, weights)
    assert isinstance(merged, TrFPR) and merged.n == 5


def test_same_seed_gives_same_inputs():
    a = inputs.rand_relation(np.random.default_rng(5), 4)
    b = inputs.rand_relation(np.random.default_rng(5), 4)
    assert a.entries == b.entries and a.neutral == b.neutral


@pytest.mark.parametrize("seed", SEEDS)
def test_kind_sequence_blocks_hold_every_kind_once(seed):
    kinds = list(range(9))
    picks = inputs.kind_sequence(np.random.default_rng(seed), kinds, 500)
    for block in range(500 // 9):
        assert sorted(picks[9 * block : 9 * block + 9]) == kinds
    for length in (4, 50, 137, 500):
        counts = collections.Counter(picks[:length])
        assert all(abs(counts[k] - length / len(kinds)) <= 1.0 for k in kinds)
    # Inside a block, a prefix splits evenly between the lower and upper kinds.
    for length in range(2, 10):
        low = sum(k < 4.5 for k in picks[:length])
        assert abs(low - length / 2) <= 1.0


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_written_problem_files_load_back(tmp_path, seed):
    rng = np.random.default_rng(seed)
    x = inputs.rand_relation(rng, 4)
    inputs.write_problem(tmp_path / "a.json", x)
    assert fuzzylad.load_problem(tmp_path / "a.json").relation == x
    neutral = inputs.rand_neutral(rng)
    matrices = tuple(inputs.rand_ratio_relation(rng, 4, neutral) for _ in range(3))
    inputs.write_ahp_problem(tmp_path / "h.json", matrices, inputs.rand_criteria_weights(rng, 3))
    assert fuzzylad.load_problem(tmp_path / "h.json").matrices == matrices


def test_independent_triple_scan_matches_the_package():
    rng = np.random.default_rng(3)
    x = inputs.rand_relation(rng, 5)
    assert max_violation(x, False) == pytest.approx(check_consistency(x).max_violation, abs=1e-12)
    y = inputs.rand_ratio_relation(rng, 5)
    expected = fuzzylad.check_consistency_mult(y).max_violation
    assert max_violation(y, True) == pytest.approx(expected, rel=1e-12)


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span("a.outer", 0.0, 10.0),
        _span("b.child", 1.0, 3.0, 0),
        _span("b.overlap", 2.0, 4.0, 0),
        _span("c.grandchild", 1.5, 2.5, 1),
        _span("b.late", 8.0, 10.0, 0),
    ]
    assert spans.self_times(recorded) == pytest.approx([5.0, 1.0, 2.0, 1.0, 2.0])


def test_recorder_nests_spans_and_skips_calls_outside_requests():
    recorder = spans.Recorder()
    inner = recorder.wrap("x.inner", lambda v: v + 1)
    outer = recorder.wrap("y.outer", lambda v: inner(v) * 2, lambda a, k, r: {"result": r})
    assert outer(1) == 4 and recorder.spans == []
    recorder.begin_request(7)
    assert outer(2) == 6
    recorder.end_request()
    first, second = recorder.spans
    assert (first.name, first.parent, first.request, first.info) == ("y.outer", None, 7, {"result": 6})
    assert (second.name, second.parent, second.layer) == ("x.inner", 0, "x")
    assert first.start <= second.start <= second.end <= first.end


def test_install_rebinds_names_imported_into_other_modules():
    original = fuzzylad.simplex.solve
    recorder = spans.Recorder()
    undo = spans.install(recorder, [("fuzzylad.simplex", "solve", "simplex.solve", None)])
    try:
        assert fuzzylad.lad.solve is fuzzylad.simplex.solve is not original
    finally:
        spans.uninstall(undo)
    assert fuzzylad.lad.solve is original and fuzzylad.simplex.solve is original


@pytest.mark.parametrize(
    "count, expected",
    [(10, None), (11, 9.0), (20, 50.0), (35, 71.4), (100, 90.0), (1000, 99.0), (2000, 99.5)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        values = list(range(count))
        beyond = sum(v > percentile(values, expected) for v in values)
        assert beyond >= 10
        assert sum(v > percentile(values, expected + 0.1) for v in values) < 10


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99.5) == 100.0
    assert percentile([3.0], 50) == 3.0
