"""Every public function computes on a relation with its own kind's rules.

Each case calls one function on one kind of relation.  An accepted call
must equal, bit for bit, the explicit path through the additive image that
it stands for; a refused call raises ValidationError naming the kind it
expected.  The qsigma label is refused as a model on either kind.  Every
other public callable refuses an argument of the wrong type in the same way.
"""

import inspect
import re
from dataclasses import replace
from pathlib import Path

import pytest

import fuzzylad
from fuzzylad import (
    AhpProblem,
    GroupWeights,
    Model,
    NotConsistentError,
    ParseError,
    TrFN,
    TrFPR,
    ValidationError,
    aggregate_relations,
    amm_weights,
    build_lp,
    check_consistency,
    check_consistency_mult,
    derive_utility,
    deviation,
    derive_utility_mult,
    derive_weights,
    evaluate_objective,
    fast_path_consistent,
    from_utilities,
    gmm_weights,
    load_problem,
    magnitude,
    rank,
    to_additive,
    to_multiplicative,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
SIGMA = TrFN(0.8, 0.9, 1.1, 1.2)
UTILITIES = (TrFN(0.1, 0.2, 0.3, 0.4), TrFN(0.2, 0.3, 0.3, 0.5), TrFN(0.0, 0.1, 0.2, 0.2))


def relation(kind: str, name: str | None = None):
    """A shipped relation of ``kind``: example-additive or example-ratio by default."""
    name = name or {"additive": "example-additive", "multiplicative": "example-ratio"}[kind]
    loaded = load_problem(PROBLEMS / f"{name}.json").relation
    if loaded.neutral.kind == kind:
        return loaded
    return to_additive(loaded) if kind == "additive" else to_multiplicative(loaded, 9)


def same(a, b) -> None:
    """Bit-for-bit equality of results: reprs print every float exactly."""
    assert repr(a) == repr(b)


def same_lp(a, b) -> None:
    for field in ("c", "a_ub", "b_ub", "a_eq", "b_eq"):
        left, right = getattr(a, field), getattr(b, field)
        assert left.shape == right.shape and left.tobytes() == right.tobytes(), field
    assert a.bounds == b.bounds


def check_consistency_case(y):
    report = check_consistency(y)
    same(report, check_consistency_mult(y))
    assert report.worst_triple == (0, 2, 1)
    assert report.max_violation == pytest.approx(2.2274, abs=1e-4)


def check_consistency_mult_case(x):
    same(check_consistency_mult(x), check_consistency(x))


def derive_utility_p_case(y):
    result = derive_utility(y, Model.P)
    same(result, derive_utility_mult(y))
    same(result, derive_utility(to_additive(y), Model.P))
    assert result.objective == pytest.approx(0.2, abs=1e-6)


def derive_utility_psigma_case(y):
    result = derive_utility(y, Model.PSIGMA, SIGMA)
    assert result.model is Model.QSIGMA
    same(result, derive_weights(y, SIGMA))
    additive = derive_utility(to_additive(y), Model.PSIGMA, SIGMA)
    same(result, replace(additive, model=Model.QSIGMA))


def derive_weights_case(x):
    result = derive_weights(x, SIGMA)
    assert result.model is Model.PSIGMA
    same(result, derive_utility(x, Model.PSIGMA, SIGMA))


def evaluate_objective_case(y):
    same(evaluate_objective(y, UTILITIES), evaluate_objective(to_additive(y), UTILITIES))


def build_lp_case(y):
    for model in (Model.P0, Model.P, Model.PUNIT, Model.PSIGMA):
        sigma = SIGMA if model is Model.PSIGMA else None
        same_lp(build_lp(y, model, sigma), build_lp(to_additive(y), model, sigma))


def build_lp_qsigma_case(x):
    for sigma in (None, SIGMA):
        refusal = "^model qsigma labels results; derive with model psigma$"
        with pytest.raises(ValidationError, match=refusal):
            build_lp(x, Model.QSIGMA, sigma)


def fast_path_case(y):
    with pytest.raises(NotConsistentError, match=re.escape(check_consistency_mult(y).describe())):
        fast_path_consistent(y)
    consistent = relation("multiplicative", "example-additive-consistent")
    same(fast_path_consistent(consistent, 1), fast_path_consistent(to_additive(consistent), 1))


def refused(call, expected: str):
    def case(x):
        with pytest.raises(ValidationError, match=f"expected {expected} relation"):
            call(x)

    return case


CASES = {
    ("check_consistency", "multiplicative"): check_consistency_case,
    ("check_consistency_mult", "additive"): check_consistency_mult_case,
    ("derive_utility-p", "multiplicative"): derive_utility_p_case,
    ("derive_utility-psigma", "multiplicative"): derive_utility_psigma_case,
    ("derive_weights", "additive"): derive_weights_case,
    ("evaluate_objective", "multiplicative"): evaluate_objective_case,
    ("build_lp", "multiplicative"): build_lp_case,
    ("build_lp-qsigma", "additive"): build_lp_qsigma_case,
    ("build_lp-qsigma", "multiplicative"): build_lp_qsigma_case,
    ("fast_path_consistent", "multiplicative"): fast_path_case,
    ("aggregate_relations", "multiplicative"): refused(
        lambda y: aggregate_relations((y, y), GroupWeights((0.5, 0.5))), "an additive"
    ),
    ("to_additive", "additive"): refused(to_additive, "a multiplicative"),
    ("to_multiplicative", "multiplicative"): refused(
        lambda y: to_multiplicative(y, 9), "an additive"
    ),
    ("amm_weights", "additive"): refused(amm_weights, "a multiplicative"),
    ("gmm_weights", "additive"): refused(gmm_weights, "a multiplicative"),
    ("AhpProblem", "additive"): refused(
        lambda x: AhpProblem((1.0,), (x,), SIGMA), "a multiplicative"
    ),
}


@pytest.mark.parametrize("function, kind", list(CASES), ids=[f"{f}-{k}" for f, k in CASES])
def test_each_kind_takes_its_own_path(function, kind):
    CASES[function, kind](relation(kind))


# A door that takes a relation, called on something else, and the function
# its refusal names: the one that checks, which for derive_weights and
# deviation is the function they delegate to.
NOT_A_RELATION = {
    "derive_utility": (lambda: derive_utility("x"), "derive_utility", "str"),
    "derive_weights": (lambda: derive_weights("x", SIGMA), "derive_utility", "str"),
    "build_lp": (lambda: build_lp("x", Model.P), "build_lp", "str"),
    "evaluate_objective": (
        lambda: evaluate_objective([[1]], UTILITIES), "evaluate_objective", "list"
    ),
    "deviation": (lambda: deviation("x", UTILITIES), "evaluate_objective", "str"),
    "fast_path_consistent": (lambda: fast_path_consistent("x"), "fast_path_consistent", "str"),
    "check_consistency": (lambda: check_consistency([[1]]), "check_consistency", "list"),
    "check_consistency_mult": (
        lambda: check_consistency_mult(None), "check_consistency_mult", "NoneType"
    ),
}


@pytest.mark.parametrize("door", list(NOT_A_RELATION))
def test_each_door_refuses_what_is_not_a_relation(door):
    call, checker, got = NOT_A_RELATION[door]
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == f"{checker}: expected a preference relation, got {got}"


# Every public callable but the exception classes and the two Enums, whose
# constructors raise ValueError by the Enum protocol.
SWEPT = [
    name
    for name in fuzzylad.__all__
    if callable(obj := getattr(fuzzylad, name))
    and not (isinstance(obj, type) and issubclass(obj, Exception))
    and name not in ("Model", "LpStatus")
]


@pytest.mark.parametrize("filler", [5, object()], ids=["int", "object"])
@pytest.mark.parametrize("name", SWEPT)
def test_each_public_callable_returns_or_refuses_a_wrong_argument_type(name, filler):
    function = getattr(fuzzylad, name)
    required = [
        p
        for p in inspect.signature(function).parameters.values()
        if p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    try:
        function(*[filler] * len(required))
    except (ValidationError, ParseError):
        pass


# Wrong types the sweep cannot reach, because an earlier argument's refusal
# comes first when every argument is wrong; each call takes a relation.
BEHIND_A_VALID_ARGUMENT = {
    "evaluate_objective": (
        lambda x: evaluate_objective(x, 5), "evaluate_objective: expected a sequence, got int"
    ),
    "from_utilities": (
        lambda x: from_utilities(5, x.neutral), "from_utilities: expected a sequence, got int"
    ),
    "aggregate_relations": (
        lambda x: aggregate_relations([x], 5), "group weights: expected a sequence, got int"
    ),
    "AhpProblem": (
        lambda x: AhpProblem((1.0,), 5, SIGMA), "criteria: expected a sequence, got int"
    ),
    "rank": (lambda x: rank(UTILITIES, 5), "rank: expected MagWeights, got int"),
    "magnitude": (lambda x: magnitude(SIGMA, 5), "magnitude: expected MagWeights, got int"),
    "TrFPR": (lambda x: TrFPR([5], x.neutral), "TrFPR: expected a sequence, got int"),
}


@pytest.mark.parametrize("door", list(BEHIND_A_VALID_ARGUMENT))
def test_a_wrong_type_behind_a_valid_argument_is_refused(door):
    call, message = BEHIND_A_VALID_ARGUMENT[door]
    with pytest.raises(ValidationError) as info:
        call(relation("additive"))
    assert str(info.value) == message


def test_from_utilities_refuses_what_is_not_a_neutral_element():
    with pytest.raises(ValidationError) as info:
        from_utilities(UTILITIES, None)
    assert str(info.value) == "from_utilities needs an additive neutral element"
