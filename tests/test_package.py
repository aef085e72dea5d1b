"""The package's public names: each module's ``__all__``, re-exported as is."""

import importlib
import inspect

import fuzzylad

MODULES = ("ahp", "errors", "files", "group", "lad", "relations", "simplex", "trfn")

# Every name the package exported while it kept its own list of them.
EARLIER_EXPORTS = (
    "AhpProblem", "AhpResult", "BoundsReport", "ConsistencyReport", "DEFAULT_MAG_WEIGHTS",
    "GroupWeights", "InfeasibleError", "IterationLimitError", "LinearProgram", "LoadedProblem",
    "LpSolution", "LpStatus", "MAX_LP_ALTERNATIVES", "MagWeights", "Model", "NeutralElement",
    "NotConsistentError", "OutOfUnitIntervalError", "ParseError", "Ranking", "SizeLimitError",
    "TrFN", "TrFPR", "TrMPR", "UtilityVector", "ValidationError", "add", "aggregate_relations",
    "aggregate_utilities", "amm_weights", "build_lp", "check_consistency",
    "check_consistency_mult", "crisp", "derive_utility", "derive_utility_mult",
    "derive_weights", "deviation", "distance", "evaluate_objective", "fast_path_consistent",
    "from_utilities", "gmm_weights", "invert", "load_problem", "magnitude", "mul", "negate",
    "phi", "phi_inv", "rank", "run_ahp", "save_problem", "scale", "shift_normalize", "sub",
    "to_additive", "to_multiplicative", "verify_bounds",
)


def modules():
    return [importlib.import_module(f"fuzzylad.{name}") for name in MODULES]


def test_all_is_the_module_lists_joined_in_order():
    assert fuzzylad.__all__ == [name for module in modules() for name in module.__all__]
    assert len(set(fuzzylad.__all__)) == len(fuzzylad.__all__)


def test_each_name_is_its_modules_object():
    for module in modules():
        for name in module.__all__:
            assert getattr(fuzzylad, name) is getattr(module, name), (module.__name__, name)


def test_each_class_and_function_is_public_where_it_is_defined():
    for module in modules():
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, (module.__name__, name)


def test_no_earlier_export_is_lost():
    assert len(EARLIER_EXPORTS) == 59
    assert set(EARLIER_EXPORTS) <= set(fuzzylad.__all__)
