"""Trapezoidal fuzzy preference modeling with LAD-derived priorities.

The package models pairwise judgments as trapezoidal fuzzy preference
relations whose diagonal carries a decision-maker-personalized neutral
element, on either the unit-interval (additive) or ratio (multiplicative)
scale.  Ranking utilities and normalized fuzzy weights are derived by
minimizing total absolute deviation through small linear programs, with
closed-form mean-based baselines and a multi-criteria pipeline on top.
"""

from .ahp import AhpProblem, AhpResult, amm_weights, deviation, gmm_weights, run_ahp
from .errors import (
    InfeasibleError,
    IterationLimitError,
    NotConsistentError,
    OutOfUnitIntervalError,
    ParseError,
    SizeLimitError,
    ValidationError,
)
from .files import LoadedProblem, load_problem, save_problem
from .group import (
    BoundsReport,
    GroupWeights,
    aggregate_relations,
    aggregate_utilities,
    verify_bounds,
)
from .lad import (
    MAX_LP_ALTERNATIVES,
    Model,
    UtilityVector,
    build_lp,
    derive_utility,
    derive_utility_mult,
    derive_weights,
    evaluate_objective,
    fast_path_consistent,
    shift_normalize,
)
from .relations import (
    ConsistencyReport,
    NeutralElement,
    TrFPR,
    TrMPR,
    check_consistency,
    check_consistency_mult,
    from_utilities,
    phi,
    phi_inv,
    to_additive,
    to_multiplicative,
)
from .simplex import LinearProgram, LpSolution, LpStatus
from .trfn import (
    DEFAULT_MAG_WEIGHTS,
    MagWeights,
    Ranking,
    TrFN,
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

__version__ = "0.1.0"

__all__ = [
    "AhpProblem",
    "AhpResult",
    "BoundsReport",
    "ConsistencyReport",
    "DEFAULT_MAG_WEIGHTS",
    "GroupWeights",
    "InfeasibleError",
    "IterationLimitError",
    "LinearProgram",
    "LoadedProblem",
    "LpSolution",
    "LpStatus",
    "MAX_LP_ALTERNATIVES",
    "MagWeights",
    "Model",
    "NeutralElement",
    "NotConsistentError",
    "OutOfUnitIntervalError",
    "ParseError",
    "Ranking",
    "SizeLimitError",
    "TrFN",
    "TrFPR",
    "TrMPR",
    "UtilityVector",
    "ValidationError",
    "add",
    "aggregate_relations",
    "aggregate_utilities",
    "amm_weights",
    "build_lp",
    "check_consistency",
    "check_consistency_mult",
    "crisp",
    "derive_utility",
    "derive_utility_mult",
    "derive_weights",
    "deviation",
    "distance",
    "evaluate_objective",
    "fast_path_consistent",
    "from_utilities",
    "gmm_weights",
    "invert",
    "load_problem",
    "magnitude",
    "mul",
    "negate",
    "phi",
    "phi_inv",
    "rank",
    "run_ahp",
    "save_problem",
    "scale",
    "shift_normalize",
    "sub",
    "to_additive",
    "to_multiplicative",
    "verify_bounds",
]
