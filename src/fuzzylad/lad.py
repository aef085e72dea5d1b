"""Least-absolute-deviation derivation of fuzzy utilities from relations.

A utility vector assigns one trapezoid per alternative so that the relation
rebuilt from utilities sits as close as possible, in total normalized L1
distance, to the observed relation.  That fitting problem is an LP after
the usual split of absolute values into non-negative deviation variables:
for ``n`` alternatives it has ``4n`` utility components, ``4n^2`` deviation
variables, two inequalities per matrix cell and component, and a three-step
ordering chain per alternative.

Model variants differ only in side constraints on the utility components:

* ``P0``: components free apart from the ordering chain.
* ``P``: additionally ``u_k.a >= 0`` (non-negative utilities).
* ``PUnit``: additionally ``u_k.d <= 1`` (utilities inside the unit
  interval); the default when deriving from an additive relation.
* ``PSigma``: model P plus a fixed componentwise total, which pins the
  otherwise shift-invariant optimum and yields normalized fuzzy weights.
* ``QSigma``: model PSigma on a multiplicative relation.  Every function
  here that takes a relation takes either kind and solves a multiplicative
  one through its additive image; ``derive_utility`` sets this label on
  such a result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    InfeasibleError,
    IterationLimitError,
    NotConsistentError,
    SizeLimitError,
    ValidationError,
)
from .relations import (
    DEFAULT_CONSISTENCY_TOL,
    TrFPR,
    TrMPR,
    _distance,
    check_consistency,
    to_additive,
)
from .simplex import LinearProgram, LpStatus, solve
from .trfn import TrFN, add, crisp

__all__ = [
    "Model",
    "UtilityVector",
    "build_lp",
    "derive_utility",
    "derive_utility_mult",
    "derive_weights",
    "shift_normalize",
    "fast_path_consistent",
    "evaluate_objective",
    "MAX_LP_ALTERNATIVES",
    "MAX_SIGMA",
]

# Agreement required between the LP optimum and the objective recomputed
# directly from the returned utilities.
OBJECTIVE_AGREEMENT_TOL = 1e-7

_SNAP_TOL = 1e-12

# Largest relation the deviation LP is built for.  The dense tableau has
# about 8n^2 rows and 16n^2 columns and is the solver's only copy of the LP:
# one n = 15 punit solve took about 2.5 s, 10400 pivots and 105 MB peak RSS
# on a 2-vCPU guest, and the 20000-pivot budget runs out near n = 20.
MAX_LP_ALTERNATIVES = 15

# Largest component of a total-utility target.  The solver's tolerances are
# absolute while the target scales the LP, so u_k = sigma / n, always
# feasible, can read as infeasible.  Targets d * (2/3, 3/4, 11/12, 1), d up
# by 10^(1/16), over 6 shipped, 40 seeded n = 3-7 and 24 seeded n = 8-15
# relations first failed at d = 2.05e5 (n = 11 and 12, InfeasibleError).
MAX_SIGMA = 1e4


class Model(str, Enum):
    P0 = "p0"
    P = "p"
    PUNIT = "punit"
    PSIGMA = "psigma"
    QSIGMA = "qsigma"

    @property
    def bounds(self) -> tuple[float, float]:
        """``(lower_a, upper_d)``: the model's bounds on every utility, infinite when unstated."""
        return (-np.inf if self is Model.P0 else 0.0), (1.0 if self is Model.PUNIT else np.inf)


@dataclass(frozen=True)
class UtilityVector:
    """Per-alternative fuzzy utilities plus the deviation they achieve."""

    utilities: tuple[TrFN, ...]
    objective: float
    model: Model

    def __post_init__(self) -> None:
        object.__setattr__(self, "utilities", tuple(self.utilities))
        if not self.utilities:
            raise ValidationError("a utility vector needs at least one entry")
        for k, u in enumerate(self.utilities):
            if not isinstance(u, TrFN):
                raise ValidationError(f"utility {k + 1} is not a trapezoidal number")
        if self.objective < 0.0:
            raise ValidationError(f"objective must be non-negative, got {self.objective}")
        lower_a, upper_d = self.model.bounds
        for k, u in enumerate(self.utilities):
            if u.a < lower_a:
                raise ValidationError(
                    f"model {self.model.value} requires non-negative utilities, "
                    f"utility {k + 1} = {u}"
                )
        for k, u in enumerate(self.utilities):
            if u.d > upper_d:
                raise ValidationError(
                    f"model {self.model.value} keeps utilities inside [0, 1], utility {k + 1} = {u}"
                )

    @property
    def n(self) -> int:
        return len(self.utilities)


def _additive(x: TrFPR | TrMPR) -> TrFPR:
    """``x`` itself, or the additive image of a multiplicative relation."""
    return to_additive(x) if isinstance(x, TrMPR) else x


def evaluate_objective(x: TrFPR | TrMPR, utilities: Sequence[TrFN]) -> float:
    """Total deviation between ``x`` and the relation the utilities rebuild.

    This is a direct evaluation, independent of any LP machinery: for every
    cell (diagonal included) it compares ``x_ij + t0`` against
    ``u_i + (u_j negated)`` in normalized L1 distance and sums up.
    """
    x = _additive(x)
    utilities = tuple(utilities)
    if len(utilities) != x.n:
        raise ValidationError(f"expected {x.n} utilities, got {len(utilities)}")
    u = np.array([t.components for t in utilities])
    rebuilt = u[:, None, :] + (1.0 - u[None, :, ::-1])
    cells = _distance(x.array + np.array(x.neutral.value.components), rebuilt)
    # A running sum keeps the row-major, left-to-right order of the total.
    return float(np.cumsum(cells)[-1])


def _validate_sigma(sigma: TrFN) -> TrFN:
    if not isinstance(sigma, TrFN):
        raise ValidationError("the total-utility target must be a trapezoidal number")
    if sigma.a <= 0.0:
        raise ValidationError(
            f"the total-utility target must be strictly positive, got {sigma}"
        )
    if sigma.d > MAX_SIGMA:
        raise ValidationError(f"the total-utility target is at most {MAX_SIGMA:g}, got {sigma}")
    return sigma


def build_lp(x: TrFPR | TrMPR, model: Model, sigma: TrFN | None = None) -> LinearProgram:
    """Assemble the deviation-minimization LP for relation ``x``.

    Variable layout: utility components first (``4k + component``), then one
    deviation variable per cell and component.  Only the side constraints
    the chosen model actually states become variable bounds; everything
    implied (for example non-negativity of the b component under model P)
    is left to the ordering chain.
    """
    if model is Model.QSIGMA:
        raise ValidationError("model qsigma labels results; derive with model psigma")
    x = _additive(x)
    if x.n > MAX_LP_ALTERNATIVES:
        raise SizeLimitError(
            f"the deviation LP takes at most {MAX_LP_ALTERNATIVES} alternatives, got {x.n}"
        )
    if model is Model.PSIGMA:
        if sigma is None:
            raise ValidationError("model psigma needs a total-utility target")
        _validate_sigma(sigma)
    elif sigma is not None:
        raise ValidationError(f"model {model.value} takes no total-utility target")

    n = x.n
    nu = 4 * n
    nv = 4 * n * n
    c = np.zeros(nu + nv)
    c[nu:] = 0.25

    # Row 2 * (4 * (i * n + j) + comp) + s bounds the deviation of cell
    # (i, j) component comp from above (s = 0) or below (s = 1): cell + t0
    # against u_i + negate(u_j), where negation mirrors a <-> d and b <-> c.
    i, j, comp, s = np.indices((n, n, 4, 2)).reshape(4, -1)
    sign = 1.0 - 2.0 * s
    rows = np.arange(8 * n * n)
    a_ub = np.zeros((8 * n * n + 3 * n, nu + nv))
    a_ub[rows, 4 * i + comp] = -sign
    a_ub[rows, 4 * j + 3 - comp] = sign
    a_ub[rows, nu + 4 * (i * n + j) + comp] = -1.0
    b_ub = np.zeros(len(a_ub))
    constant = x.array + np.array(x.neutral.value.components) - 1.0
    b_ub[rows] = -sign * constant[i, j, comp]
    # Then the ordering chain u_k[comp] <= u_k[comp + 1] per alternative.
    k, comp = np.indices((n, 3)).reshape(2, -1)
    rows = 8 * n * n + np.arange(3 * n)
    a_ub[rows, 4 * k + comp] = 1.0
    a_ub[rows, 4 * k + comp + 1] = -1.0

    if model is Model.PSIGMA:
        k, comp = np.indices((n, 4)).reshape(2, -1)
        a_eq = np.zeros((4, nu + nv))
        a_eq[comp, 4 * k + comp] = 1.0
        b_eq = np.array(sigma.components)
    else:
        a_eq, b_eq = np.zeros((0, nu + nv)), np.zeros(0)

    lower_a, upper_d = model.bounds
    utility = ((lower_a, np.inf), (-np.inf, np.inf), (-np.inf, np.inf), (-np.inf, upper_d))
    bounds = utility * n + ((0.0, np.inf),) * nv
    return LinearProgram(c, a_ub, b_ub, a_eq, b_eq, bounds)


def _snap(values: np.ndarray) -> np.ndarray:
    """Snap components within ``_SNAP_TOL`` of 0 or 1 onto them exactly.

    Earlier float work leaves dust such as ±1e-12 around 0 and 1; utilities
    of the bounded models must come out exactly inside their bounds.
    """
    values = np.where(np.abs(values) < _SNAP_TOL, 0.0, values)
    return np.where(np.abs(values - 1.0) < _SNAP_TOL, 1.0, values)


def _extract_utilities(x_arr: np.ndarray, n: int, model: Model) -> tuple[TrFN, ...]:
    comps = x_arr[: 4 * n].reshape(n, 4)
    if np.max(comps[:, :-1] - comps[:, 1:]) > 1e-8:
        raise ArithmeticError("solver returned strongly unordered utility components")
    comps = np.maximum.accumulate(_snap(comps), axis=1)
    lower_a, upper_d = model.bounds
    comps = np.minimum(np.maximum(comps, lower_a), upper_d)
    return tuple(TrFN(*row) for row in comps)


def derive_utility(
    x: TrFPR | TrMPR, model: Model = Model.PUNIT, sigma: TrFN | None = None
) -> UtilityVector:
    """Solve the deviation LP for ``x`` and return optimal utilities.

    The reported objective is recomputed directly from the returned
    utilities; a mismatch with the LP optimum beyond 1e-7 would mean the
    linearization and the evaluation disagree and raises instead of
    returning silently wrong numbers.
    """
    label = Model.QSIGMA if model is Model.PSIGMA and isinstance(x, TrMPR) else model
    x = _additive(x)
    lp = build_lp(x, model, sigma)
    try:
        solution = solve(lp)
    except IterationLimitError as exc:
        raise IterationLimitError(f"n = {x.n}, model {model.value}: {exc}") from exc
    if solution.status is LpStatus.INFEASIBLE:
        raise InfeasibleError(
            f"model {model.value} admits no utilities for the given total-utility target"
        )
    if solution.status is not LpStatus.OPTIMAL:
        raise ArithmeticError("the deviation objective is bounded below; solver defect")
    utilities = _extract_utilities(solution.x, x.n, model)
    recomputed = evaluate_objective(x, utilities)
    if abs(recomputed - solution.objective_value) > OBJECTIVE_AGREEMENT_TOL:
        raise ArithmeticError(
            f"LP optimum {solution.objective_value} and recomputed deviation "
            f"{recomputed} disagree beyond {OBJECTIVE_AGREEMENT_TOL}"
        )
    return UtilityVector(utilities, recomputed, label)


def shift_normalize(u: UtilityVector) -> UtilityVector:
    """Shift a free-model solution into the non-negative model.

    Adding one crisp constant to every utility leaves all rebuilt pairwise
    comparisons, hence the objective, unchanged; the smallest shift that
    clears negativity is the negated minimum support start.
    """
    if u.model is not Model.P0:
        raise ValidationError(f"shift normalization applies to model p0, got {u.model.value}")
    delta = max(0.0, -min(t.a for t in u.utilities))
    if delta == 0.0:
        return replace(u, model=Model.P)
    offset = crisp(delta)
    shifted = tuple(add(t, offset) for t in u.utilities)
    return UtilityVector(shifted, u.objective, Model.P)


def derive_utility_mult(y: TrMPR) -> UtilityVector:
    """Derive non-negative utilities for a multiplicative relation."""
    return derive_utility(y, Model.P)


def derive_weights(y: TrMPR, sigma: TrFN) -> UtilityVector:
    """Derive normalized fuzzy weights for a multiplicative relation, labelled qsigma."""
    return derive_utility(y, Model.PSIGMA, sigma)


def fast_path_consistent(
    x: TrFPR | TrMPR, k: int = 0, tol: float = DEFAULT_CONSISTENCY_TOL
) -> UtilityVector:
    """Read utilities straight out of column ``k`` of a consistent relation.

    For a consistent relation, any single column is already an optimal
    utility vector with zero deviation, so no LP is needed.  ``k`` is
    0-based.  Raises NotConsistentError when the relation fails its own
    kind's transitivity scan at ``tol``.
    """
    if not 0 <= k < x.n:
        raise ValidationError(f"column index {k} outside 0..{x.n - 1}")
    report = check_consistency(x, tol)
    if not report.consistent:
        raise NotConsistentError(
            f"fast path needs a consistent relation; {report.describe()}"
        )
    x = _additive(x)

    utilities = tuple(TrFN(*row) for row in _snap(x.array[:, k]).tolist())
    objective = evaluate_objective(x, utilities)
    return UtilityVector(utilities, objective, Model.P)
