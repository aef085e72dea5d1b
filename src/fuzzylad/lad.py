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

Every number a result carries is computed without BLAS or LAPACK: each sum
runs in a fixed order (``np.cumsum``, as in ``evaluate_objective``) or is
exactly rounded (``math.fsum``), so a result's bits do not depend on the
kernel OpenBLAS picks at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import NotConsistentError, SizeLimitError, ValidationError, _expect, located
from .relations import (
    DEFAULT_CONSISTENCY_TOL,
    TrFPR,
    TrMPR,
    _distance,
    _first,
    _Relation,
    _require_kind,
    check_consistency,
    to_additive,
)
from .simplex import LinearProgram, LpStatus, solve
from .trfn import TrFN, _real, _trfns

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
# directly from the returned utilities, relative once the objective passes 1.
OBJECTIVE_AGREEMENT_TOL = 1e-7

_SNAP_TOL = 1e-12

# Largest relation the deviation LP is built for.  The dense tableau has
# about 8n^2 rows and 16n^2 columns and is the solver's only copy of the LP:
# one n = 15 punit solve took about 2.5 s, 10400 pivots and 105 MB peak RSS
# on a 2-vCPU guest, and the 20000-pivot budget runs out near n = 20.
MAX_LP_ALTERNATIVES = 15

# Largest component of a total-utility target: larger targets can overflow
# the LP's sums.
MAX_SIGMA = 1e300


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
        object.__setattr__(self, "utilities", _trfns(self.utilities, "UtilityVector"))
        if not self.utilities:
            raise ValidationError("a utility vector needs at least one entry")
        object.__setattr__(self, "objective", _real(self.objective, "objective"))
        if self.objective < 0.0:
            raise ValidationError(f"objective must be non-negative, got {self.objective}")
        _expect(self.model, Model, "UtilityVector", "a Model")
        lower_a, upper_d = self.model.bounds
        comps = self.array
        low = comps[:, 0] < lower_a
        hit = _first(low | (comps[:, 3] > upper_d))
        if hit:
            (k,) = hit
            rule = "requires non-negative utilities" if low[k] else "keeps utilities inside [0, 1]"
            raise ValidationError(
                f"model {self.model.value} {rule}, utility {k + 1} = {self.utilities[k]}"
            )

    @property
    def array(self) -> np.ndarray:
        """The components as an ``(n, 4)`` float64 array, built from the utilities on each use."""
        return np.array([t.components for t in self.utilities])

    @property
    def n(self) -> int:
        return len(self.utilities)


def _additive(x: TrFPR | TrMPR, where: str) -> TrFPR:
    """``x``, or a multiplicative relation's additive image; a refusal names ``where``."""
    _require_kind(x, _Relation, where)
    return to_additive(x) if isinstance(x, TrMPR) else x


def evaluate_objective(x: TrFPR | TrMPR, utilities: Sequence[TrFN]) -> float:
    """Total deviation between ``x`` and the relation the utilities rebuild.

    This is a direct evaluation, independent of any LP machinery: for every
    cell (diagonal included) it compares ``x_ij + t0`` against
    ``u_i + (u_j negated)`` in normalized L1 distance and sums up.
    """
    x = _additive(x, "evaluate_objective")
    utilities = _trfns(utilities, "evaluate_objective")
    if len(utilities) != x.n:
        raise ValidationError(f"expected {x.n} utilities, got {len(utilities)}")
    u = np.array([t.components for t in utilities])
    rebuilt = u[:, None, :] + (1.0 - u[None, :, ::-1])
    cells = _distance(x.array + np.array(x.neutral.value.components), rebuilt)
    # A running sum keeps the row-major, left-to-right order of the total.
    return float(np.cumsum(cells)[-1])


def _validate_sigma(sigma: TrFN) -> TrFN:
    _expect(sigma, TrFN, "sigma", "a trapezoidal number")
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
    _expect(model, Model, "build_lp", "a Model")
    if model is Model.QSIGMA:
        raise ValidationError("model qsigma labels results; derive with model psigma")
    x = _additive(x, "build_lp")
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


def _utilities(comps: np.ndarray, model: Model) -> tuple[TrFN, ...]:
    """The one finishing step of every utility vector: put in order, clamp to ``model.bounds``."""
    comps = np.maximum.accumulate(comps, axis=1)
    lower_a, upper_d = model.bounds
    comps = np.minimum(np.maximum(comps, lower_a), upper_d)
    return tuple(TrFN(*row) for row in comps.tolist())


def _scored(
    x: TrFPR | TrMPR, comps: np.ndarray, model: Model, label: Model | None = None
) -> UtilityVector:
    """``comps`` finished for ``model`` and scored on ``x``, labelled ``label`` or ``model``."""
    utilities = _utilities(comps, model)
    return UtilityVector(utilities, evaluate_objective(x, utilities), label or model)


def derive_utility(
    x: TrFPR | TrMPR, model: Model = Model.PUNIT, sigma: TrFN | None = None
) -> UtilityVector:
    """Solve the deviation LP for ``x`` and return optimal utilities.

    The reported objective is recomputed directly from the returned
    utilities; a mismatch with the LP optimum beyond 1e-7 times
    ``max(1, objective)`` would mean the linearization and the evaluation
    disagree and raises instead of returning silently wrong numbers.
    """
    label = Model.QSIGMA if model is Model.PSIGMA and isinstance(x, TrMPR) else model
    x = _additive(x, "derive_utility")
    lp = build_lp(x, model, sigma)
    solution = located(f"n = {x.n}, model {model.value}", solve, lp)
    if solution.status is not LpStatus.OPTIMAL:
        status = solution.status.value
        raise ArithmeticError(f"the solver read the deviation LP {status}; each has an optimum")
    result = _scored(x, _snap(solution.x[: 4 * x.n].reshape(x.n, 4)), model, label)
    bound = OBJECTIVE_AGREEMENT_TOL * max(1.0, result.objective)
    if abs(result.objective - solution.objective_value) > bound:
        raise ArithmeticError(
            f"LP optimum {solution.objective_value} and recomputed deviation "
            f"{result.objective} disagree beyond {bound}"
        )
    return result


def shift_normalize(u: UtilityVector) -> UtilityVector:
    """Shift a free-model solution into the non-negative model.

    Adding one crisp constant to every utility leaves all rebuilt pairwise
    comparisons, hence the objective, unchanged; the smallest shift that
    clears negativity is the negated minimum support start.
    """
    _expect(u, UtilityVector, "shift_normalize", "a UtilityVector")
    if u.model is not Model.P0:
        raise ValidationError(f"shift normalization applies to model p0, got {u.model.value}")
    comps = u.array
    shifted = comps + max(0.0, -comps[:, 0].min())
    return UtilityVector(_utilities(shifted, Model.P), u.objective, Model.P)


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
    _require_kind(x, _Relation, "fast_path_consistent")
    _expect(k, (int, np.integer), "fast_path_consistent", "an integer column index")
    if not 0 <= k < x.n:
        raise ValidationError(f"column index {k} outside 0..{x.n - 1}")
    report = check_consistency(x, tol)
    if not report.consistent:
        raise NotConsistentError(
            f"fast path needs a consistent relation; {report.describe()}"
        )
    x = _additive(x, "fast_path_consistent")
    return _scored(x, _snap(x.array[:, k]), Model.P)
