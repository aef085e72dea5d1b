"""Dense two-phase simplex for small linear programs.

Minimizes ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``
and per-variable ``(lower, upper)`` bounds; a lower bound may be ``-inf``
and an upper bound ``+inf``.  Free and upper-bounded-only variables are
handled by substitution, so the caller can state models naturally.

The solver is sized for the deviation-minimization instances this package
generates (tens of variables, a few hundred rows): everything stays in one
dense tableau and is strictly deterministic, so repeated solves of the same
program give bit-identical answers.  The entering rule is steepest
coefficient (Dantzig) and switches permanently to Bland's smallest-index
rule once the objective has stalled, which breaks degenerate cycles; the
leaving rule always resolves ratio ties toward the smallest basis index.

The tableau is column-major and the solver's only copy of the program:
constraint rows are written straight into it and flipped in place to a
non-negative right-hand side, and ``_price`` reduces both phases' cost rows
by its rows.  Every program runs phase 1, and a row it leaves redundant
stays in place as a zero row, so the tableau is allocated once and never
copied.  The ratio test looks only at rows with a positive pivot-column
entry, and a pivot updates only the columns its row touches (see ``_pivot``).

Five module constants bound the solver, and ``solve`` takes no options.
``FEAS_TOL`` is read against one scale per program, ``max(1, largest |b|)``
over its right-hand sides as given: times the scale, it is the phase-1
residual that still counts as feasible, and ten times that the constraint
violation the answer may show.  ``PIVOT_TOL`` is the smallest accepted pivot
element and ``COST_TOL`` the reduced cost a column must fall below to enter.
``MAX_PIVOTS`` caps the pivots of both phases together; past it the solver
raises IterationLimitError rather than return a bad answer.  ``BLAND_AFTER``
is the number of non-improving pivots in a row before Bland's rule takes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import IterationLimitError, ValidationError

__all__ = ["LinearProgram", "LpSolution", "LpStatus", "solve"]

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-10
COST_TOL = 1e-9
MAX_PIVOTS = 20000
BLAND_AFTER = 50


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _readonly(a, name: str) -> np.ndarray:
    try:
        a = np.array(a, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be an array of real numbers") from exc
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LinearProgram:
    """An immutable LP in the form min c@x, a_ub@x <= b_ub, a_eq@x == b_eq; lists are
    accepted, each block is ``(rows, n)`` or omitted, and ``None`` bounds are ``(0, +inf)``."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    bounds: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        c = _readonly(self.c, "c")
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("objective must be a non-empty vector")
        n = c.size
        blocks = (self.a_ub, self.b_ub, self.a_eq, self.b_eq)
        a_ub, b_ub, a_eq, b_eq = (
            _readonly(() if block is None else block, name)
            for name, block in zip(("a_ub", "b_ub", "a_eq", "b_eq"), blocks)
        )
        a_ub, a_eq = (a.reshape(0, n) if a.size == 0 else a for a in (a_ub, a_eq))
        if a_ub.shape[1:] != (n,) or a_eq.shape[1:] != (n,):
            raise ValidationError(f"constraint matrix width must match {n} variables")
        if b_ub.ndim != 1 or b_ub.size != a_ub.shape[0]:
            raise ValidationError("b_ub length must match a_ub row count")
        if b_eq.ndim != 1 or b_eq.size != a_eq.shape[0]:
            raise ValidationError("b_eq length must match a_eq row count")
        for block in (c, a_ub, b_ub, a_eq, b_eq):
            if block.size and not np.isfinite(block).all():
                raise ValidationError("constraint data must be finite")
        given = ((0.0, np.inf),) * n if self.bounds is None else self.bounds
        try:
            bounds = tuple((float(lo), float(hi)) for lo, hi in given)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError("bounds must be (lower, upper) pairs of real numbers") from exc
        if len(bounds) != n:
            raise ValidationError(f"expected {n} bound pairs, got {len(bounds)}")
        for j, (lo, hi) in enumerate(bounds):
            if not (lo <= hi and lo < np.inf and hi > -np.inf):
                raise ValidationError(f"invalid bounds ({lo}, {hi}) for variable {j}")
        checked = dict(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, bounds=bounds)
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @property
    def num_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    objective_value: float | None
    iterations: int

    def __post_init__(self) -> None:
        if self.x is not None:
            object.__setattr__(self, "x", _readonly(self.x, "x"))


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Pivot on ``T[row, col]``, updating only the columns the pivot row touches.

    A column whose pivot-row entry is zero would only have ``±0.0``
    subtracted from it, which leaves every non-zero entry as it was; at
    most the sign of a zero differs from a full sweep, and no decision of
    the solver depends on that sign.  ``T`` is column-major, so its
    transpose is row-major and the touched columns are contiguous rows of it.
    The normalised pivot row is written last; its entry at ``col`` is
    ``p / p``, exactly 1.0.
    """
    Tt = T.T
    pivot_row = T[row]
    cols = pivot_row.nonzero()[0]
    values = pivot_row[cols] / pivot_row[col]
    Tt[cols] -= values[:, None] * Tt[col]
    Tt[col] = 0.0
    pivot_row[cols] = values


def _iterate(T, basis, iters_left):
    """Run simplex pivots on tableau ``T`` until optimal or unbounded.

    The bottom row holds reduced costs with ``T[-1, -1] == -objective``.
    Returns ``(status, pivots)`` where status is "optimal" or "unbounded".
    """
    m = len(basis)
    pivots = 0
    bland = False
    stalled = 0
    best_seen = float(T[-1, -1])
    reduced = T[-1, :-1]
    rhs = T[:m, -1]
    while True:
        if bland:
            negatives = np.flatnonzero(reduced < -COST_TOL)
            if negatives.size == 0:
                return "optimal", pivots
            col = int(negatives[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -COST_TOL:
                return "optimal", pivots
        column = T[:m, col]
        eligible = (column > PIVOT_TOL).nonzero()[0]
        if not eligible.size:
            return "unbounded", pivots
        ratios = np.maximum(rhs[eligible], 0.0) / column[eligible]
        tied = eligible[ratios == ratios[ratios.argmin()]]
        row = int(tied[0]) if tied.size == 1 else int(tied[basis[tied].argmin()])
        if pivots >= iters_left:
            raise IterationLimitError(
                f"simplex pivot budget exhausted after {pivots} pivots in this phase"
            )
        _pivot(T, row, col)
        basis[row] = col
        pivots += 1
        if not bland:
            if (objective := float(T[-1, -1])) > best_seen + 1e-12:
                best_seen = objective
                stalled = 0
            else:
                stalled += 1
                if stalled > BLAND_AFTER:
                    bland = True


def _check_feasible(
    lp: LinearProgram, x: np.ndarray, lo: np.ndarray, hi: np.ndarray, scale: float
) -> None:
    worst = max(
        float(np.abs(lp.a_eq @ x - lp.b_eq).max(initial=0.0)),
        float((lp.a_ub @ x - lp.b_ub).max(initial=0.0)),
        float(np.max(np.where(np.isfinite(lo), lo - x, 0.0))),
        float(np.max(np.where(np.isfinite(hi), x - hi, 0.0))),
    )
    if worst > 10.0 * FEAS_TOL * scale:
        raise ArithmeticError(
            f"simplex returned a point violating constraints by {worst:.3g}"
        )


def _subtract_rows(T: np.ndarray, rows: np.ndarray, weights: np.ndarray) -> None:
    """Subtract ``weights[k] * T[rows[k]]`` from ``T[-1]`` in order, 32 rows at a time.

    numpy sums an add reduction pairwise but applies a subtract reduction
    row after row, so each entry is rounded exactly as in a plain loop over
    the rows (``tests/test_simplex.py`` checks it against one).
    """
    for start in range(0, rows.size, 32):
        block = T[np.append(-1, rows[start : start + 32])]
        block[1:] *= weights[start : start + 32, None]
        T[-1] = np.subtract.reduce(block, axis=0)
        del block  # before the next gather


def _price(T: np.ndarray, basis: np.ndarray) -> None:
    """Reduce the cost row by the rows of the basic columns it prices, in row order."""
    weights = T[-1, basis]
    rows = np.flatnonzero(weights)
    _subtract_rows(T, rows, weights[rows])


def solve(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` to optimality, or classify it infeasible or unbounded.

    Returns:
        LpSolution with status OPTIMAL (and a primal-feasible ``x``),
        INFEASIBLE, or UNBOUNDED.
    """
    # Substitute every variable by non-negative ones: standard column k
    # stands for sign[k] * (x[var[k]] - base[var[k]]), and a free variable
    # becomes the difference of two columns.
    n_orig = lp.num_vars
    scale = float(np.abs(np.concatenate([lp.b_ub, lp.b_eq])).max(initial=1.0))
    lo, hi = np.array(lp.bounds).reshape(n_orig, 2).T
    free = np.isneginf(lo) & np.isposinf(hi)
    flipped = np.isneginf(lo) & ~free
    base = np.where(flipped, hi, np.where(free, 0.0, lo))
    var = np.repeat(np.arange(n_orig), np.where(free, 2, 1))
    first = np.flatnonzero(np.diff(var, prepend=-1))
    twin = 1 + np.flatnonzero(np.diff(var) == 0)
    sign = np.where(flipped, -1.0, 1.0)[var]
    sign[twin] = -1.0
    n_std = var.size

    # Inequality rows: the program's own, then x' <= hi - lo for every
    # variable bounded on both sides; equality rows last, each row flipped.
    boxed = np.flatnonzero(~np.isneginf(lo) & np.isfinite(hi))
    n_ub = lp.a_ub.shape[0]
    m_ub = n_ub + boxed.size
    m = m_ub + lp.a_eq.shape[0]
    b = np.concatenate([lp.b_ub - lp.a_ub @ base, (hi - lo)[boxed], lp.b_eq - lp.a_eq @ base])
    negated = b < 0
    flip = np.where(negated, -1.0, 1.0)
    # Rows with an untouched slack start with it in the basis; every other
    # row gets an artificial column.
    has_slack = (np.arange(m) < m_ub) & ~negated
    needs_artificial = np.flatnonzero(~has_slack)
    n_art = needs_artificial.size
    art_start = n_std + m_ub
    basis = np.empty(m, dtype=int)
    basis[has_slack] = n_std + np.flatnonzero(has_slack)
    basis[needs_artificial] = art_start + np.arange(n_art)

    # Columns: standard variables, slacks, artificials, right-hand side;
    # the last row holds the phase-1 costs.  Column-major; see _pivot.
    # Rows go straight in; a free variable's twin copies the column before it.
    T = np.zeros((m + 1, art_start + n_art + 1), order="F")
    T[:n_ub, first] = lp.a_ub
    T[m_ub:m, first] = lp.a_eq
    T[n_ub + np.arange(boxed.size), first[boxed]] = 1.0
    T[:m, twin] = T[:m, twin - 1]
    T[:m, np.flatnonzero(sign < 0)] *= -1.0
    T[:m, :n_std] *= flip[:, None]
    T[:m, -1] = flip * b
    T[np.arange(m_ub), n_std + np.arange(m_ub)] = flip[:m_ub]
    T[needs_artificial, art_start + np.arange(n_art)] = 1.0
    # Phase-1 costs: 1 per artificial, less every artificial row in turn, so
    # a flipped row's slack ends at 0 - (-1) = 1 and every artificial at 0.
    T[-1, art_start:-1] = 1.0
    _price(T, basis)

    status, total_pivots = _iterate(T, basis, MAX_PIVOTS)
    if status != "optimal":
        raise ArithmeticError("phase 1 objective is bounded below; solver defect")
    if -T[-1, -1] > FEAS_TOL * scale:
        return LpSolution(LpStatus.INFEASIBLE, None, None, total_pivots)
    # Remove leftover artificials: pivot them onto a real column when possible,
    # else zero the redundant row and give it the slot the right-hand side takes.
    for i in np.flatnonzero(basis >= art_start):
        candidates = np.flatnonzero(np.abs(T[i, :art_start]) > PIVOT_TOL)
        if candidates.size:
            _pivot(T, i, int(candidates[0]))
            basis[i] = int(candidates[0])
            total_pivots += 1
        else:
            T[i] = 0.0
            basis[i] = art_start
    # Drop the artificial columns: the right-hand side moves next to the
    # slacks and the tableau shrinks to a view of its first columns.
    T[:, art_start] = T[:, -1]
    T = T[:, : art_start + 1]

    T[-1] = 0.0
    T[-1, :n_std] = lp.c[var] * sign
    _price(T, basis)
    status, pivots = _iterate(T, basis, MAX_PIVOTS - total_pivots)
    total_pivots += pivots
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, None, total_pivots)

    x_std = np.zeros(art_start + 1)
    x_std[basis] = T[:m, -1]
    x = base.copy()
    # Only a free variable gets two terms, on a zero base, so the order of
    # the additions cannot change a bit of the result.
    np.add.at(x, var, sign * x_std[:n_std])
    _check_feasible(lp, x, lo, hi, scale)
    return LpSolution(LpStatus.OPTIMAL, x, float(lp.c @ x), total_pivots)
