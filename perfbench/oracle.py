"""Correctness checks, run after the timed phase.

LP objectives are compared against scipy's HiGHS solver on the same
``build_lp`` data.  Utility vectors are never compared: a degenerate LP has
other optima that are just as valid.  Scipy is imported here only, never by
the package.
"""

from __future__ import annotations

import numpy as np

from fuzzylad import Model, TrFN, TrFPR, build_lp, evaluate_objective

LP_TOL = 1e-7
EVAL_TOL = 1e-9
CONSISTENCY_TOL = 1e-12


def highs_optimum(relation: TrFPR, model: Model, sigma: TrFN | None) -> float:
    """Optimal objective of the package's LP for ``relation``, solved by HiGHS."""
    from scipy.optimize import linprog

    lp = build_lp(relation, model, sigma)
    bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi) for lo, hi in lp.bounds]
    res = linprog(
        lp.c,
        A_ub=lp.a_ub if lp.a_ub.size else None,
        b_ub=lp.b_ub if lp.b_ub.size else None,
        A_eq=lp.a_eq if lp.a_eq.size else None,
        b_eq=lp.b_eq if lp.b_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    if res.status != 0:
        raise ArithmeticError(f"HiGHS could not solve the reference LP: {res.message}")
    return float(res.fun)


def check_lp_result(relation: TrFPR, utilities, objective: float, optimum: float) -> str | None:
    """Failure reason, or None when ``objective`` is optimal and self-consistent."""
    if abs(objective - optimum) > LP_TOL:
        return f"objective {objective!r} differs from HiGHS optimum {optimum!r}"
    recomputed = evaluate_objective(relation, utilities)
    if abs(recomputed - objective) > EVAL_TOL:
        return f"objective {objective!r} but evaluate_objective gives {recomputed!r}"
    return None


def max_violation(relation, multiplicative: bool) -> float:
    """Largest transitivity violation over all triples, computed with numpy.

    Independent of the package's scan: additive relations test
    ``x_ij + t0 = x_ik + x_kj`` and multiplicative ones
    ``y_ij * s0 = y_ik * y_kj``, both in mean absolute component distance.
    """
    e = np.array([[entry.components for entry in row] for row in relation.entries])
    t0 = np.array(relation.neutral.value.components)
    if multiplicative:
        lhs = e * t0
        rhs = e[:, :, None, :] * e[None, :, :, :]
    else:
        lhs = e + t0
        rhs = e[:, :, None, :] + e[None, :, :, :]
    # rhs[i, k, j] pairs x_ik with x_kj; compare with lhs[i, j].
    diff = np.abs(lhs[:, None, :, :] - rhs).mean(axis=-1)
    return float(diff.max())
