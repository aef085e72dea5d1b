"""Each answer on ``problems/*.json`` against the optimal face HiGHS finds.

LAD optima are often faces rather than single points, and the utilities
fuzzylad reports are the vertex its pivot path reaches.  For every problem
file under the model the CLI picks by default (``problems/portfolio.json``
holds the portfolio case study, one program per criterion), HiGHS solves the
LAD LP for its optimal objective, then minimises and maximises each utility
component over the optimal face.  That LP is the one
``tests/test_lp_oracle.lad_lp`` writes, not ``build_lp``'s, so a wrong
coefficient in ``build_lp`` cannot move the face.  fuzzylad's answer must
reach the objective and lie inside every range; the assertion messages print
the face widths.
"""

from pathlib import Path

import numpy as np
import pytest

from fuzzylad import Model, derive_utility, derive_weights, load_problem, to_additive
from test_lp_oracle import lad_lp

linprog = pytest.importorskip("scipy.optimize").linprog

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
OBJECTIVE_TOL = 1e-9
# Slack allowed on the objective while exploring the face, and on the
# ranges, for the tolerances of HiGHS's own solves.
FACE_SLACK = 1e-9
RANGE_TOL = 1e-7


def cases() -> list[tuple[str, str, int | None]]:
    """``(id, file name, criterion)`` per LP the CLI solves by default."""
    out = []
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = load_problem(path)
        if problem.kind == "ahp":
            out += [(f"{path.stem}-criterion{k + 1}", path.name, k)
                    for k in range(len(problem.matrices))]
        else:
            out.append((path.stem, path.name, None))
    return out


def default_answer(name: str, criterion: int | None):
    """The CLI's default derivation: ``(answer, linprog arguments of its LAD LP)``."""
    problem = load_problem(PROBLEMS / name)
    if problem.kind == "ahp":
        y = problem.matrices[criterion]
        lp = lad_lp(to_additive(y), Model.PSIGMA, problem.sigma, halved=False)
        return derive_weights(y, problem.sigma), lp
    x = problem.relation if problem.kind == "additive" else to_additive(problem.relation)
    model = Model.PUNIT if problem.kind == "additive" else Model.P
    return derive_utility(x, model), lad_lp(x, model, None, halved=False)


def highs(c, lp, a_ub, b_ub) -> float:
    """HiGHS's minimum of ``c @ x``; ``-inf`` when unbounded (the shift-invariant
    models leave utilities unbounded above on the optimal face)."""
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=lp["A_eq"], b_eq=lp["b_eq"],
                     bounds=lp["bounds"], method="highs")
    if result.status == 3:
        return -np.inf
    assert result.status == 0, result.message
    return result.fun


def optimal_face(lp, n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """HiGHS's optimum and each utility component's range on its optimal face."""
    best = highs(lp["c"], lp, lp["A_ub"], lp["b_ub"])
    a_ub = np.vstack([lp["A_ub"], lp["c"]])
    b_ub = np.append(lp["b_ub"], best + FACE_SLACK)
    # lad_lp's first 4n variables are the utilities, component by component.
    unit = np.eye(lp["c"].size)[: 4 * n]
    low = np.array([highs(e, lp, a_ub, b_ub) for e in unit])
    high = np.array([-highs(-e, lp, a_ub, b_ub) for e in unit])
    return best, low.reshape(n, 4), high.reshape(n, 4)


CASES = cases()


@pytest.mark.parametrize("name, criterion", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_answer_lies_on_the_optimal_face(name, criterion):
    answer, lp = default_answer(name, criterion)
    best, low, high = optimal_face(lp, answer.n)
    got = np.array([u.components for u in answer.utilities])
    widths = np.array2string(high - low, precision=4, suppress_small=True)
    assert abs(answer.objective - best) <= OBJECTIVE_TOL, (
        f"objective {answer.objective!r} against HiGHS {best!r}; face widths\n{widths}"
    )
    inside = (low - RANGE_TOL <= got) & (got <= high + RANGE_TOL)
    assert inside.all(), (
        f"utilities\n{got}\noutside the face ranges\n{low}\n{high}\nwidths\n{widths}"
    )
