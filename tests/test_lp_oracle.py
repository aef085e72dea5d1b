"""fuzzylad's LAD objective against HiGHS on an LP written here, not by ``build_lp``.

The LP follows the deviation recipe ``evaluate_objective`` documents: cell
(i, j) component c deviates by ``|x_ij[c] + t0[c] - 1 - u_i[c] + u_j[3 - c]|``,
and the objective is a quarter of the sum over every cell and component.
Here it is in residual-split equality form: one pair of non-negative
residuals ``p - q`` per cell and component, the ordering chain per
alternative, the model's bounds on each utility, and psigma's four
component sums.

Reciprocity makes the deviation of cell (i, j) component c equal that of
cell (j, i) component 3 - c, so the same optimum is reached by the halved
twin: cells with i < j plus diagonal components 0-1, at weight 1/2.  Both
LPs are compared by objective only, because their optimal vertices differ
on optimal faces.
"""

import numpy as np
import pytest

from fuzzylad import Model, NeutralElement, TrFN, TrFPR, derive_utility

linprog = pytest.importorskip("scipy.optimize").linprog

OBJECTIVE_TOL = 1e-7
MODELS = (Model.P0, Model.P, Model.PUNIT, Model.PSIGMA)
# Each model's bounds on a utility's first and last component.
LOWER_A = {Model.P0: None, Model.P: 0.0, Model.PUNIT: 0.0, Model.PSIGMA: 0.0}
UPPER_D = {Model.P0: None, Model.P: None, Model.PUNIT: 1.0, Model.PSIGMA: None}


def random_relation(rng, n: int, lattice: bool) -> TrFPR:
    """A reciprocal relation; ``lattice`` puts every entry on multiples of 0.05."""
    if lattice:
        a, b = sorted(rng.integers(1, 11, size=2) / 20)
        upper = np.sort(rng.integers(0, 21, size=(n, n, 4)) / 20, axis=2)
    else:
        a, b = sorted(rng.uniform(0.05, 0.5, size=2))
        upper = np.sort(rng.uniform(0.0, 1.0, size=(n, n, 4)), axis=2)
    return TrFPR.from_upper(upper, NeutralElement.additive(TrFN(a, b, 1.0 - b, 1.0 - a)))


def lad_lp(x: TrFPR, model: Model, sigma: TrFN | None, halved: bool) -> dict:
    """``linprog`` arguments of the LAD LP for ``x``, or of its halved twin."""
    n = x.n
    t0 = x.neutral.value.components
    if halved:
        terms = [
            (i, j, c) for i in range(n) for j in range(i, n) for c in range(2 if i == j else 4)
        ]
        weight = 0.5
    else:
        terms = [(i, j, c) for i in range(n) for j in range(n) for c in range(4)]
        weight = 0.25
    m = len(terms)
    width = 4 * n + 2 * m

    a_eq = np.zeros((m, width))
    b_eq = np.zeros(m)
    for k, (i, j, c) in enumerate(terms):
        # u_i[c] - u_j[3 - c] + p_k - q_k = x_ij[c] + t0[c] - 1
        a_eq[k, 4 * i + c] += 1.0
        a_eq[k, 4 * j + 3 - c] -= 1.0
        a_eq[k, 4 * n + k] = 1.0
        a_eq[k, 4 * n + m + k] = -1.0
        b_eq[k] = x.array[i, j, c] + t0[c] - 1.0
    if model is Model.PSIGMA:
        sums = np.zeros((4, width))
        for c in range(4):
            sums[c, c : 4 * n : 4] = 1.0
        a_eq = np.vstack([a_eq, sums])
        b_eq = np.append(b_eq, sigma.components)

    # u_k[c] <= u_k[c + 1]
    a_ub = np.zeros((3 * n, width))
    for k in range(n):
        for c in range(3):
            a_ub[3 * k + c, 4 * k + c] = 1.0
            a_ub[3 * k + c, 4 * k + c + 1] = -1.0

    utility = [(LOWER_A[model], None), (None, None), (None, None), (None, UPPER_D[model])]
    cost = np.concatenate([np.zeros(4 * n), np.full(2 * m, weight)])
    return dict(c=cost, A_ub=a_ub, b_ub=np.zeros(3 * n), A_eq=a_eq, b_eq=b_eq,
                bounds=utility * n + [(0.0, None)] * (2 * m))


def highs_optimum(lp: dict) -> float:
    result = linprog(**lp, method="highs")
    assert result.status == 0, result.message
    return result.fun


CASES = [(model, n, (n + k) % 2 == 1) for k, model in enumerate(MODELS) for n in range(2, 11)]


@pytest.mark.parametrize(
    "model, n, lattice",
    CASES,
    ids=[f"{m.value}-n{n}-{'lattice' if lat else 'continuous'}" for m, n, lat in CASES],
)
def test_highs_optimum_of_the_full_and_halved_lp_is_the_objective(model, n, lattice):
    rng = np.random.default_rng([n, MODELS.index(model), lattice])
    x = random_relation(rng, n, lattice)
    sigma = TrFN(*np.sort(rng.uniform(0.5, 1.5, size=4))) if model is Model.PSIGMA else None
    objective = derive_utility(x, model, sigma).objective
    for halved in (False, True):
        optimum = highs_optimum(lad_lp(x, model, sigma, halved))
        assert abs(optimum - objective) <= OBJECTIVE_TOL, (optimum, objective)
