"""Multi-criteria ranking over per-criterion ratio-scale comparisons.

The pipeline takes one multiplicative relation per criterion plus crisp
criteria weights, derives normalized fuzzy weights per criterion with the
total-pinned LAD model, combines them criterion-weighted into global
weights, and ranks alternatives by magnitude.

Two closed-form baselines are included for comparison: the arithmetic-mean
method (row sums divided by the grand total) and the geometric-mean method
(componentwise row geometric means divided by their total).  ``deviation``
scores any weight vector on the same objective the LAD model minimizes, so
the three methods are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _expect, located
from .group import _check_group, combine_utilities
from .lad import UtilityVector, _validate_sigma, derive_weights, evaluate_objective
from .relations import TrFPR, TrMPR, _require_kind
from .trfn import DEFAULT_MAG_WEIGHTS, MagWeights, Ranking, TrFN, rank

__all__ = ["AhpProblem", "AhpResult", "run_ahp", "amm_weights", "gmm_weights", "deviation"]


@dataclass(frozen=True)
class AhpProblem:
    """A fixed hierarchy: criteria weights, one relation per criterion."""

    criteria_weights: tuple[float, ...]
    matrices: tuple[TrMPR, ...]
    sigma: TrFN
    mag_weights: MagWeights = DEFAULT_MAG_WEIGHTS

    def __post_init__(self) -> None:
        matrices, weights = _check_group(
            self.matrices, self.criteria_weights, "criteria", TrMPR, "criterion"
        )
        object.__setattr__(self, "criteria_weights", weights)
        object.__setattr__(self, "matrices", matrices)
        _validate_sigma(self.sigma)
        _expect(self.mag_weights, MagWeights, "AhpProblem", "MagWeights")


@dataclass(frozen=True)
class AhpResult:
    local_weights: tuple[UtilityVector, ...]
    global_weights: tuple[TrFN, ...]
    ranking: Ranking

    @property
    def magnitudes(self) -> tuple[float, ...]:
        return self.ranking.magnitudes

    @property
    def per_criterion_objectives(self) -> tuple[float, ...]:
        return tuple(vec.objective for vec in self.local_weights)


def run_ahp(problem: AhpProblem) -> AhpResult:
    """Derive local weights per criterion, combine, and rank.

    Global weight ``i`` is the criteria-weighted componentwise sum of the
    local weights for alternative ``i``.  A refusal or pivot-budget error
    names its criterion.
    """
    _expect(problem, AhpProblem, "run_ahp", "an AhpProblem")
    local: list[UtilityVector] = []
    for k, y in enumerate(problem.matrices):
        local.append(located(f"criterion {k + 1}", derive_weights, y, problem.sigma))
    global_weights = combine_utilities(problem.criteria_weights, local)
    return AhpResult(tuple(local), global_weights, rank(global_weights, problem.mag_weights))


def _normalize(parts: np.ndarray) -> tuple[TrFN, ...]:
    # Fuzzy division of each positive trapezoid by the running total of all
    # of them: numerator components meet the mirrored denominator, widening
    # the result.
    total = np.cumsum(parts, axis=0)[-1]
    return tuple(TrFN(*row) for row in (parts / total[::-1]).tolist())


def amm_weights(y: TrMPR) -> tuple[TrFN, ...]:
    """Arithmetic-mean weights: fuzzy row sums over their grand total."""
    _require_kind(y, TrMPR, "amm_weights")
    return _normalize(np.cumsum(y.array, axis=1)[:, -1])


def gmm_weights(y: TrMPR) -> tuple[TrFN, ...]:
    """Geometric-mean weights: componentwise row geomeans over their total."""
    _require_kind(y, TrMPR, "gmm_weights")
    products = np.cumprod(y.array, axis=1)[:, -1].tolist()
    # Python's ``**`` on each component, not numpy's power, which can round
    # differently.
    return _normalize(np.array([[p ** (1.0 / y.n) for p in row] for row in products]))


def deviation(y: TrMPR | TrFPR, weights: tuple[TrFN, ...]) -> float:
    """Score a weight vector on the LAD objective of ``y``'s additive image.

    Lower is better; the LAD weights minimize exactly this quantity, so it
    serves as the common yardstick for comparing weighting methods.
    """
    return evaluate_objective(y, weights)
