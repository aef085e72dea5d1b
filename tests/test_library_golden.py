"""Golden library results: the exact ``repr`` of every public result kind.

``tests/library_golden.json`` pins, for every case listed by
``library_cases``, the sha256 of the ``repr`` of one public result: a
``UtilityVector``, ``Ranking``, relation, ``BoundsReport``, ``AhpResult``,
weight tuple or float.  A ``repr`` prints every float exactly, so a change
to a single bit of any result fails here.  The relations are seeded draws
from ``conftest``'s generators, continuous and lattice: solves under every
model ``build_lp`` states at n 3, 4, 5 and 7, ``shift_normalize``,
``derive_weights``, ``rank``, the fast path, ``from_utilities``, groups,
``verify_bounds``, ``run_ahp`` and its baselines.  When an output change is
intended, regenerate with

    PYTHONPATH=src:tests python tests/test_library_golden.py

and review the diff of ``tests/library_golden.json`` like any other change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fuzzylad import (
    AhpProblem,
    GroupWeights,
    Model,
    TrFN,
    aggregate_relations,
    aggregate_utilities,
    amm_weights,
    derive_utility,
    derive_weights,
    deviation,
    fast_path_consistent,
    from_utilities,
    gmm_weights,
    rank,
    run_ahp,
    shift_normalize,
    to_multiplicative,
    verify_bounds,
)
from conftest import rand_consistent_trfpr, rand_neutral, rand_trfpr

GOLDEN = Path(__file__).resolve().parent / "library_golden.json"
SIGMA = TrFN(0.8, 0.9, 1.1, 1.2)
WEIGHTS = GroupWeights((0.5, 0.3, 0.2))


def _draw(seed: int, n: int, lattice: bool, consistent: bool = False, neutral=None):
    make = rand_consistent_trfpr if consistent else rand_trfpr
    return make(np.random.default_rng(seed), n, neutral=neutral, lattice=lattice)


def _group(seed: int, n: int, lattice: bool, consistent: bool = False):
    """Three relations of size ``n`` sharing one seeded neutral element."""
    rng = np.random.default_rng(seed)
    neutral = rand_neutral(rng, lattice=lattice)
    make = rand_consistent_trfpr if consistent else rand_trfpr
    return tuple(make(rng, n, neutral=neutral, lattice=lattice) for _ in range(3))


def library_cases() -> dict:
    """Case name -> a call returning one public result."""
    cases = {}
    for n in (3, 4, 5, 7):
        for lattice in (False, True):
            tag = f"n{n}-{'lattice' if lattice else 'continuous'}"
            x = _draw(100 + n, n, lattice)
            for model in (Model.P0, Model.P, Model.PUNIT, Model.PSIGMA):
                sigma = SIGMA if model is Model.PSIGMA else None
                cases[f"derive_utility-{model.value}-{tag}"] = (
                    lambda x=x, model=model, sigma=sigma: derive_utility(x, model, sigma)
                )
            cases[f"shift_normalize-{tag}"] = lambda x=x: shift_normalize(derive_utility(x, Model.P0))
            cases[f"rank-{tag}"] = lambda x=x: rank(derive_utility(x).utilities)
            y = to_multiplicative(x, 9)
            cases[f"derive_weights-{tag}"] = lambda y=y: derive_weights(y, SIGMA)
            cases[f"amm_weights-{tag}"] = lambda y=y: amm_weights(y)
            cases[f"gmm_weights-{tag}"] = lambda y=y: gmm_weights(y)
            cases[f"deviation-gmm-{tag}"] = lambda y=y: deviation(y, gmm_weights(y))
            c = _draw(200 + n, n, lattice, consistent=True)
            for k in (0, n - 1):
                cases[f"fast_path_consistent-k{k}-{tag}"] = lambda c=c, k=k: fast_path_consistent(c, k)
            cases[f"from_utilities-{tag}"] = lambda c=c: from_utilities(
                fast_path_consistent(c).utilities, c.neutral
            )
            if n <= 4:
                group = _group(300 + n, n, lattice)
                cases[f"verify_bounds-{tag}"] = lambda g=group: verify_bounds(g, WEIGHTS)
                cases[f"run_ahp-{tag}"] = lambda g=group: run_ahp(
                    AhpProblem(WEIGHTS, tuple(to_multiplicative(r, 9) for r in g), SIGMA)
                )
            consistent = _group(400 + n, n, lattice, consistent=True)
            cases[f"aggregate_utilities-fast-{tag}"] = lambda g=consistent: aggregate_utilities(
                [fast_path_consistent(r) for r in g], WEIGHTS, aggregate_relations(g, WEIGHTS)
            )
    return cases


def fingerprint(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()


def _golden() -> dict:
    # Missing only while the file is being regenerated from this module.
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


CASES = library_cases()


def test_golden_covers_every_case():
    assert list(_golden()) == list(CASES)


@pytest.mark.parametrize("name", list(_golden()))
def test_library_result_matches_golden(name):
    assert fingerprint(CASES[name]()) == _golden()[name]


if __name__ == "__main__":
    entries = {name: fingerprint(call()) for name, call in CASES.items()}
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} cases to {GOLDEN}")
