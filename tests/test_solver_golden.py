"""Golden simplex runs: the exact pivots and answers on seeded programs.

``tests/solver_golden.json`` pins, for every program listed by
``golden_programs``, the solver's status, pivot count, ``repr`` of the
objective and a sha256 of ``x.tobytes()``.  The programs are the LAD
deviation LPs of seeded relations (n 1-7, every model ``build_lp`` states,
continuous and lattice entries; lattice entries make ratio ties and
degenerate pivots common) and a few random box-bounded instances from
``test_simplex``.  Any change to the pivot sequence or to a single bit of
an answer fails here.  When such a change is intended, regenerate with

    PYTHONPATH=src:tests python tests/test_solver_golden.py

and review the diff of ``tests/solver_golden.json`` like any other change.
"""

import hashlib
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from fuzzylad import NeutralElement, TrFN, TrFPR
from fuzzylad.lad import Model, build_lp
from fuzzylad.simplex import solve
from test_simplex import random_boxed_lp

GOLDEN = Path(__file__).resolve().parent / "solver_golden.json"
SIGMA = TrFN(0.8, 0.9, 1.1, 1.2)
MODELS = (Model.P0, Model.P, Model.PUNIT, Model.PSIGMA)
BOXED_SEEDS = (3, 11, 17, 29, 41, 53)


def seeded_relation(seed: int, n: int, lattice: bool) -> TrFPR:
    """Inconsistent additive relation; lattice entries are multiples of 1/20."""
    rng = np.random.default_rng(seed)
    if lattice:
        a = int(rng.integers(1, 10)) / 20.0
        b = int(rng.integers(round(a * 20), 11)) / 20.0
        upper = np.sort(rng.integers(0, 21, size=(n, n, 4)), axis=2) / 20.0
    else:
        a = float(rng.uniform(0.05, 0.45))
        b = float(rng.uniform(a, 0.5))
        upper = np.sort(rng.uniform(0.0, 1.0, size=(n, n, 4)), axis=2)
    return TrFPR.from_upper(upper, NeutralElement.additive(TrFN(a, b, 1.0 - b, 1.0 - a)))


def lad_program(seed: int, n: int, lattice: bool, model: Model):
    sigma = SIGMA if model is Model.PSIGMA else None
    return build_lp(seeded_relation(seed, n, lattice), model, sigma)


def boxed_program(seed: int):
    return random_boxed_lp(np.random.default_rng(seed))


def golden_programs() -> list[tuple[str, partial]]:
    """``(name, make)`` pairs; ``make()`` builds the program afresh."""
    programs = []
    for n in range(1, 8):
        for m, model in enumerate(MODELS):
            for lattice in (False, True):
                seed = 100 * n + 10 * m + lattice
                kind = "lattice" if lattice else "uniform"
                name = f"lad n={n} {model.value} {kind} seed={seed}"
                programs.append((name, partial(lad_program, seed, n, lattice, model)))
    for seed in BOXED_SEEDS:
        programs.append((f"boxed seed={seed}", partial(boxed_program, seed)))
    return programs


def fingerprint(lp) -> dict:
    sol = solve(lp)
    return {
        "status": sol.status.value,
        "iterations": sol.iterations,
        "objective": repr(sol.objective_value),
        "x_sha256": None if sol.x is None else hashlib.sha256(sol.x.tobytes()).hexdigest(),
    }


def _golden() -> dict:
    # Missing only while the file is being regenerated from this module.
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


PROGRAMS = dict(golden_programs())


def test_golden_covers_every_program():
    assert list(_golden()) == list(PROGRAMS)


@pytest.mark.parametrize("name", PROGRAMS)
def test_solve_matches_golden(name):
    assert fingerprint(PROGRAMS[name]()) == _golden()[name]


if __name__ == "__main__":
    entries = {name: fingerprint(make()) for name, make in PROGRAMS.items()}
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} programs to {GOLDEN}")
