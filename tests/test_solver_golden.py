"""Golden simplex runs: the exact pivots and answers on seeded programs.

``tests/solver_golden.json`` pins, for every program listed by
``golden_programs``, the solver's status, pivot count, ``repr`` of the
objective and a sha256 of ``x.tobytes()``, or the message of a pivot-budget
error.  The programs are the LAD deviation LPs of seeded relations (n 1-7,
every model ``build_lp`` states, continuous and lattice entries; lattice
entries make ratio ties and degenerate pivots common), a few random
box-bounded instances from ``test_simplex``, and small programs for the
paths those never reach: Bland's rule (a cycling instance, and LAD programs
solved with ``BLAND_AFTER`` patched to 0), infeasible and unbounded
programs, the cleanup of an artificial left basic after phase 1, the drop of
a redundant row, and an exhausted pivot budget (``MAX_PIVOTS`` patched to
1).  ``solve`` takes no options, so those runs patch the module constants.
Any change to the pivot sequence or to a single bit of an answer fails
here.  When such a change is intended, regenerate with

    PYTHONPATH=src:tests python tests/test_solver_golden.py

and review the diff of ``tests/solver_golden.json`` like any other change.
"""

import hashlib
import json
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fuzzylad import NeutralElement, TrFN, TrFPR, simplex
from fuzzylad.lad import Model, build_lp
from fuzzylad.errors import IterationLimitError
from fuzzylad.simplex import LinearProgram
from test_simplex import random_boxed_lp

GOLDEN = Path(__file__).resolve().parent / "solver_golden.json"
SIGMA = TrFN(0.8, 0.9, 1.1, 1.2)
MODELS = (Model.P0, Model.P, Model.PUNIT, Model.PSIGMA)
BOXED_SEEDS = (3, 11, 17, 29, 41, 53)
# (n, model, lattice) of LAD programs solved with Bland's rule from the start.
BLAND_LAD = ((3, Model.P0, False), (3, Model.PSIGMA, True), (4, Model.PUNIT, False),
             (4, Model.P, True), (5, Model.P, False))
# Small programs for the solver paths the LAD and box-bounded programs never
# reach: name, then the keyword arguments of ``LinearProgram`` and the
# solver constants patched for the run.
SMALL_PROGRAMS = (
    ("cycling instance, Bland's rule", dict(
        c=[-0.75, 150.0, -0.02, 6.0],
        a_ub=[[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
        b_ub=[0.0, 0.0, 1.0]), {}),
    ("infeasible: contradictory rows", dict(
        c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0]), {}),
    ("infeasible: row against bounds", dict(
        c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[-1.0]), {}),
    ("infeasible: equality conflict", dict(
        c=[1.0, 1.0], a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 2.0]), {}),
    ("unbounded: free descent", dict(c=[1.0], bounds=[(-np.inf, np.inf)]), {}),
    ("unbounded: ray in a cone", dict(
        c=[-1.0, -1.0], a_ub=[[1.0, -1.0]], b_ub=[1.0]), {}),
    ("redundant row dropped", dict(
        c=[1.0, 1.0], a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.0]), {}),
    ("leftover artificial pivoted out", dict(
        c=[3.0, 0.0, 2.0], a_eq=[[0.0, -2.0, -2.0]], b_eq=[0.0]), {}),
    ("leftover artificial pivoted out, then unbounded", dict(
        c=[2.0, -3.0, -1.0], a_ub=[[2.0, -2.0, 0.0], [0.0, -1.0, -1.0]], b_ub=[-1.0, 0.0],
        a_eq=[[-1.0, 0.0, 0.0], [1.0, 0.0, 1.0]], b_eq=[0.0, 1.0]), {}),
    ("pivot budget exhausted", dict(
        c=[-1.0, -1.0, -1.0],
        a_ub=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], b_ub=[1.0, 1.0, 1.0]),
        {"MAX_PIVOTS": 1}),
)


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


def lad_seed(n: int, model: Model, lattice: bool) -> int:
    return 100 * n + 10 * MODELS.index(model) + lattice


def lad_name(n: int, model: Model, lattice: bool) -> str:
    kind = "lattice" if lattice else "uniform"
    return f"lad n={n} {model.value} {kind} seed={lad_seed(n, model, lattice)}"


def golden_programs() -> list[tuple[str, partial, dict]]:
    """``(name, make, options)``; ``make()`` builds the program afresh and
    ``options`` maps solver constants to the values it is solved with."""
    programs = []
    for n in range(1, 8):
        for model in MODELS:
            for lattice in (False, True):
                make = partial(lad_program, lad_seed(n, model, lattice), n, lattice, model)
                programs.append((lad_name(n, model, lattice), make, {}))
    for seed in BOXED_SEEDS:
        programs.append((f"boxed seed={seed}", partial(boxed_program, seed), {}))
    for n, model, lattice in BLAND_LAD:
        make = partial(lad_program, lad_seed(n, model, lattice), n, lattice, model)
        programs.append((f"{lad_name(n, model, lattice)} bland_after=0", make,
                         {"BLAND_AFTER": 0}))
    for name, blocks, options in SMALL_PROGRAMS:
        programs.append((name, partial(LinearProgram, **blocks), options))
    return programs


def fingerprint(lp, **constants) -> dict:
    try:
        with mock.patch.multiple(simplex, **constants) if constants else nullcontext():
            sol = simplex.solve(lp)
    except IterationLimitError as exc:
        return {"error": str(exc)}
    return {
        "status": sol.status.value,
        "iterations": sol.iterations,
        "objective": repr(sol.objective_value),
        "x_sha256": None if sol.x is None else hashlib.sha256(sol.x.tobytes()).hexdigest(),
    }


def _golden() -> dict:
    # Missing only while the file is being regenerated from this module.
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


PROGRAMS = {name: (make, options) for name, make, options in golden_programs()}


def test_golden_covers_every_program():
    assert list(_golden()) == list(PROGRAMS)


@pytest.mark.parametrize("name", PROGRAMS)
def test_solve_matches_golden(name):
    make, options = PROGRAMS[name]
    assert fingerprint(make(), **options) == _golden()[name]


if __name__ == "__main__":
    entries = {name: fingerprint(make(), **options) for name, (make, options) in PROGRAMS.items()}
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} programs to {GOLDEN}")
