"""Golden CLI outputs and a reference check of the transitivity scan.

``tests/cli_golden.json`` pins the exit code, stdout and stderr of every
subcommand on every file in ``problems/``, in text and ``--json`` form,
plus the bytes ``convert --out`` writes.  A change that alters any of them
fails here.  When an output change is intended, regenerate the file with

    PYTHONPATH=src:tests python tests/test_golden.py

and review the diff of ``tests/cli_golden.json`` like any other change.

The property test compares ``check_consistency`` and
``check_consistency_mult`` with a plain triple loop written out below.
"""

import contextlib
import io
import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzylad import check_consistency, check_consistency_mult, to_multiplicative
from fuzzylad.cli import main
from conftest import rand_consistent_trfpr, rand_trfpr

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
OUT = "OUT"
SIGMA = "0.8,0.9,1.1,1.2"


def golden_cases() -> list[list[str]]:
    cases = []
    for path in sorted((ROOT / "problems").glob("*.json")):
        f = f"problems/{path.name}"
        commands = [
            ["validate", f],
            ["consistency", f],
            ["utility", f],
            *(["utility", f, "--model", m] for m in ("p0", "p", "punit")),
            ["utility", f, "--model", "psigma", "--sigma", SIGMA],
            ["weights", f],
            ["weights", f, "--sigma", SIGMA],
            ["ahp", f],
            ["ahp", f, "--compare"],
            ["convert", f, "--to", "multiplicative", "--scale", "9", "--out", OUT],
            ["convert", f, "--to", "additive", "--out", OUT],
        ]
        for argv in commands:
            cases.append(argv)
            cases.append(argv + ["--json"])
    return cases


def run_case(argv: list[str], out_path: Path) -> dict:
    """Run one CLI call from the repository root; ``OUT`` names ``out_path``."""
    real = [str(out_path) if a == OUT else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(real)
    finally:
        os.chdir(cwd)
    written = None
    if out_path.exists():
        written = out_path.read_text()
        out_path.unlink()
    return {
        "argv": argv,
        "code": code,
        "stdout": stdout.getvalue().replace(str(out_path), OUT),
        "stderr": stderr.getvalue().replace(str(out_path), OUT),
        "written": written,
    }


def _golden() -> list[dict]:
    # Missing only while the file is being regenerated from this module.
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_covers_every_case():
    assert [entry["argv"] for entry in _golden()] == golden_cases()


@pytest.mark.parametrize("entry", _golden(), ids=lambda e: " ".join(e["argv"]))
def test_cli_output_matches_golden(entry, tmp_path):
    assert run_case(entry["argv"], tmp_path / "out.json") == entry


# ---------------------------------------------------------------------------
# check_consistency against a plain triple loop
# ---------------------------------------------------------------------------


def reference_scan(relation, multiplicative: bool):
    """Worst violation and triple, by the documented rule, in plain Python.

    The violation of ``(i, j, k)`` compares ``x_ij (+|*) t0`` with
    ``x_ik (+|*) x_kj`` in mean absolute component distance.  The reported
    triple is the first, in ``(i, j, k)`` order, of three distinct indices
    within ``max(1e-15, 1e-9 * max)`` of the maximum, otherwise the first
    triple within that band.
    """
    n = relation.n
    e = [[relation.entry(i, j).components for j in range(n)] for i in range(n)]
    t0 = relation.neutral.value.components

    def combine(u, v):
        return [p * q if multiplicative else p + q for p, q in zip(u, v)]

    scored = []
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = combine(e[i][j], t0)
        rhs = combine(e[i][k], e[k][j])
        d = [abs(p - q) for p, q in zip(lhs, rhs)]
        scored.append(((d[0] + d[1] + d[2] + d[3]) / 4.0, (i, j, k)))
    worst = max(v for v, _ in scored)
    band = max(1e-15, 1e-9 * worst)
    near = [t for v, t in scored if v >= worst - band]
    distinct = [t for t in near if len(set(t)) == 3]
    return worst, (distinct or near)[0]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    consistent=st.booleans(),
    lattice=st.booleans(),
    multiplicative=st.booleans(),
)
def test_scan_matches_plain_triple_loop(seed, n, consistent, lattice, multiplicative):
    rng = np.random.default_rng(seed)
    make = rand_consistent_trfpr if consistent else rand_trfpr
    relation = make(rng, n, lattice=lattice)
    if multiplicative:
        relation = to_multiplicative(relation, 9)
        report = check_consistency_mult(relation)
    else:
        report = check_consistency(relation)
    worst, triple = reference_scan(relation, multiplicative)
    assert report.max_violation == worst
    assert report.worst_triple == triple
    assert report.consistent == (worst <= report.tol)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        entries = [run_case(argv, Path(scratch) / "out.json") for argv in golden_cases()]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} cases to {GOLDEN}")
