"""Shared fixtures and random generators for the test suite.

Reference data lives here so every test module reads the same matrices:
a 3x3 additive relation with a known worst triple, its consistent twin,
an exact ratio-scale relation built from powers of 9, and the three
4x4 ratio matrices of the portfolio walkthrough.
"""

import numpy as np
import pytest

from fuzzylad import (
    NeutralElement,
    TrFN,
    TrFPR,
    TrMPR,
    negate,
)


def trfn(a, b, c, d):
    return TrFN(a, b, c, d)


def _mirror_rows(upper, t0, n):
    """Fill a full matrix from diagonal value and upper-triangle entries."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = t0
    for (i, j), entry in upper.items():
        rows[i][j] = entry
        rows[j][i] = negate(entry)
    return tuple(tuple(r) for r in rows)


@pytest.fixture(scope="session")
def neutral_2112():
    return NeutralElement.additive(TrFN(0.2, 0.4, 0.6, 0.8))


@pytest.fixture(scope="session")
def neutral_4556():
    return NeutralElement.additive(TrFN(0.4, 0.5, 0.5, 0.6))


@pytest.fixture(scope="session")
def base_relation(neutral_4556):
    """3x3 additive relation used throughout; not consistent."""
    upper = {
        (0, 1): TrFN(0.6, 0.7, 0.7, 0.8),
        (0, 2): TrFN(0.6, 0.7, 0.8, 0.9),
        (1, 2): TrFN(0.5, 0.6, 0.7, 0.8),
    }
    return TrFPR(_mirror_rows(upper, neutral_4556.value, 3), neutral_4556)


@pytest.fixture(scope="session")
def consistent_relation(neutral_4556):
    """Consistent 3x3 twin of the base relation."""
    upper = {
        (0, 1): TrFN(0.6, 0.7, 0.7, 0.8),
        (0, 2): TrFN(0.7, 0.8, 0.8, 0.9),
        (1, 2): TrFN(0.5, 0.6, 0.6, 0.7),
    }
    return TrFPR(_mirror_rows(upper, neutral_4556.value, 3), neutral_4556)


@pytest.fixture(scope="session")
def ratio_neutral():
    p = 9.0 ** 0.2
    return NeutralElement.multiplicative(TrFN(1.0 / p, 1.0, 1.0, p), 9)


@pytest.fixture(scope="session")
def ratio_relation(ratio_neutral):
    """3x3 ratio-scale relation whose entries are exact powers of 9.

    Mapping it to the unit interval with base 9 gives back trapezoids
    whose components are exact multiples of 0.05, so round trips can be
    checked tightly.
    """
    s0 = ratio_neutral.value

    def p(e):
        return 9.0 ** e

    rows = (
        (s0, TrFN(p(0.2), p(0.4), p(0.4), p(0.6)), TrFN(p(0.2), p(0.4), p(0.6), p(0.8))),
        (TrFN(p(-0.6), p(-0.4), p(-0.4), p(-0.2)), s0, TrFN(p(0.0), p(0.2), p(0.4), p(0.6))),
        (TrFN(p(-0.8), p(-0.6), p(-0.4), p(-0.2)), TrFN(p(-0.6), p(-0.4), p(-0.2), p(0.0)), s0),
    )
    return TrMPR(rows, ratio_neutral)


def _ratio_matrix(cells, neutral):
    rows = []
    for line in cells:
        row = []
        for cell in line:
            row.append(neutral.value if cell is None else TrFN(*cell))
        rows.append(tuple(row))
    return TrMPR(tuple(rows), neutral)


@pytest.fixture(scope="session")
def portfolio(ratio_neutral):
    """Three 4x4 ratio matrices plus criteria weights and target sums."""
    f = lambda q: 1.0 / q
    y1 = _ratio_matrix(
        (
            (None, (f(3), f(2), f(2), 1), (2, 3, 3, 4), (3, 4, 5, 6)),
            ((1, 2, 2, 3), None, (4, 5, 6, 7), (5, 6, 7, 8)),
            ((f(4), f(3), f(3), f(2)), (f(7), f(6), f(5), f(4)), None, (1, 1, 2, 3)),
            ((f(6), f(5), f(4), f(3)), (f(8), f(7), f(6), f(5)), (f(3), f(2), 1, 1), None),
        ),
        ratio_neutral,
    )
    y2 = _ratio_matrix(
        (
            (None, (2, 3, 4, 5), (5, 6, 7, 8), (1, 1, 2, 3)),
            ((f(5), f(4), f(3), f(2)), None, (3, 4, 4, 5), (f(3), f(2), f(2), 1)),
            ((f(8), f(7), f(6), f(5)), (f(5), f(4), f(4), f(3)), None, (f(6), f(5), f(4), f(3))),
            ((f(3), f(2), 1, 1), (1, 2, 2, 3), (3, 4, 5, 6), None),
        ),
        ratio_neutral,
    )
    y3 = _ratio_matrix(
        (
            (None, (2, 3, 3, 4), (6, 7, 7, 8), (4, 5, 5, 6)),
            ((f(4), f(3), f(3), f(2)), None, (4, 5, 5, 6), (2, 3, 3, 4)),
            ((f(8), f(7), f(7), f(6)), (f(6), f(5), f(5), f(4)), None, (f(3), f(3), f(2), f(2))),
            ((f(6), f(5), f(5), f(4)), (f(4), f(3), f(3), f(2)), (2, 2, 3, 3), None),
        ),
        ratio_neutral,
    )
    return {
        "matrices": (y1, y2, y3),
        "criteria_weights": (0.5, 0.3, 0.2),
        "sigma": TrFN(0.8, 0.9, 1.1, 1.2),
    }


@pytest.fixture(scope="session")
def sigma_unit():
    return TrFN(0.8, 0.9, 1.1, 1.2)


# ---------------------------------------------------------------------------
# Random generators. Lattice variants keep every component an exact
# multiple of 2**-10, so identities that hold in real arithmetic hold
# bitwise in floats too.
# ---------------------------------------------------------------------------

LATTICE = 1024


def lattice_value(rng, lo, hi):
    lo_k = int(np.ceil(lo * LATTICE))
    hi_k = int(np.floor(hi * LATTICE))
    return int(rng.integers(lo_k, hi_k + 1)) / LATTICE


def rand_trfn(rng, lo=0.0, hi=1.0, lattice=False):
    if lattice:
        vals = sorted(lattice_value(rng, lo, hi) for _ in range(4))
    else:
        vals = np.sort(rng.uniform(lo, hi, size=4))
    return TrFN(*vals)


def rand_neutral(rng, lattice=False):
    """Random additive neutral element: a + d = 1 and b + c = 1."""
    if lattice:
        a = lattice_value(rng, 0.05, 0.45)
        b = lattice_value(rng, a, 0.5)
    else:
        a = rng.uniform(0.05, 0.45)
        b = rng.uniform(a, 0.5)
    return NeutralElement.additive(TrFN(a, b, 1.0 - b, 1.0 - a))


def rand_trfpr(rng, n, neutral=None, lattice=False):
    """Random reciprocal relation; generally not consistent."""
    if neutral is None:
        neutral = rand_neutral(rng, lattice=lattice)
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            upper[(i, j)] = rand_trfn(rng, lattice=lattice)
    return TrFPR(_mirror_rows(upper, neutral.value, n), neutral)


def relabel(x, perm):
    """``x`` with its alternatives reordered: alternative ``perm[i]`` becomes alternative ``i``."""
    return type(x)(tuple(tuple(x.entry(p, q) for q in perm) for p in perm), x.neutral)


def rand_consistent_trfpr(rng, n, neutral=None, lattice=False, spread=None):
    """Random consistent relation built from per-alternative scores.

    Entry (i, j) is (fi - fj + t0.a, gi - gj + t0.b, gi - gj + t0.c,
    fi - fj + t0.d), which satisfies the additive transitivity identity
    by construction.
    """
    if neutral is None:
        neutral = rand_neutral(rng, lattice=lattice)
    t0 = neutral.value
    half_f = t0.a / 2.0
    half_g = (t0.b - t0.a) / 2.0

    def draw(lo, hi):
        if lattice:
            return lattice_value(rng, lo, hi)
        return float(rng.uniform(lo, hi))

    f = [draw(-half_f, half_f) for _ in range(n)]
    g = [f[i] + draw(-half_g, half_g) for i in range(n)]
    if spread is not None:
        f = [spread * i for i in range(n)]
        g = list(f)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = t0
    for i in range(n):
        for j in range(i + 1, n):
            df = f[i] - f[j]
            dg = g[i] - g[j]
            entry = TrFN(df + t0.a, dg + t0.b, dg + t0.c, df + t0.d)
            rows[i][j] = entry
            rows[j][i] = negate(entry)
    return TrFPR(tuple(tuple(r) for r in rows), neutral)
