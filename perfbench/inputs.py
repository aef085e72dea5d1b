"""Seeded input generators for the benchmark.

Everything here depends only on numpy and the package's public types, never
on the test suite, so editing tests cannot change what the benchmark runs.
The same seed always yields the same inputs.

Request kinds come in blocks: each block holds every kind exactly once, so a
pool cycled any number of times keeps the exact mix.  Inside a block the
kinds follow a golden-ratio sequence, so every prefix of a block holds each
stretch of the kind list in almost exactly its share too, whatever the seed.
The seed moves the start of the sequence and draws every relation entry.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from fuzzylad import NeutralElement, TrFN, TrFPR, TrMPR, invert, negate

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SCALE = 9
SIGMA = TrFN(0.8, 0.9, 1.1, 1.2)


def kind_sequence(rng: np.random.Generator, kinds: list, count: int) -> list:
    """``count`` picks from ``kinds`` in repeated blocks, each a permutation of them.

    Position ``j`` of a block takes the kind whose index is the rank of
    ``(start + j * GOLDEN) mod 1`` among the block's values, which spreads
    consecutive picks evenly over the kind list.
    """
    start = float(rng.random())
    values = [(start + j * GOLDEN) % 1.0 for j in range(len(kinds))]
    ranks = {j: r for r, j in enumerate(sorted(range(len(kinds)), key=values.__getitem__))}
    return [kinds[ranks[k % len(kinds)]] for k in range(count)]


def rand_neutral(rng: np.random.Generator) -> NeutralElement:
    """Additive neutral element ``(a, b, 1 - b, 1 - a)`` with ``a < b <= 1/2``."""
    a = float(rng.uniform(0.05, 0.45))
    b = float(rng.uniform(a, 0.5))
    return NeutralElement.additive(TrFN(a, b, 1.0 - b, 1.0 - a))


def _mirrored(upper: dict, diagonal: TrFN, n: int, mirror) -> tuple:
    rows = [[diagonal] * n for _ in range(n)]
    for (i, j), entry in upper.items():
        rows[i][j] = entry
        rows[j][i] = mirror(entry)
    return tuple(tuple(row) for row in rows)


def rand_relation(
    rng: np.random.Generator, n: int, neutral: NeutralElement | None = None
) -> TrFPR:
    """Additive relation with independent uniform upper entries; inconsistent."""
    neutral = neutral or rand_neutral(rng)
    upper = {
        (i, j): TrFN(*np.sort(rng.uniform(0.0, 1.0, 4)))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return TrFPR(_mirrored(upper, neutral.value, n, negate), neutral)


def rand_consistent(rng: np.random.Generator, n: int, neutral: NeutralElement) -> TrFPR:
    """Consistent additive relation built from per-alternative scores.

    Entry ``(i, j)`` is ``(fi - fj + t0.a, gi - gj + t0.b, gi - gj + t0.c,
    fi - fj + t0.d)``, which satisfies ``x_ij + t0 = x_ik + x_kj`` for every
    triple; the score ranges keep every component inside ``[0, 1]``.
    """
    t0 = neutral.value
    f = rng.uniform(-t0.a / 2.0, t0.a / 2.0, n)
    g = f + rng.uniform(-(t0.b - t0.a) / 2.0, (t0.b - t0.a) / 2.0, n)
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            df, dg = float(f[i] - f[j]), float(g[i] - g[j])
            upper[(i, j)] = TrFN(df + t0.a, dg + t0.b, dg + t0.c, df + t0.d)
    return TrFPR(_mirrored(upper, t0, n, negate), neutral)


def _to_ratio(t: TrFN) -> TrFN:
    return TrFN(*(float(SCALE) ** (2.0 * v - 1.0) for v in t.components))


def rand_ratio_relation(
    rng: np.random.Generator, n: int, neutral: NeutralElement | None = None
) -> TrMPR:
    """Multiplicative relation on ``[1/9, 9]``: an additive one mapped by ``9 ** (2x - 1)``."""
    neutral = neutral or rand_neutral(rng)
    upper = {
        (i, j): _to_ratio(TrFN(*np.sort(rng.uniform(0.0, 1.0, 4))))
        for i in range(n)
        for j in range(i + 1, n)
    }
    ratio_neutral = NeutralElement.multiplicative(_to_ratio(neutral.value), SCALE)
    return TrMPR(_mirrored(upper, ratio_neutral.value, n, invert), ratio_neutral)


def rand_criteria_weights(rng: np.random.Generator, count: int) -> tuple[float, ...]:
    """Positive weights summing to one within float rounding."""
    raw = rng.integers(1, 10, count).astype(float)
    weights = raw / raw.sum()
    weights[-1] = 1.0 - float(weights[:-1].sum())
    return tuple(float(w) for w in weights)


def _matrix(relation) -> list:
    return [[list(entry.components) for entry in row] for row in relation.entries]


def write_problem(path: Path, relation) -> None:
    """Write one additive or multiplicative relation as a problem file, with ``SIGMA``."""
    data: dict = {"kind": "additive" if isinstance(relation, TrFPR) else "multiplicative"}
    data["n"] = relation.n
    if isinstance(relation, TrMPR):
        data["scale"] = relation.scale
    data["neutral"] = list(relation.neutral.value.components)
    data["matrix"] = _matrix(relation)
    data["sigma"] = list(SIGMA.components)
    path.write_text(json.dumps(data))


def write_ahp_problem(path: Path, matrices: tuple[TrMPR, ...], weights: tuple[float, ...]) -> None:
    """Write a hierarchy of ratio-scale relations sharing one neutral element."""
    first = matrices[0]
    data = {
        "kind": "ahp",
        "n": first.n,
        "scale": first.scale,
        "neutral": list(first.neutral.value.components),
        "criteria_weights": list(weights),
        "sigma": list(SIGMA.components),
        "matrices": [_matrix(y) for y in matrices],
    }
    path.write_text(json.dumps(data))
