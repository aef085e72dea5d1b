"""Trapezoidal fuzzy numbers: arithmetic, distance, and magnitude ranking.

A trapezoidal fuzzy number ``T(a, b, c, d)`` has membership 1 on the core
``[b, c]`` and linear shoulders reaching 0 at ``a`` and ``d``.  All values
are immutable; every operation returns a fresh ``TrFN``.

Two conventions matter throughout the package:

* Subtraction is the fuzzy one, ``t1 - t2 = t1 + (-dual of t2)``, so the
  spread of a difference grows.  It is not componentwise subtraction.
* Ranking compares scalar magnitudes.  The magnitude is a weighted sum of
  the support and core midpoints; the default weights reproduce the
  classic ``(a + 5b + 5c + d) / 12`` formula.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError

__all__ = [
    "TrFN",
    "MagWeights",
    "Ranking",
    "DEFAULT_MAG_WEIGHTS",
    "DEFAULT_TIE_TOL",
    "add",
    "sub",
    "scale",
    "mul",
    "negate",
    "invert",
    "distance",
    "magnitude",
    "rank",
    "crisp",
]

# Absolute band for ranking ties; magnitudes of distinct alternatives that
# land closer than this are reported as tied rather than ordered by noise.
DEFAULT_TIE_TOL = 1e-9


def _float(value, what: str) -> float:
    """``value`` as a float, perhaps not finite; a ValidationError naming ``what`` otherwise."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"{what} does not fit in a float") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}={value!r} is not a real number") from exc


def _real(value, what: str) -> float:
    """``value`` as a finite float; a ValidationError naming ``what`` otherwise."""
    result = _float(value, what)
    if not math.isfinite(result):
        raise ValidationError(f"{what}={value!r} is not finite")
    return result


@dataclass(frozen=True)
class TrFN:
    """A trapezoidal fuzzy number with ordered components ``a <= b <= c <= d``."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _real(getattr(self, name), f"component {name}"))
        if not (self.a <= self.b <= self.c <= self.d):
            raise ValidationError(
                f"components must satisfy a <= b <= c <= d, got "
                f"({self.a}, {self.b}, {self.c}, {self.d})"
            )

    @property
    def components(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def __iter__(self):
        return iter(self.components)

    def __str__(self) -> str:
        return f"T({self.a}, {self.b}, {self.c}, {self.d})"


def _trfns(values, what: str = "utility") -> tuple[TrFN, ...]:
    """``values`` as a tuple of TrFNs; a ValidationError naming entry ``what k`` otherwise."""
    values = tuple(values)
    for k, t in enumerate(values):
        if not isinstance(t, TrFN):
            raise ValidationError(f"{what} {k + 1} is not a trapezoidal number")
    return values


def crisp(x: float) -> TrFN:
    """The degenerate trapezoid concentrated at ``x``."""
    return TrFN(x, x, x, x)


def add(t1: TrFN, t2: TrFN) -> TrFN:
    """Componentwise sum."""
    return TrFN(t1.a + t2.a, t1.b + t2.b, t1.c + t2.c, t1.d + t2.d)


def sub(t1: TrFN, t2: TrFN) -> TrFN:
    """Fuzzy difference: supports widen, ``(a1-d2, b1-c2, c1-b2, d1-a2)``."""
    return TrFN(t1.a - t2.d, t1.b - t2.c, t1.c - t2.b, t1.d - t2.a)


def scale(r: float, t: TrFN) -> TrFN:
    """Multiply every component by a strictly positive scalar ``r``."""
    r = _real(r, "scale factor")
    if r <= 0.0:
        raise ValidationError(f"scale factor must be a positive real, got {r}")
    return TrFN(r * t.a, r * t.b, r * t.c, r * t.d)


def _require_positive(t: TrFN, op: str) -> None:
    if t.a <= 0.0:
        raise ValidationError(f"{op} requires strictly positive components, got {t}")


def mul(t1: TrFN, t2: TrFN) -> TrFN:
    """Componentwise product of strictly positive trapezoids."""
    _require_positive(t1, "mul")
    _require_positive(t2, "mul")
    return TrFN(t1.a * t2.a, t1.b * t2.b, t1.c * t2.c, t1.d * t2.d)


def negate(t: TrFN) -> TrFN:
    """Standard negation ``(1-d, 1-c, 1-b, 1-a)``; an involution."""
    return TrFN(1.0 - t.d, 1.0 - t.c, 1.0 - t.b, 1.0 - t.a)


def invert(t: TrFN) -> TrFN:
    """Reciprocal ``(1/d, 1/c, 1/b, 1/a)`` of a strictly positive trapezoid."""
    _require_positive(t, "invert")
    return TrFN(1.0 / t.d, 1.0 / t.c, 1.0 / t.b, 1.0 / t.a)


def distance(t1: TrFN, t2: TrFN) -> float:
    """Mean absolute componentwise distance (normalized L1)."""
    return (
        abs(t1.a - t2.a) + abs(t1.b - t2.b) + abs(t1.c - t2.c) + abs(t1.d - t2.d)
    ) / 4.0


@dataclass(frozen=True)
class MagWeights:
    """Weights for the magnitude functional.

    ``w1`` weighs the support endpoints, ``w2`` the core endpoints; the
    normalization ``2 * (w1 + w2) = 1`` makes the magnitude of any
    negation-neutral trapezoid come out at exactly one half.
    """

    w1: float = 1.0 / 12.0
    w2: float = 5.0 / 12.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "w1", _real(self.w1, "magnitude weight w1"))
        object.__setattr__(self, "w2", _real(self.w2, "magnitude weight w2"))
        if self.w1 <= 0.0 or self.w2 <= 0.0:
            raise ValidationError(
                f"magnitude weights must be strictly positive, got ({self.w1}, {self.w2})"
            )
        if abs(2.0 * (self.w1 + self.w2) - 1.0) > 1e-12:
            raise ValidationError(
                f"magnitude weights must satisfy 2*(w1+w2) = 1, got 2*({self.w1}+{self.w2}) = "
                f"{2.0 * (self.w1 + self.w2)}"
            )


DEFAULT_MAG_WEIGHTS = MagWeights()


def magnitude(t: TrFN, weights: MagWeights = DEFAULT_MAG_WEIGHTS) -> float:
    """Scalar magnitude ``w1*(a+d) + w2*(b+c)`` used for ranking."""
    return weights.w1 * (t.a + t.d) + weights.w2 * (t.b + t.c)


@dataclass(frozen=True)
class Ranking:
    """A descending order over input indices, with near-equal magnitudes tied.

    ``groups`` holds 0-based input indices, best group first; indices inside
    one group are tied and kept in input order.  ``magnitudes`` is indexed by
    input position, not by rank.
    """

    groups: tuple[tuple[int, ...], ...]
    magnitudes: tuple[float, ...]

    def order(self) -> tuple[int, ...]:
        """All indices flattened, best first, ties in input order."""
        return tuple(i for group in self.groups for i in group)

    def label(self, prefix: str = "A") -> str:
        """Human-readable string such as ``A1 > A3 ~ A2``; labels are 1-based."""
        return " > ".join(
            " ~ ".join(f"{prefix}{i + 1}" for i in group) for group in self.groups
        )


def rank(
    values: Sequence[TrFN],
    weights: MagWeights = DEFAULT_MAG_WEIGHTS,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> Ranking:
    """Order ``values`` by decreasing magnitude.

    The sort is stable: among tied magnitudes the original input order is
    preserved, so appending a duplicate never reshuffles existing entries.
    Adjacent magnitudes closer than ``tie_tol`` fall into the same group.
    """
    values = _trfns(values, "rank: value")
    if not values:
        raise ValidationError("cannot rank an empty sequence")
    if not (isinstance(tie_tol, numbers.Real) and tie_tol >= 0.0):
        raise ValidationError(f"tie tolerance must be non-negative, got {tie_tol}")
    mags = tuple(magnitude(t, weights) for t in values)
    order = sorted(range(len(values)), key=lambda i: (-mags[i], i))
    groups: list[list[int]] = [[order[0]]]
    for idx in order[1:]:
        prev = groups[-1][-1]
        if mags[prev] - mags[idx] <= tie_tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return Ranking(tuple(tuple(g) for g in groups), mags)
