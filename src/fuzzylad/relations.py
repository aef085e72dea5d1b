"""Pairwise preference relations with trapezoidal fuzzy entries.

Two reciprocal forms are supported:

* additive: entries live in ``[0, 1]`` and mirror under the standard
  negation; the diagonal holds a decision-maker-chosen neutral trapezoid
  (a fixed point of negation) rather than the crisp 0.5.
* multiplicative: entries live in ``[1/m, m]`` for an integer scale
  ``m >= 2`` and mirror under inversion; the diagonal holds a neutral
  trapezoid that is a fixed point of inversion.

The exponential map ``phi`` and its inverse translate between the two
forms and preserve reciprocity, neutrality, and transitivity, so either
side can be checked or solved and the verdict carries over.

A relation is stored as one read-only ``(n, n, 4)`` float64 array holding
``x_ij`` as ``[a, b, c, d]`` at cell ``(i, j)``; ``entries`` views it as TrFNs.

Index conventions: matrix positions are 0-based throughout the API, while
error messages and reports quote 1-based coordinates, which is how the
alternatives are labelled in CLI output.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OutOfUnitIntervalError, ValidationError, _expect, _items
from .trfn import TrFN, _float, _trfns

__all__ = [
    "NeutralElement",
    "TrFPR",
    "TrMPR",
    "ConsistencyReport",
    "ADDITIVE_TOL",
    "MULTIPLICATIVE_RTOL",
    "DEFAULT_CONSISTENCY_TOL",
    "phi",
    "phi_inv",
    "to_multiplicative",
    "to_additive",
    "check_consistency",
    "check_consistency_mult",
    "from_utilities",
]

# Absolute band for checks on the [0, 1] scale.  Decimal literals such as
# 0.2 and 1 - 0.8 differ by a few ulp once stored as binary floats, so a
# mathematically exact identity can only be enforced up to this dust.
ADDITIVE_TOL = 1e-12

# Relative band for checks on the ratio scale, whose entries are typically
# irrational powers of the scale and round independently on each side of
# an identity.
MULTIPLICATIVE_RTOL = 1e-9

# Default threshold below which a transitivity violation counts as noise.
DEFAULT_CONSISTENCY_TOL = 1e-9


def _close_abs(u, v):
    return np.abs(u - v) <= ADDITIVE_TOL


def _close_rel(u, v):
    return np.abs(u - v) <= MULTIPLICATIVE_RTOL * np.maximum(np.maximum(1.0, np.abs(u)), np.abs(v))


def _bounds(scale: int | None) -> tuple[float, float, str]:
    """Entry range with its rounding band: ``[0, 1]``, or ``[1/m, m]`` for a scale."""
    if scale is None:
        return -ADDITIVE_TOL, 1.0 + ADDITIVE_TOL, "[0, 1]"
    lo, hi = 1.0 / float(scale), float(scale)
    return lo * (1.0 - MULTIPLICATIVE_RTOL), hi * (1.0 + MULTIPLICATIVE_RTOL), f"[1/{scale}, {scale}]"


def _distance(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """``trfn.distance`` over the last axis, summed in the same order."""
    d = t1 - t2
    np.abs(d, out=d)
    return (d[..., 0] + d[..., 1] + d[..., 2] + d[..., 3]) / 4.0


def _upper(n: int) -> np.ndarray:
    return np.arange(n)[:, None] < np.arange(n)


def _cells(array) -> np.ndarray:
    """``array`` as a float64 ``(n, n, 4)`` array with ``n >= 1``, else a ValidationError.

    A float64 array comes back as itself, so a caller that writes copies it.
    """
    try:
        cells = np.asarray(array, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"a preference relation needs a numeric array: {exc}") from exc
    if cells.shape[:1] == (0,):
        raise ValidationError("a preference relation needs at least one alternative")
    if cells.shape != cells.shape[:1] * 2 + (4,):
        shape = cells.shape
        raise ValidationError(f"a preference relation needs an (n, n, 4) array, got shape {shape}")
    return cells


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first true element of ``mask`` in row-major order."""
    return tuple(np.argwhere(mask)[0].tolist()) if mask.any() else None


@dataclass(frozen=True)
class NeutralElement:
    """The diagonal element of a preference relation; its scale decides its kind.

    With no scale it is a fixed point of negation on ``[0, 1]`` (``a + d = 1``
    and ``b + c = 1``); with a scale ``m``, a fixed point of inversion on
    ``[1/m, m]`` (``a * d = 1`` and ``b * c = 1``).
    """

    value: TrFN
    scale: int | None = None

    def __post_init__(self) -> None:
        _expect(self.value, TrFN, "NeutralElement", "a trapezoidal number")
        if self.scale is not None:
            _check_scale(self.scale)
        t, rule = self.value, self._relation
        lo, hi, span = _bounds(self.scale)
        if t.a < lo or t.d > hi:
            raise ValidationError(f"neutral element {t} leaves {span}")
        if not rule._close(rule._combine([t.a, t.b], [t.d, t.c]), 1.0).all():
            raise ValidationError(f"neutral element {t} is not a fixed point of {rule._fixed_rule}")

    @property
    def _relation(self) -> type:
        """The relation class whose diagonal this neutral can hold."""
        return TrFPR if self.scale is None else TrMPR

    @property
    def kind(self) -> str:
        """``"additive"`` without a scale, ``"multiplicative"`` with one."""
        return self._relation._kind

    @classmethod
    def additive(cls, value: TrFN) -> "NeutralElement":
        return cls(value)

    @classmethod
    def multiplicative(cls, value: TrFN, scale: int) -> "NeutralElement":
        _check_scale(scale)
        return cls(value, scale)


@dataclass(frozen=True, eq=False, init=False)
class _Relation:
    """Array storage and the one validation routine of both kinds of relation."""

    _kind_phrase = "a preference"
    array: np.ndarray
    neutral: NeutralElement

    def __init__(self, entries: Sequence[Sequence[TrFN]], neutral: NeutralElement) -> None:
        where = type(self).__name__
        rows = tuple(_items(row, where) for row in _items(entries, where))
        for i, row in enumerate(rows):
            if len(row) != len(rows):
                raise ValidationError(f"row {i + 1} has {len(row)} entries, expected {len(rows)}")
            for j, entry in enumerate(row):
                if not isinstance(entry, TrFN):
                    raise ValidationError(f"entry ({i + 1},{j + 1}) is not a trapezoidal number")
        self._store(np.array([[entry.components for entry in row] for row in rows]), neutral)

    @classmethod
    def _of(cls, array: np.ndarray, neutral: NeutralElement):
        relation = object.__new__(cls)
        relation._store(array, neutral)
        return relation

    @classmethod
    def from_upper(cls, array: np.ndarray, neutral: NeutralElement):
        """Upper triangle from ``array``, mirrored exactly below, ``neutral`` on the diagonal."""
        cls._check_neutral(neutral)
        full = _cells(array).copy()
        n = len(full)
        i, j = np.nonzero(_upper(n))
        full[j, i] = cls._mirror(full[i, j])
        full[range(n), range(n)] = neutral.value.components
        return cls._of(full, neutral)

    @classmethod
    def _check_neutral(cls, neutral: NeutralElement) -> None:
        if not isinstance(neutral, NeutralElement) or neutral._relation is not cls:
            phrase = cls._kind_phrase
            raise ValidationError(f"{phrase} relation needs {phrase} neutral element")

    def _store(self, array: np.ndarray, neutral: NeutralElement) -> None:
        self._check_neutral(neutral)
        array = _cells(array)
        array.flags.writeable = False
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "neutral", neutral)
        hit = _first((array[..., :-1] > array[..., 1:]).any(axis=2))
        if hit:
            raise ValidationError(
                f"entry ({hit[0] + 1},{hit[1] + 1}): components must satisfy a <= b <= c <= d, "
                f"got {tuple(array[hit].tolist())}"
            )
        lo, hi, span = _bounds(neutral.scale)
        hit = _first((array[..., 0] < lo) | (array[..., 3] > hi))
        if hit:
            i, j = hit
            raise ValidationError(f"entry ({i + 1},{j + 1}) = {self.entry(i, j)} leaves {span}")
        t0 = neutral.value
        hit = _first(~self._close(array.diagonal().T, np.array(t0.components)).all(axis=1))
        if hit:
            (k,) = hit
            raise ValidationError(
                f"diagonal entry ({k + 1},{k + 1}) = {self.entry(k, k)} must equal the "
                f"neutral element {t0}"
            )
        mirrored = ~self._close(array.transpose(1, 0, 2), self._mirror(array)).all(axis=2)
        hit = _first(mirrored & _upper(len(array)))
        if hit:
            i, j = hit
            raise ValidationError(
                f"entry ({j + 1},{i + 1}) = {self.entry(j, i)} is not the "
                f"{self._mirror_word} of entry ({i + 1},{j + 1}) = {self.entry(i, j)}"
            )

    @property
    def entries(self) -> tuple[tuple[TrFN, ...], ...]:
        """The entries as rows of ``TrFN``, built from the array on each use."""
        return tuple(tuple(TrFN(*cell) for cell in row) for row in self.array.tolist())

    @property
    def n(self) -> int:
        return len(self.array)

    def entry(self, i: int, j: int) -> TrFN:
        return TrFN(*self.array[i, j].tolist())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.neutral == other.neutral and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        # Python floats hash -0.0 and 0.0 alike, as np.array_equal compares them.
        return hash((tuple(self.array.ravel().tolist()), self.neutral))


class TrFPR(_Relation):
    """An additive reciprocal preference relation over ``n`` alternatives."""

    _kind, _kind_phrase, _mirror_word = "additive", "an additive", "negation"
    _fixed_rule = "negation (needs a + d = 1 and b + c = 1)"
    _combine = np.add
    _close = staticmethod(_close_abs)
    _mirror = staticmethod(lambda cells: 1.0 - cells[..., ::-1])


class TrMPR(_Relation):
    """A multiplicative reciprocal preference relation on the scale ``[1/m, m]``."""

    _kind, _kind_phrase, _mirror_word = "multiplicative", "a multiplicative", "inverse"
    _fixed_rule = "inversion (needs a * d = 1 and b * c = 1)"
    _combine = np.multiply
    _close = staticmethod(_close_rel)
    _mirror = staticmethod(lambda cells: 1.0 / cells[..., ::-1])

    @property
    def scale(self) -> int:
        return self.neutral.scale


def _check_scale(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise ValidationError(f"scale must be an integer >= 2, got {m!r}")
    if m > sys.float_info.max:
        raise ValidationError(f"scale must fit in a float, got a {m.bit_length()}-bit integer")


def _require_kind(relation, cls: type, where: str) -> None:
    _expect(relation, cls, where, f"{cls._kind_phrase} relation")


def phi(x: float, m: int) -> float:
    """Map a unit-interval score to the ratio scale: ``m ** (2x - 1)``."""
    _check_scale(m)
    x = _float(x, "phi argument x")
    lo, hi, span = _bounds(None)
    if not lo <= x <= hi:
        raise ValidationError(f"phi expects a value in {span}, got {x}")
    x = min(max(x, 0.0), 1.0)
    return float(m) ** (2.0 * x - 1.0)


def phi_inv(y: float, m: int) -> float:
    """Inverse map, ``1/2 + log_m(y) / 2``, clamped against rounding dust."""
    _check_scale(m)
    y = _float(y, "phi_inv argument y")
    lo, hi, span = _bounds(m)
    if not lo <= y <= hi:
        raise ValidationError(f"phi_inv expects a value in {span}, got {y}")
    x = 0.5 + 0.5 * math.log(y) / math.log(m)
    return min(max(x, 0.0), 1.0)


def _each(fn, cells: np.ndarray, m: int) -> np.ndarray:
    # The scalar maps stay in Python floats: numpy's power and log may
    # round differently from math and ``**``.
    return np.reshape([fn(v, m) for v in cells.ravel().tolist()], cells.shape)


def to_multiplicative(x: TrFPR, m: int) -> TrMPR:
    """Map every entry of an additive relation to the scale ``[1/m, m]``."""
    _require_kind(x, TrFPR, "to_multiplicative")
    neutral = NeutralElement.multiplicative(TrFN(*(phi(v, m) for v in x.neutral.value)), m)
    return TrMPR._of(_each(phi, x.array, m), neutral)


def to_additive(y: TrMPR) -> TrFPR:
    """Map a multiplicative relation back to the unit interval.

    The lower triangle is rebuilt as the negation of the mapped upper
    triangle and the diagonal is set to the mapped neutral element, which
    keeps the additive reciprocity identities exact instead of losing them
    to independent rounding of each entry.
    """
    _require_kind(y, TrMPR, "to_additive")
    m = y.neutral.scale
    s0 = y.neutral.value
    pa = phi_inv(s0.a, m)
    pb = min(phi_inv(s0.b, m), 0.5)
    pa = min(pa, pb)
    t0 = TrFN(pa, pb, 1.0 - pb, 1.0 - pa)
    i, j = np.nonzero(_upper(y.n))
    upper = np.zeros_like(y.array)
    upper[i, j] = _each(phi_inv, y.array[i, j], m)
    return TrFPR.from_upper(upper, NeutralElement.additive(t0))


@dataclass(frozen=True)
class ConsistencyReport:
    """Result of a transitivity scan over all ordered index triples."""

    max_violation: float
    worst_triple: tuple[int, int, int]
    tol: float

    @property
    def consistent(self) -> bool:
        return self.max_violation <= self.tol

    def describe(self) -> str:
        verdict = "consistent" if self.consistent else "inconsistent"
        i, j, k = self.worst_triple
        return (
            f"{verdict}; max violation {self.max_violation:.6g} "
            f"at triple ({i + 1}, {j + 1}, {k + 1})"
        )


def _scan_triples(relation, tol: float, where: str) -> ConsistencyReport:
    _require_kind(relation, _Relation, where)
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 <= tol < math.inf):
        raise ValidationError(f"tolerance must be finite and non-negative, got {tol}")
    # violation[i, j, k] compares x_ij (.) t0 with x_ik (.) x_kj, (.) the relation's own.
    array, combine = relation.array, relation._combine
    lhs = combine(array, np.array(relation.neutral.value.components))[:, :, None, :]
    rhs = combine(array[:, None, :, :], array.transpose(1, 0, 2)[None, :, :, :])
    violation = _distance(lhs, rhs)
    max_violation = float(violation.max())
    # Several triples usually attain the maximum up to rounding; report the
    # first (in index order) triple of three distinct indices among them,
    # since those are the informative ones, and fall back to the first
    # maximal triple of any shape.
    band = max(1e-15, 1e-9 * max_violation)
    near = violation >= max_violation - band
    i, j, k = np.ogrid[: len(array), : len(array), : len(array)]
    worst = _first(near & (i != j) & (j != k) & (i != k)) or _first(near)
    return ConsistencyReport(max_violation, worst, tol)


def check_consistency(
    x: TrFPR | TrMPR, tol: float = DEFAULT_CONSISTENCY_TOL
) -> ConsistencyReport:
    """Scan all triples for ``x_ij + t0 = x_ik + x_kj``, or ``y_ij * s0 = y_ik * y_kj``."""
    return _scan_triples(x, tol, "check_consistency")


def check_consistency_mult(y: TrMPR, tol: float = DEFAULT_CONSISTENCY_TOL) -> ConsistencyReport:
    """``check_consistency`` under its ratio-scale name."""
    return _scan_triples(y, tol, "check_consistency_mult")


def from_utilities(utilities: Sequence[TrFN], neutral: NeutralElement) -> TrFPR:
    """Rebuild the consistent relation a utility vector encodes.

    Entry ``(i, j)`` is ``u_i + (u_j negated) + t0 negated``, evaluated
    componentwise with the mirror pairing ``a <-> d`` and ``b <-> c``.  The
    utilities must share the neutral element's support and core spreads,
    otherwise no relation with that diagonal exists, and every produced
    component must land in ``[0, 1]``.
    """
    if not isinstance(neutral, NeutralElement) or neutral.scale is not None:
        raise ValidationError("from_utilities needs an additive neutral element")
    utilities = _trfns(utilities, "from_utilities")
    if not utilities:
        raise ValidationError("from_utilities needs at least one utility")
    t0 = neutral.value
    support_spread = t0.d - t0.a
    core_spread = t0.c - t0.b
    for k, u in enumerate(utilities):
        if abs((u.d - u.a) - support_spread) > 1e-9 or abs((u.c - u.b) - core_spread) > 1e-9:
            raise ValidationError(
                f"utility {k + 1} = {u} has spreads incompatible with the neutral "
                f"element {t0}; the rebuilt diagonal would not be neutral"
            )
    n = len(utilities)
    u = np.array([t.components for t in utilities])
    cells = u[:, None, :] + (1.0 - u[None, :, ::-1]) - np.array(t0.components)
    off_diagonal = ~np.eye(n, dtype=bool)[:, :, None]
    lo, hi, _ = _bounds(None)
    hit = _first(off_diagonal & ((cells < lo) | (cells > hi)))
    if hit:
        i, j, c = hit
        raise OutOfUnitIntervalError(
            f"entry ({i + 1},{j + 1}) component {float(cells[i, j, c])} leaves [0, 1]; "
            f"the utilities are too spread out for this neutral element"
        )
    cells = np.minimum(np.maximum(cells, 0.0), 1.0)
    cells[range(n), range(n)] = t0.components
    return TrFPR._of(cells, neutral)
