"""Reading and writing JSON problem files.

A problem file is a JSON object with a ``kind`` of ``additive``,
``multiplicative``, or ``ahp``.  Every trapezoid is a 4-element array in
``[a, b, c, d]`` order.  Components may be plain numbers or strings:
``"1/3"`` is an exact fraction and ``"9^0.2"`` a power, both converted to
binary floating point once, which keeps scale values such as ninth roots
exact to the last ulp instead of accumulating decimal-literal error.

Non-finite values (NaN, infinities, overflowing powers such as
``"9^1000"``) and complex results such as ``"-8^0.5"`` are rejected with
the name of the field.

Field summary (the README's "Problem files" section has the full table):

* common: ``kind``, ``n``, ``neutral``; optional ``sigma``,
  ``mag_weights``.
* additive: ``matrix`` (n rows of n trapezoids).
* multiplicative: ``scale`` plus ``matrix``.
* ahp: ``scale``, ``matrices`` (one per criterion), ``criteria_weights``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError, _expect, located
from .group import convex_weights
from .lad import _validate_sigma
from .relations import NeutralElement, TrFPR, TrMPR, _Relation, _require_kind
from .trfn import MagWeights, TrFN

__all__ = ["LoadedProblem", "load_problem", "save_problem", "parse_scalar", "relation_to_dict"]

KINDS = ("additive", "multiplicative", "ahp")


@dataclass(frozen=True)
class LoadedProblem:
    """A parsed problem file; its ``kind`` and ``n`` are read from the relation or matrices."""

    relation: TrFPR | TrMPR | None
    matrices: tuple[TrMPR, ...] | None
    criteria_weights: tuple[float, ...] | None
    sigma: TrFN | None
    mag_weights: MagWeights | None

    @property
    def kind(self) -> str:
        return "ahp" if self.relation is None else self.relation.neutral.kind

    @property
    def n(self) -> int:
        return (self.matrices[0] if self.relation is None else self.relation).n


def parse_scalar(value, where: str) -> float:
    """Parse one numeric component: number, ``"p/q"`` or ``"base^exp"``.

    Anything that does not evaluate to a number, overflow included, raises
    ParseError; NaN, infinities and complex results raise ValidationError.
    Both messages start with ``where``.
    """
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    if not isinstance(value, (int, float, str)):
        raise ParseError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        if not isinstance(value, str):
            result = float(value)
        elif "^" in value:
            base_text, _, exp_text = value.partition("^")
            result = float(base_text) ** float(exp_text)
        elif "/" in value:
            result = float(Fraction(value))
        else:
            result = float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"{where}: cannot parse {value!r} as a number") from exc
    if not isinstance(result, float) or not math.isfinite(result):
        raise ValidationError(f"{where}: {value!r} is not a finite real number")
    return result


def _parse_components(value, where: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ParseError(f"{where}: expected a 4-element array [a, b, c, d]")
    return [parse_scalar(v, where) for v in value]


def _parse_trfn(value, where: str) -> TrFN:
    return located(where, TrFN, *_parse_components(value, where))


def _parse_matrix(value, n: int, where: str) -> np.ndarray:
    """The ``(n, n, 4)`` component array of a matrix field; the relation checks the entries."""
    if not isinstance(value, list) or len(value) != n:
        raise ParseError(f"{where}: expected {n} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{where}: row {i + 1} must hold {n} entries")
        rows.append(
            [
                _parse_components(entry, f"{where} entry ({i + 1},{j + 1})")
                for j, entry in enumerate(row)
            ]
        )
    return np.array(rows)


def _require(data: dict, key: str):
    if key not in data:
        raise ParseError(f"missing required field {key!r}")
    return data[key]


def _parse_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def load_problem(path) -> LoadedProblem:
    """Load and validate one problem file.

    Structural problems (no UTF-8 JSON, wrong types, missing fields) raise
    ParseError; semantically invalid data (broken reciprocity, a diagonal
    that is not the neutral element, out-of-range entries) raises
    ValidationError with 1-based coordinates in the message.
    """
    path = Path(_expect(path, (str, os.PathLike), "load_problem", "a path"))
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")
    kind = _require(data, "kind")
    if kind not in KINDS:
        raise ParseError(f"kind must be one of {', '.join(KINDS)}, got {kind!r}")
    n = _parse_int(_require(data, "n"), "n")
    if n < 1:
        raise ParseError(f"n must be positive, got {n}")
    neutral_value = _parse_trfn(_require(data, "neutral"), "neutral")

    sigma = mag_weights = relation = matrices = criteria_weights = None
    if "sigma" in data:
        sigma = located("sigma", _validate_sigma, _parse_trfn(data["sigma"], "sigma"))
    if "mag_weights" in data:
        raw = data["mag_weights"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ParseError("mag_weights: expected a 2-element array [w1, w2]")
        w1, w2 = (parse_scalar(w, "mag_weights") for w in raw)
        mag_weights = located("mag_weights", MagWeights, w1, w2)

    scale = None if kind == "additive" else _parse_int(_require(data, "scale"), "scale")
    neutral = located("neutral", NeutralElement, neutral_value, scale)
    if kind != "ahp":
        matrix = _parse_matrix(_require(data, "matrix"), n, "matrix")
        relation = neutral._relation._of(matrix, neutral)
    else:
        raw_matrices = _require(data, "matrices")
        if not isinstance(raw_matrices, list) or not raw_matrices:
            raise ParseError("matrices: expected a non-empty array of matrices")
        parsed = []
        for k, raw in enumerate(raw_matrices):
            where = f"matrix {k + 1}"
            parsed.append(located(where, TrMPR._of, _parse_matrix(raw, n, where), neutral))
        matrices = tuple(parsed)
        raw_weights = _require(data, "criteria_weights")
        if not isinstance(raw_weights, list) or len(raw_weights) != len(matrices):
            raise ParseError("criteria_weights: expected one weight per matrix")
        criteria_weights = convex_weights(
            [parse_scalar(w, f"criteria_weights[{k}]") for k, w in enumerate(raw_weights)],
            "criteria_weights",
        )
    return LoadedProblem(
        relation=relation,
        matrices=matrices,
        criteria_weights=criteria_weights,
        sigma=sigma,
        mag_weights=mag_weights,
    )


def relation_to_dict(relation: TrFPR | TrMPR) -> dict:
    """Serialize a relation into the problem-file structure, kind and scale from its neutral."""
    _require_kind(relation, _Relation, "relation_to_dict")
    neutral = relation.neutral
    head: dict = {"kind": neutral.kind, "n": relation.n}
    if neutral.scale is not None:
        head["scale"] = neutral.scale
    head["neutral"] = list(neutral.value.components)
    head["matrix"] = relation.array.tolist()
    return head


def save_problem(path, relation: TrFPR | TrMPR) -> None:
    """Write a relation as a problem file (full float precision).

    The text goes to a temporary file beside ``path`` that then replaces
    it, so an interrupted write never leaves a truncated file at ``path``.
    An OSError that names a file names ``path``, never the temporary, whose
    name carries the process id.
    """
    path = Path(_expect(path, (str, os.PathLike), "save_problem", "a path"))
    text = json.dumps(relation_to_dict(relation), indent=2) + "\n"
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "x") as handle:
            handle.write(text)
        os.replace(temporary, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            temporary.unlink()
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise
