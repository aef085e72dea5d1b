"""Command-line front end.

Subcommands: ``validate``, ``consistency``, ``utility``, ``weights``,
``ahp``, ``convert``.  Every command reads one JSON problem file, never
mutates it (``convert`` writes to ``--out``), and is deterministic: the
same file and flags produce byte-identical output.  Each takes only the
options it reads, and ``main`` loads the file and checks its kind for it;
a refusal of the file's content names the file.

Each command builds one result: a payload, and text lines formatted from
the payload's own values.  ``main`` prints it once, as JSON under
``--json`` and as the text otherwise.

Exit codes: 0 success, 1 parse error, 2 validation failure, 3 the
optimization model is infeasible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .ahp import AhpProblem, amm_weights, deviation, gmm_weights, run_ahp
from .errors import InfeasibleError, ParseError, SizeLimitError, ValidationError, located
from .files import KINDS, LoadedProblem, load_problem, parse_scalar, save_problem
from .lad import Model, _validate_sigma, derive_utility
from .relations import DEFAULT_CONSISTENCY_TOL, check_consistency, to_additive, to_multiplicative
from .trfn import DEFAULT_MAG_WEIGHTS, MagWeights, Ranking, TrFN, rank

__all__ = ["main"]

_Output = tuple[dict, list[str]]


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _rows(values) -> list[list[float]]:
    return [list(t.components) for t in values]


def _alternative_lines(rows, magnitudes=None, indent: str = "  ") -> list[str]:
    """One ``A<i>: T(a, b, c, d)`` line per payload row, with its magnitude when given."""
    lines = [f"{indent}A{i + 1}: T({', '.join(map(_fmt, row))})" for i, row in enumerate(rows)]
    if magnitudes is not None:
        lines = [f"{line}  Mag = {_fmt(mag)}" for line, mag in zip(lines, magnitudes)]
    return lines


def _ranking_fields(ranking: Ranking) -> dict:
    return {
        "magnitudes": list(ranking.magnitudes),
        "ranking": ranking.label(),
        "ranking_groups": [list(g) for g in ranking.groups],
    }


def _parse_flag(flag: str, text: str, build, count: int, expects: str):
    """``build`` applied to the ``count`` comma-separated numbers of a flag's value."""
    parts = text.split(",")
    if len(parts) != count:
        raise ValidationError(f"{flag} expects {expects}")
    return located(flag, build, *(parse_scalar(p, flag) for p in parts))


def _resolve_mag_weights(args, problem: LoadedProblem) -> MagWeights:
    if args.mag_weights is None:
        return problem.mag_weights or DEFAULT_MAG_WEIGHTS
    return _parse_flag(
        "--mag-weights", args.mag_weights, MagWeights, 2, "two comma-separated values"
    )


def _require_sigma(args, problem: LoadedProblem) -> TrFN:
    if args.sigma is not None:
        sigma = _parse_flag("--sigma", args.sigma, TrFN, 4, "four comma-separated components")
        return located("--sigma", _validate_sigma, sigma)
    if problem.sigma is None:
        raise ValidationError(
            "a total-utility target is required: pass --sigma or add a sigma field"
        )
    return located(f"{args.file}: sigma", _validate_sigma, problem.sigma)


def cmd_validate(args, problem: LoadedProblem) -> _Output:
    payload = {"valid": True, "kind": problem.kind, "n": problem.n}
    criteria = f", {len(problem.matrices)} criteria" if problem.kind == "ahp" else ""
    return payload, [f"valid {payload['kind']} problem ({payload['n']} alternatives{criteria})"]


def cmd_consistency(args, problem: LoadedProblem) -> _Output:
    report = located("--tol", check_consistency, problem.relation, args.tol)
    payload = {
        "consistent": report.consistent,
        "max_violation": report.max_violation,
        "worst_triple": [i + 1 for i in report.worst_triple],
        "tol": report.tol,
    }
    return payload, [
        f"verdict: {'consistent' if payload['consistent'] else 'inconsistent'}",
        f"max violation: {payload['max_violation']:.6g}",
        f"worst triple: ({', '.join(map(str, payload['worst_triple']))})",
    ]


def cmd_utility(args, problem: LoadedProblem, model: Model | None = None) -> _Output:
    if model is None:
        model = Model(args.model or ("punit" if problem.kind == "additive" else "p"))
    if model is not Model.PSIGMA and args.sigma is not None:
        raise ValidationError(f"--sigma: model {model.value} takes no total-utility target")
    sigma = _require_sigma(args, problem) if model is Model.PSIGMA else None
    result = derive_utility(problem.relation, model, sigma)
    payload = {
        "model": result.model.value,
        "utilities": _rows(result.utilities),
        "objective": result.objective,
        **_ranking_fields(rank(result.utilities, _resolve_mag_weights(args, problem))),
    }
    return payload, [
        f"model: {payload['model']}",
        *_alternative_lines(payload["utilities"], payload["magnitudes"]),
        f"objective: {_fmt(payload['objective'])}",
        f"ranking: {payload['ranking']}",
    ]


def cmd_ahp(args, problem: LoadedProblem) -> _Output:
    sigma = _require_sigma(args, problem)
    mag_weights = _resolve_mag_weights(args, problem)
    hierarchy = AhpProblem(problem.criteria_weights, problem.matrices, sigma, mag_weights)
    result = run_ahp(hierarchy)
    payload = {
        "criteria_weights": list(hierarchy.criteria_weights),
        "local_weights": [_rows(vec.utilities) for vec in result.local_weights],
        "per_criterion_objectives": list(result.per_criterion_objectives),
        "global_weights": _rows(result.global_weights),
        **_ranking_fields(result.ranking),
    }
    lines = []
    criteria = zip(
        payload["criteria_weights"], payload["per_criterion_objectives"], payload["local_weights"]
    )
    for k, (weight, objective, rows) in enumerate(criteria):
        lines.append(f"criterion {k + 1} (weight {_fmt(weight)}): objective {_fmt(objective)}")
        lines += _alternative_lines(rows)
    lines += [
        "global weights:",
        *_alternative_lines(payload["global_weights"], payload["magnitudes"]),
        f"ranking: {payload['ranking']}",
    ]
    if args.compare:
        payload["comparison"] = []
        for k, (y, lad) in enumerate(zip(hierarchy.matrices, result.local_weights)):
            block = {"lad": {"weights": _rows(lad.utilities), "deviation": lad.objective}}
            for method, weights in (("amm", amm_weights(y)), ("gmm", gmm_weights(y))):
                block[method] = {"weights": _rows(weights), "deviation": deviation(y, weights)}
            payload["comparison"].append(block)
            lines.append(f"comparison (criterion {k + 1}):")
            for method, entry in block.items():
                lines.append(f"  {method}: deviation {_fmt(entry['deviation'])}")
                lines += _alternative_lines(entry["weights"], indent="    ")
    return payload, lines


def cmd_convert(args, problem: LoadedProblem) -> _Output:
    if args.to == problem.kind:
        raise ValidationError(f"file already is {problem.kind}; nothing to convert")
    if args.to == "multiplicative":
        converted = located("--scale", to_multiplicative, problem.relation, args.scale)
    else:
        converted = to_additive(problem.relation)
    try:
        save_problem(args.out, converted)
    except OSError as exc:
        raise OSError(f"--out: {exc}") from exc
    payload = {"written": str(args.out), "kind": args.to}
    return payload, [f"wrote {payload['kind']} problem to {payload['written']}"]


_JSON = ("--json", dict(action="store_true", help="emit machine-readable JSON"))
_MAG_WEIGHTS = ("--mag-weights", dict(
    metavar="W1,W2", help="magnitude weights, must satisfy 2*(w1+w2) = 1"))
_SIGMA = ("--sigma", dict(metavar="A,B,C,D", help="total-utility target"))
_FLAT = ("additive", "multiplicative")

# Subcommand name, help, handler, the file kinds it takes with the refusal
# of any other, and its options in --help order.
_COMMANDS = (
    ("validate", "check a problem file", cmd_validate, KINDS, None, (_JSON,)),
    ("consistency", "transitivity diagnosis", cmd_consistency,
     _FLAT, "consistency expects an additive or multiplicative file", (
        _JSON,
        ("--tol", dict(type=float, default=DEFAULT_CONSISTENCY_TOL, help="consistency tolerance")),
    )),
    ("utility", "derive ranking utilities", cmd_utility,
     _FLAT, "utility expects an additive or multiplicative file; use ahp", (
        _JSON,
        _MAG_WEIGHTS,
        ("--model", dict(choices=[m.value for m in Model if m is not Model.QSIGMA])),
        _SIGMA,
    )),
    ("weights", "derive normalized fuzzy weights",
     functools.partial(cmd_utility, model=Model.PSIGMA),
     _FLAT, "weights expects an additive or multiplicative file; use ahp",
     (_JSON, _MAG_WEIGHTS, _SIGMA)),
    ("ahp", "multi-criteria pipeline", cmd_ahp, ("ahp",), "ahp expects a file of kind ahp", (
        _JSON,
        _MAG_WEIGHTS,
        _SIGMA,
        ("--compare", dict(
            action="store_true", help="also report arithmetic/geometric mean baselines"
        )),
    )),
    ("convert", "switch between the two scales", cmd_convert,
     _FLAT, "convert expects an additive or multiplicative file", (
        _JSON,
        ("--to", dict(required=True, choices=["additive", "multiplicative"])),
        ("--scale", dict(type=int, default=9, help="target ratio scale (default 9)")),
        ("--out", dict(required=True, help="output path")),
    )),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzylad",
        description="Fuzzy preference relations with LAD-derived utilities and weights",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, kinds, refusal, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        for flag, settings in options:
            p.add_argument(flag, **settings)
        p.set_defaults(func=func, kinds=kinds, refusal=refusal)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        problem = located(args.file, load_problem, args.file)
        if problem.kind not in args.kinds:
            raise ValidationError(args.refusal)
        payload, lines = args.func(args, problem)
        print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
        return 0
    except SizeLimitError as exc:
        print(f"invalid: {args.file}: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ParseError, OSError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
