"""Command-line front end.

Subcommands: ``validate``, ``consistency``, ``utility``, ``weights``,
``ahp``, ``convert``.  Every command reads one JSON problem file, never
mutates it (``convert`` writes to ``--out``), and is deterministic: the
same file and flags produce byte-identical output.  Each takes only the
options it reads, and ``main`` loads the file and checks its kind for it.

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
from .lad import Model, UtilityVector, derive_utility, derive_weights
from .relations import (
    DEFAULT_CONSISTENCY_TOL,
    TrFPR,
    TrMPR,
    check_consistency,
    check_consistency_mult,
    to_additive,
    to_multiplicative,
)
from .trfn import DEFAULT_MAG_WEIGHTS, MagWeights, TrFN, rank

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _fmt_trfn(t: TrFN) -> str:
    return f"T({_fmt(t.a)}, {_fmt(t.b)}, {_fmt(t.c)}, {_fmt(t.d)})"


def _rows(values) -> list[list[float]]:
    return [list(t.components) for t in values]


def _parse_flag(flag: str, text: str, build, count: int, expects: str):
    """``build`` applied to the ``count`` comma-separated numbers of a flag's value."""
    parts = text.split(",")
    if len(parts) != count:
        raise ValidationError(f"{flag} expects {expects}")
    return located(flag, build, *(parse_scalar(p, flag) for p in parts))


def _resolve_mag_weights(args, problem: LoadedProblem) -> MagWeights:
    if args.mag_weights is not None:
        return _parse_flag(
            "--mag-weights", args.mag_weights, MagWeights, 2, "two comma-separated values"
        )
    if problem.mag_weights is not None:
        return problem.mag_weights
    return DEFAULT_MAG_WEIGHTS


def _resolve_sigma(args, problem: LoadedProblem) -> TrFN | None:
    if args.sigma is not None:
        return _parse_flag("--sigma", args.sigma, TrFN, 4, "four comma-separated components")
    return problem.sigma


def _require_sigma(sigma: TrFN | None) -> TrFN:
    if sigma is None:
        raise ValidationError(
            "a total-utility target is required: pass --sigma or add a sigma field"
        )
    return sigma


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _utility_payload(result: UtilityVector, mag_weights: MagWeights) -> dict:
    ranking = rank(result.utilities, mag_weights)
    return {
        "model": result.model.value,
        "utilities": _rows(result.utilities),
        "objective": result.objective,
        "magnitudes": list(ranking.magnitudes),
        "ranking": ranking.label(),
        "ranking_groups": [list(g) for g in ranking.groups],
    }


def _print_utility(result: UtilityVector, mag_weights: MagWeights, as_json: bool) -> None:
    payload = _utility_payload(result, mag_weights)
    if as_json:
        _print_json(payload)
        return
    print(f"model: {payload['model']}")
    for i, (u, mag) in enumerate(zip(result.utilities, payload["magnitudes"])):
        print(f"  A{i + 1}: {_fmt_trfn(u)}  Mag = {_fmt(mag)}")
    print(f"objective: {_fmt(payload['objective'])}")
    print(f"ranking: {payload['ranking']}")


def cmd_validate(args, problem: LoadedProblem) -> int:
    if args.json:
        _print_json({"valid": True, "kind": problem.kind, "n": problem.n})
    else:
        extent = f"{problem.n} alternatives"
        if problem.kind == "ahp":
            extent += f", {len(problem.matrices)} criteria"
        print(f"valid {problem.kind} problem ({extent})")
    return 0


def cmd_consistency(args, problem: LoadedProblem) -> int:
    check = check_consistency if problem.kind == "additive" else check_consistency_mult
    report = located("--tol", check, problem.relation, args.tol)
    i, j, k = report.worst_triple
    if args.json:
        _print_json(
            {
                "consistent": report.consistent,
                "max_violation": report.max_violation,
                "worst_triple": [i + 1, j + 1, k + 1],
                "tol": report.tol,
            }
        )
    else:
        print(f"verdict: {'consistent' if report.consistent else 'inconsistent'}")
        print(f"max violation: {report.max_violation:.6g}")
        print(f"worst triple: ({i + 1}, {j + 1}, {k + 1})")
    return 0


def _derive_for_file(problem: LoadedProblem, model: Model, sigma: TrFN | None) -> UtilityVector:
    sigma = _require_sigma(sigma) if model in (Model.PSIGMA, Model.QSIGMA) else None
    if problem.kind == "additive":
        return derive_utility(problem.relation, model, sigma)
    if sigma is not None:
        return derive_weights(problem.relation, sigma)
    return derive_utility(to_additive(problem.relation), model)


def cmd_utility(args, problem: LoadedProblem, model: Model | None = None) -> int:
    if model is None and args.model is not None:
        model = Model(args.model)
    elif model is None:
        model = Model.PUNIT if problem.kind == "additive" else Model.P
    if model is Model.PSIGMA and problem.kind == "multiplicative":
        model = Model.QSIGMA
    result = _derive_for_file(problem, model, _resolve_sigma(args, problem))
    _print_utility(result, _resolve_mag_weights(args, problem), args.json)
    return 0


def _comparison_payload(y: TrMPR, lad: UtilityVector) -> dict:
    payload = {"lad": {"weights": _rows(lad.utilities), "deviation": lad.objective}}
    for method, weights in (("amm", amm_weights(y)), ("gmm", gmm_weights(y))):
        payload[method] = {"weights": _rows(weights), "deviation": deviation(y, weights)}
    return payload


def cmd_ahp(args, problem: LoadedProblem) -> int:
    sigma = _require_sigma(_resolve_sigma(args, problem))
    mag_weights = _resolve_mag_weights(args, problem)
    hierarchy = AhpProblem(problem.criteria_weights, problem.matrices, sigma, mag_weights)
    result = run_ahp(hierarchy)
    comparisons = None
    if args.compare:
        comparisons = [
            _comparison_payload(y, local)
            for y, local in zip(hierarchy.matrices, result.local_weights)
        ]
    if args.json:
        payload = {
            "criteria_weights": list(hierarchy.criteria_weights),
            "local_weights": [_rows(vec.utilities) for vec in result.local_weights],
            "per_criterion_objectives": list(result.per_criterion_objectives),
            "global_weights": _rows(result.global_weights),
            "magnitudes": list(result.magnitudes),
            "ranking": result.ranking.label(),
            "ranking_groups": [list(g) for g in result.ranking.groups],
        }
        if comparisons is not None:
            payload["comparison"] = comparisons
        _print_json(payload)
        return 0
    for k, vec in enumerate(result.local_weights):
        weight = hierarchy.criteria_weights[k]
        print(f"criterion {k + 1} (weight {_fmt(weight)}): objective {_fmt(vec.objective)}")
        for i, t in enumerate(vec.utilities):
            print(f"  A{i + 1}: {_fmt_trfn(t)}")
    print("global weights:")
    for i, t in enumerate(result.global_weights):
        print(f"  A{i + 1}: {_fmt_trfn(t)}  Mag = {_fmt(result.magnitudes[i])}")
    print(f"ranking: {result.ranking.label()}")
    if comparisons is not None:
        for k, (block, y) in enumerate(zip(comparisons, hierarchy.matrices)):
            print(f"comparison (criterion {k + 1}):")
            for method in ("lad", "amm", "gmm"):
                entry = block[method]
                print(f"  {method}: deviation {_fmt(entry['deviation'])}")
                for i, comps in enumerate(entry["weights"]):
                    print(f"    A{i + 1}: {_fmt_trfn(TrFN(*comps))}")
    return 0


def cmd_convert(args, problem: LoadedProblem) -> int:
    if args.to == problem.kind:
        raise ValidationError(f"file already is {problem.kind}; nothing to convert")
    if args.to == "multiplicative":
        converted: TrFPR | TrMPR = located("--scale", to_multiplicative, problem.relation, args.scale)
    else:
        converted = to_additive(problem.relation)
    save_problem(args.out, converted)
    if args.json:
        _print_json({"written": str(args.out), "kind": args.to})
    else:
        print(f"wrote {args.to} problem to {args.out}")
    return 0


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
        problem = load_problem(args.file)
        if problem.kind not in args.kinds:
            raise ValidationError(args.refusal)
        return args.func(args, problem)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SizeLimitError as exc:
        print(f"invalid: {args.file}: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
