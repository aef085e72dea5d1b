"""The benchmark's three workloads.

Each workload is a closed loop with one client: the next request is sent
only after the previous one returned.  Each ``build_*`` function turns a
seed into a pool of requests that the timed loop cycles through;
``Request.run`` does the work and ``Request.check`` judges its output after
the timed phase.

* small-mixed: problem files with n 3-5 through the CLI in-process.  Fixed
  per-request costs dominate (argparse, JSON parsing, relation validation,
  LP assembly, per-pivot Python overhead); the only workload reaching
  ``files`` and ``cli``.
* lad-large: in-memory inconsistent relations with n = 7 under punit, p0
  and qsigma, and groups of 3-5 such relations merged and solved under p.
  Nearly all time is simplex pivots on 420-440 row tableaus.
* diagnose-group: 3-7 experts with consistent relations, n 16-24, one
  shared neutral element; aggregation, the O(n^3) triple scan and TrFN
  arithmetic, never the simplex.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fuzzylad
from fuzzylad import Model, cli, files, group, lad, relations, trfn
from fuzzylad.group import GroupWeights

from inputs import (
    SIGMA,
    kind_sequence,
    rand_consistent,
    rand_criteria_weights,
    rand_neutral,
    rand_ratio_relation,
    rand_relation,
    write_ahp_problem,
    write_problem,
)
from oracle import CONSISTENCY_TOL, EVAL_TOL, check_lp_result, highs_optimum, max_violation


@dataclass
class Request:
    kind: str
    n: int
    solves_lp: bool
    run: Callable[[int], object]
    check: Callable[[object], str | None]
    optima: dict = field(default_factory=dict)

    def optimum(self, key, relation, model, sigma) -> float:
        """HiGHS optimum for one LP of this request, solved once per pool entry."""
        if key not in self.optima:
            self.optima[key] = highs_optimum(relation, model, sigma)
        return self.optima[key]


@dataclass
class Workload:
    requests: list[Request]
    count_window: int


# ---------------------------------------------------------------- small-mixed

SMALL_POOL = 34 * 24
SMALL_WINDOW = 60
SIGMA_ARG = ",".join(repr(v) for v in SIGMA.components)

# (command, file kind, extra arguments).  The mix covers every read-only
# command, each additive model, and conversions that write a file.
SMALL_COMMANDS = [
    ("validate", "additive", []),
    ("validate", "multiplicative", []),
    ("validate", "ahp", []),
    ("consistency", "additive", []),
    ("consistency", "multiplicative", []),
    ("convert", "additive", ["--to", "multiplicative", "--scale", "9"]),
    ("convert", "multiplicative", ["--to", "additive"]),
    ("utility", "additive", ["--model", "p0"]),
    ("utility", "additive", ["--model", "p"]),
    ("utility", "additive", ["--model", "punit"]),
    ("utility", "additive", ["--model", "psigma", "--sigma", SIGMA_ARG]),
    ("utility", "multiplicative", []),
    ("weights", "multiplicative", []),
    ("ahp", "ahp", ["--compare"]),
]
SOLVES_LP = ("utility", "weights", "ahp")

# (command, n) kinds, listed once per share.  Commands that solve no LP cost
# about the same at any n, so their n is drawn per file (None here).  LP
# solves at n = 4 get a double share: the median request then falls a third
# of the way into them instead of on the edge between two groups, and n = 5
# and ahp solves set the tail.  For ahp files n is the number of criteria.
SMALL_KINDS = [(c, None) for c, cmd in enumerate(SMALL_COMMANDS) if cmd[0] not in SOLVES_LP] + [
    (c, n)
    for c, cmd in enumerate(SMALL_COMMANDS)
    if cmd[0] in SOLVES_LP
    for n, share in (((3, 1), (4, 1), (5, 1)) if cmd[0] == "ahp" else ((3, 1), (4, 2), (5, 1)))
    for _ in range(share)
]


def _cli_call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_request(path: Path, command: int, n: int, relation, out_dir: Path) -> Request:
    """One CLI call; ``relation`` is the file's relation, or its matrices for ahp."""
    name, file_kind, extra = SMALL_COMMANDS[command]
    argv = [name, str(path), *extra, "--json"]
    multiplicative = file_kind == "multiplicative"
    # ahp problems compare 4 alternatives over 3-5 criteria; n is the criteria count.
    alternatives = 4 if file_kind == "ahp" else n
    if name == "utility":
        model = Model(extra[1]) if extra else Model.P
    else:
        model = Model.QSIGMA

    def run(k: int):
        if name == "convert":
            return _cli_call([*argv, "--out", str(out_dir / f"{k}.json")])
        return _cli_call(argv)

    label = f"{name}-{file_kind}" + (f"-{extra[1]}" if name == "utility" and extra else "")
    req = Request(label, alternatives, name in SOLVES_LP, run, None)

    def check_lp(key, x, lp_model, utilities, objective) -> str | None:
        sigma = SIGMA if lp_model is Model.PSIGMA else None
        optimum = req.optimum(key, x, lp_model, sigma)
        utilities = [fuzzylad.TrFN(*u) for u in utilities]
        return check_lp_result(x, utilities, objective, optimum)

    def check(output) -> str | None:
        code, stdout, stderr = output
        if code != 0:
            return f"exit code {code}: {stderr.strip()}"
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if name == "validate":
            ok = payload == {"valid": True, "kind": file_kind, "n": alternatives}
            return None if ok else f"unexpected validate payload {payload}"
        if name == "consistency":
            expected = max_violation(relation, multiplicative)
            got = payload["max_violation"]
            if abs(got - expected) > CONSISTENCY_TOL * max(1.0, expected):
                return f"max violation {got!r}, independent scan gives {expected!r}"
            if payload["consistent"] != (got <= payload["tol"]):
                return "consistency verdict disagrees with the reported violation"
            return None
        if name == "convert":
            try:
                loaded = files.load_problem(Path(payload["written"]))
            except (fuzzylad.ParseError, fuzzylad.ValidationError, OSError) as exc:
                return f"converted file does not load back: {exc}"
            ok = loaded.kind == extra[1] and loaded.n == n
            return None if ok else "converted file has the wrong kind or size"
        if name == "ahp":
            objectives, local = payload["per_criterion_objectives"], payload["local_weights"]
            comparison = payload["comparison"]
            if not len(objectives) == len(local) == len(comparison) == len(relation):
                return "ahp output does not cover every criterion"
            for c, y in enumerate(relation):
                failure = check_lp(c, relations.to_additive(y), Model.PSIGMA, local[c], objectives[c])
                if failure:
                    return f"criterion {c + 1}: {failure}"
                if {"lad", "amm", "gmm"} - set(comparison[c]):
                    return f"criterion {c + 1}: comparison block is incomplete"
            return None
        if payload["model"] != model.value:
            return f"model {payload['model']}, expected {model.value}"
        x = relations.to_additive(relation) if multiplicative else relation
        lp_model = Model.PSIGMA if model is Model.QSIGMA else model
        return check_lp(0, x, lp_model, payload["utilities"], payload["objective"])

    req.check = check
    return req


def build_small_mixed(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    problems, out_dir = workdir / "problems", workdir / "out"
    problems.mkdir(parents=True)
    out_dir.mkdir()
    requests = []
    for slot, (command, n) in enumerate(kind_sequence(rng, SMALL_KINDS, SMALL_POOL)):
        file_kind = SMALL_COMMANDS[command][1]
        if n is None:
            n = int(rng.integers(3, 6))
        path = problems / f"{slot}.json"
        if file_kind == "additive":
            relation = rand_relation(rng, n)
            write_problem(path, relation)
        elif file_kind == "multiplicative":
            relation = rand_ratio_relation(rng, n)
            write_problem(path, relation)
        else:
            neutral = rand_neutral(rng)
            matrices = tuple(rand_ratio_relation(rng, 4, neutral) for _ in range(n))
            weights = rand_criteria_weights(rng, n)
            write_ahp_problem(path, matrices, weights)
            relation = matrices
        requests.append(_cli_request(path, command, n, relation, out_dir))
    return Workload(requests, SMALL_WINDOW)


# ------------------------------------------------------------------ lad-large

LARGE_N = 7
LARGE_POOL = 60
LARGE_WINDOW = 8
# The group kind merges 3-5 experts' relations and solves the merged one
# under p, so the group layer is reached while the simplex still dominates.
LARGE_KINDS = [Model.PUNIT, Model.P0, Model.QSIGMA, "group"]


def _lad_request(model: Model, relation) -> Request:
    if model is Model.QSIGMA:
        x, sigma, lp_model = relations.to_additive(relation), SIGMA, Model.PSIGMA

        def run(k: int):
            return lad.derive_weights(relation, SIGMA)
    else:
        x, sigma, lp_model = relation, None, model

        def run(k: int):
            return lad.derive_utility(relation, model)

    req = Request(f"lad-{model.value}", relation.n, True, run, None)

    def check(result) -> str | None:
        if result.model is not model:
            return f"result labelled {result.model.value}, expected {model.value}"
        optimum = req.optimum(0, x, lp_model, sigma)
        return check_lp_result(x, result.utilities, result.objective, optimum)

    req.check = check
    return req


def _group_lad_request(experts: tuple, weights: GroupWeights) -> Request:
    """Merge inconsistent expert relations, solve the merged one under p, rank."""

    def run(k: int):
        merged = group.aggregate_relations(experts, weights)
        result = lad.derive_utility(merged, Model.P)
        return merged, result, trfn.rank(result.utilities)

    req = Request(f"lad-group-{len(experts)}", experts[0].n, True, run, None)

    def check(output) -> str | None:
        merged, result, ranking = output
        if sorted(ranking.order()) != list(range(merged.n)):
            return "ranking is not a permutation of the alternatives"
        optimum = req.optimum(0, merged, Model.P, None)
        return check_lp_result(merged, result.utilities, result.objective, optimum)

    req.check = check
    return req


def build_lad_large(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    requests = []
    for kind in kind_sequence(rng, LARGE_KINDS, LARGE_POOL):
        if kind == "group":
            neutral = rand_neutral(rng)
            count = int(rng.integers(3, 6))
            experts = tuple(rand_relation(rng, LARGE_N, neutral) for _ in range(count))
            weights = GroupWeights(rand_criteria_weights(rng, count))
            requests.append(_group_lad_request(experts, weights))
        elif kind is Model.QSIGMA:
            requests.append(_lad_request(kind, rand_ratio_relation(rng, LARGE_N)))
        else:
            requests.append(_lad_request(kind, rand_relation(rng, LARGE_N)))
    return Workload(requests, LARGE_WINDOW)


# ------------------------------------------------------------- diagnose-group

GROUP_POOL = 90
GROUP_WINDOW = 9
GROUP_KINDS = [(n, experts) for n in range(16, 25) for experts in range(3, 8)]


def diagnose(experts: tuple, weights: GroupWeights):
    """Merge, confirm consistency, read utilities off each expert, combine, rank."""
    merged = group.aggregate_relations(experts, weights)
    report = relations.check_consistency(merged)
    vectors = [lad.fast_path_consistent(x) for x in experts]
    combined = group.aggregate_utilities(vectors, weights, merged)
    return report, vectors, combined, trfn.rank(combined.utilities)


def _group_request(experts: tuple, weights: GroupWeights) -> Request:
    def run(k: int):
        return diagnose(experts, weights)

    def check(output) -> str | None:
        report, vectors, combined, ranking = output
        if not report.consistent:
            return f"merged relation judged inconsistent: {report.describe()}"
        worst = max([combined.objective] + [v.objective for v in vectors])
        if worst > EVAL_TOL:
            return f"consistent group left deviation {worst!r}"
        if sorted(ranking.order()) != list(range(experts[0].n)):
            return "ranking is not a permutation of the alternatives"
        return None

    return Request(f"group-{len(experts)}", experts[0].n, False, run, check)


def build_diagnose_group(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    requests = []
    for n, count in kind_sequence(rng, GROUP_KINDS, GROUP_POOL):
        neutral = rand_neutral(rng)
        experts = tuple(rand_consistent(rng, n, neutral) for _ in range(count))
        weights = GroupWeights(rand_criteria_weights(rng, count))
        requests.append(_group_request(experts, weights))
    return Workload(requests, GROUP_WINDOW)


WORKLOADS = {
    "small-mixed": build_small_mixed,
    "lad-large": build_lad_large,
    "diagnose-group": build_diagnose_group,
}
