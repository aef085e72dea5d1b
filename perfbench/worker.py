"""One workload run in a fresh interpreter; prints one JSON object.

Started by ``run.py`` with the package's ``src`` directory on the path and
the BLAS thread counts pinned to 1.  Warm-up requests run before the timed
phase.  Outputs are checked after it, so the checks cost no measured time.

With ``--trace 0`` the whole run is one untraced timed phase and the result
carries the end-to-end metrics.  With ``--trace 1`` every request runs twice,
once with spans recorded, giving the per-layer metrics and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import collections
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import spans
from percentiles import percentile, tail_percentile
from workloads import WORKLOADS

# Warm-up runs at least one request and about this long, untimed.
WARMUP_SECONDS = 0.3

# (module, function, span name, describe) for every layer boundary traced.
TRACE_TARGETS = [
    ("fuzzylad.cli", "main", "cli.main", None),
    ("fuzzylad.files", "load_problem", "files.load_problem",
     lambda a, k, r: {"bytes": Path(a[0]).stat().st_size}),
    ("fuzzylad.files", "save_problem", "files.save_problem", None),
    ("fuzzylad.lad", "build_lp", "lad.build_lp",
     lambda a, k, r: {"rows": r.a_ub.shape[0] + r.a_eq.shape[0], "cols": r.num_vars}),
    ("fuzzylad.lad", "derive_utility", "lad.derive_utility", None),
    ("fuzzylad.lad", "derive_weights", "lad.derive_weights", None),
    ("fuzzylad.lad", "evaluate_objective", "lad.evaluate_objective", None),
    ("fuzzylad.lad", "fast_path_consistent", "lad.fast_path_consistent", None),
    ("fuzzylad.simplex", "solve", "simplex.solve", lambda a, k, r: simplex_counts(a[0], r)),
    ("fuzzylad.relations", "check_consistency", "relations.check_consistency",
     lambda a, k, r: {"triples": a[0].n ** 3}),
    ("fuzzylad.relations", "check_consistency_mult", "relations.check_consistency_mult",
     lambda a, k, r: {"triples": a[0].n ** 3}),
    ("fuzzylad.relations", "to_additive", "relations.to_additive", None),
    ("fuzzylad.relations", "to_multiplicative", "relations.to_multiplicative", None),
    ("fuzzylad.trfn", "rank", "trfn.rank", None),
    ("fuzzylad.group", "aggregate_relations", "group.aggregate_relations", None),
    ("fuzzylad.group", "aggregate_utilities", "group.aggregate_utilities", None),
    ("fuzzylad.ahp", "run_ahp", "ahp.run_ahp", None),
    ("fuzzylad.ahp", "amm_weights", "ahp.amm_weights", None),
    ("fuzzylad.ahp", "gmm_weights", "ahp.gmm_weights", None),
    ("fuzzylad.ahp", "deviation", "ahp.deviation", None),
]


def simplex_counts(lp, solution) -> dict:
    """Pivots and the phase-2 tableau shape the dense solver works on.

    Mirrors the solver's substitution: a free variable takes two columns, a
    variable bounded on both sides one column plus one extra row.  Each
    pivot rewrites the whole ``(m + 1) x (cols + m_ub + 1)`` tableau with
    one multiply and one subtract per cell, so per pivot
    ``flops = 2 * cells`` and ``bytes = 8 * cells``.
    """
    free = bounded = 0
    for lo, hi in lp.bounds:
        if lo == float("-inf") and hi == float("inf"):
            free += 1
        elif lo != float("-inf") and hi != float("inf"):
            bounded += 1
    m_ub = lp.a_ub.shape[0] + bounded
    rows = m_ub + lp.a_eq.shape[0] + 1
    cols = lp.num_vars + free + m_ub + 1
    pivots = solution.iterations
    return {"pivots": pivots, "flops": 2 * rows * cols * pivots, "bytes": 8 * rows * cols * pivots}


def timed_phase(workload, seconds: float, recorder=None, min_requests: int = 0) -> dict:
    """Closed loop over the request pool until ``seconds`` pass and ``min_requests`` ran.

    With a recorder each request runs twice back to back, recorded and not,
    alternating which goes first.  Both runs see nearly the same machine
    speed, which drifts by tens of percent over seconds, so the two sums
    give the tracing overhead.  ``latencies`` holds the recorded runs and
    ``plain`` the others.
    """
    requests = workload.requests
    latencies, plain, outputs = [], [], []
    serial = 0
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while k < min_requests or time.perf_counter() < deadline:
        index = k % len(requests)
        runs = [None] if recorder is None else [recorder, None] if k % 2 == 0 else [None, recorder]
        for rec in runs:
            if rec is not None:
                rec.begin_request(k)
            t0 = time.perf_counter()
            try:
                output, error = requests[index].run(serial), None
            except Exception as exc:  # a failed request is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if rec is not None:
                rec.end_request()
            (plain if recorder is not None and rec is None else latencies).append(t1 - t0)
            outputs.append((index, output, error))
            serial += 1
        k += 1
    return {"latencies": latencies, "plain": plain, "outputs": outputs,
            "elapsed": time.perf_counter() - start}


def check_outputs(workload, outputs) -> list[str]:
    failures = []
    for index, output, error in outputs:
        req = workload.requests[index]
        if error is None:
            try:
                error = req.check(output)
            except Exception as exc:  # a check that cannot run is a failed request
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{req.kind} (pool {index}): {error}")
    return failures


def latency_metrics(phase: dict) -> tuple[dict, dict]:
    ordered = sorted(phase["latencies"])
    count = len(ordered)
    tail_p = tail_percentile(count)
    metrics = {
        "req_p50_ms": percentile(ordered, 50) * 1e3,
        # Too few samples for any tail: report the slowest request.
        "req_tail_ms": (percentile(ordered, tail_p) if tail_p else ordered[-1]) * 1e3,
        "req_per_s": count / phase["elapsed"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"samples": count, "tail_percentile": tail_p}


def layer_metrics(recorder, phase: dict, window: int) -> dict:
    """Per-layer metrics from the traced phase.

    Times are mean milliseconds per request over the whole traced phase.
    Counts are means per request over the first ``window`` requests, which
    every traced run completes, so they repeat exactly for one seed.
    """
    requests = len(phase["latencies"])
    total = collections.Counter()
    counts = collections.Counter()
    for span, own in zip(recorder.spans, spans.self_times(recorder.spans)):
        total[span.name] += span.duration
        total[span.layer + ".self"] += own
        if span.request < window:
            counts[span.name] += 1
            counts[span.layer + ".self"] += own
            for key, value in span.info.items():
                counts[f"{span.name}.{key}"] += value

    def ms(*names):
        return sum(total[n] for n in names) * 1e3 / requests

    def per_window(name):
        return counts[name] / window

    builds = counts["lad.build_lp"]
    pivots = counts["simplex.solve.pivots"]
    wall = sum(phase["latencies"])
    return {
        "simplex.calls": per_window("simplex.solve"),
        "simplex.pivots": per_window("simplex.solve.pivots"),
        "simplex.self_ms": ms("simplex.self"),
        "simplex.us_per_pivot": counts["simplex.self"] * 1e6 / pivots if pivots else 0.0,
        "simplex.wall_share_pct": total["simplex.self"] * 100.0 / wall,
        "simplex.tableau_bytes_computed": per_window("simplex.solve.bytes"),
        "simplex.flops_computed": per_window("simplex.solve.flops"),
        "lad.build_ms": ms("lad.build_lp"),
        "lad.lp_rows": counts["lad.build_lp.rows"] / builds if builds else 0.0,
        "lad.lp_cols": counts["lad.build_lp.cols"] / builds if builds else 0.0,
        "lad.evaluate_ms": ms("lad.evaluate_objective"),
        "lad.fastpath_ms": ms("lad.fast_path_consistent"),
        "lad.self_ms": ms("lad.self"),
        "files.load_ms": ms("files.load_problem"),
        "files.save_ms": ms("files.save_problem"),
        "files.bytes_read": per_window("files.load_problem.bytes"),
        "cli.calls": per_window("cli.main"),
        "cli.self_ms": ms("cli.self"),
        "relations.consistency_ms": ms(
            "relations.check_consistency", "relations.check_consistency_mult"
        ),
        "relations.triples": (counts["relations.check_consistency.triples"]
                              + counts["relations.check_consistency_mult.triples"]) / window,
        "relations.to_additive_ms": ms("relations.to_additive"),
        "relations.to_multiplicative_ms": ms("relations.to_multiplicative"),
        "trfn.rank_ms": ms("trfn.rank"),
        "group.aggregate_relations_ms": ms("group.aggregate_relations"),
        "group.aggregate_utilities_ms": ms("group.aggregate_utilities"),
        "ahp.self_ms": ms("ahp.self"),
        "ahp.baselines_ms": ms("ahp.amm_weights", "ahp.gmm_weights", "ahp.deviation"),
    }


def input_stats(workload, phase: dict) -> dict:
    pool = workload.requests
    executed = [pool[index] for index, _, _ in phase["outputs"]]
    return {
        "n": dict(sorted(collections.Counter(r.n for r in executed).items())),
        "kinds": dict(sorted(collections.Counter(r.kind for r in executed).items())),
        "lp_share": sum(r.solves_lp for r in executed) / len(executed),
        "distinct_inputs": len({index for index, _, _ in phase["outputs"]}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        built = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        built = time.perf_counter() - built
        warm = time.perf_counter()
        timed_phase(workload, WARMUP_SECONDS, min_requests=1)
        warm = time.perf_counter() - warm

        info = {"build_inputs_s": built, "warmup_s": warm}
        if args.trace:
            recorder = spans.Recorder()
            undo = spans.install(recorder, TRACE_TARGETS)
            try:
                phase = timed_phase(workload, args.seconds, recorder, workload.count_window)
            finally:
                spans.uninstall(undo)
            metrics = layer_metrics(recorder, phase, workload.count_window)
            overhead = sum(phase["latencies"]) / sum(phase["plain"]) - 1.0
            metrics["trace.overhead_pct"] = overhead * 100.0
            info["traced_requests"] = len(phase["latencies"])
            info["pivots_total"] = sum(s.info.get("pivots", 0) for s in recorder.spans)
            info["layers_seen"] = sorted({s.layer for s in recorder.spans})
            outputs = phase["outputs"]
            if args.spans_out:
                args.spans_out.write_text(json.dumps(
                    [[s.name, s.start, s.end, s.parent, s.request, s.info] for s in recorder.spans]
                ))
        else:
            phase = timed_phase(workload, args.seconds)
            metrics, latency_info = latency_metrics(phase)
            info.update(latency_info)
            outputs = phase["outputs"]
        info.update(input_stats(workload, phase))
        checked = time.perf_counter()
        failures = check_outputs(workload, outputs)
        info["check_s"] = time.perf_counter() - checked
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "attempted": len(outputs),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
