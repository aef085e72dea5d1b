"""Benchmark entry point.

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  Each run starts the workload in a
fresh interpreter (``worker.py``) with the package's ``src`` directory on the
path and every BLAS thread pool pinned to one thread.  ``--trace 0`` reports
the end-to-end metrics listed in ``BENCHMARK.json`` and ``--trace 1`` the
per-layer ones.  Readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero, printing no result, when the checkout has no
package source or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_run"

# Fresh interpreters timed for setup_s, before and after the workload, so
# the median does not rest on one moment of the host's drifting speed.
SETUP_STARTS_BEFORE = 5
SETUP_STARTS_AFTER = 4
# Workloads run by hand only, not listed in BENCHMARK.json.
EXTRA_WORKLOADS = ["diagnose-group"]
# Every workload process must be done well inside the 180 s limit of a run.
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def measure_setup(env: dict, starts: int, timeout: float) -> list[float]:
    """Wall time of fresh interpreters importing ``fuzzylad`` and ``fuzzylad.cli``."""
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        # Captured pipes make the wait block on the pipes closing; without
        # them a wait with a timeout polls in steps of up to 50 ms.
        subprocess.run(
            [sys.executable, "-c", "import fuzzylad, fuzzylad.cli"],
            env=env, cwd=ROOT, check=True, timeout=timeout, capture_output=True,
        )
        times.append(time.perf_counter() - start)
    return times


def fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    parser = argparse.ArgumentParser(description="Run one fuzzylad benchmark workload.")
    workloads = [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "fuzzylad" / "__init__.py").is_file():
        return fail(f"no package source under {SRC}; run from a source checkout")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = child_env()
    WORKDIR.mkdir(exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup(env, SETUP_STARTS_BEFORE, RUN_LIMIT_S)
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(WORKDIR),
        ]
        if args.trace:
            command += ["--spans-out", str(WORKDIR / f"spans-{args.workload}-{args.seed}.json")]
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=RUN_LIMIT_S - (time.perf_counter() - started),
        )
        if setup and proc.returncode == 0:
            setup += measure_setup(
                env, SETUP_STARTS_AFTER, RUN_LIMIT_S - (time.perf_counter() - started)
            )
    except subprocess.TimeoutExpired:
        return fail("workload did not finish in time")
    except subprocess.CalledProcessError as exc:
        return fail(f"importing the package failed with exit code {exc.returncode}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return fail(f"workload process exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    values = dict(result["metrics"])
    if setup:
        values["setup_s"] = statistics.median(setup)
    if set(values) != set(declared):
        return fail(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(declared)}")

    info = result["info"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    for name in declared:
        print(f"  {name:34s} {values[name]:14.6g} {declared[name]}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':34s} {failed / attempted:14.6g} ({failed} of {attempted} requests)")
    if not args.trace:
        tail = info["tail_percentile"]
        print(f"  req_tail_ms is p{tail} of {info['samples']} samples" if tail else
              f"  req_tail_ms is the maximum of {info['samples']} samples (fewer than 11)")
        print(f"  setup_s starts: {', '.join(f'{t:.4f}' for t in setup)}")
    for key, value in info.items():
        if key not in ("samples", "tail_percentile"):
            print(f"  {key}: {value}")
    for line in result["failures"]:
        print(f"  FAILED {line}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
