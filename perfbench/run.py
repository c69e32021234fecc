"""Benchmark of entropyne's grid CLI, closed forms and Fock oracle.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid-csv --seed 1 --seconds 25 --trace 0

Workloads: grid-csv, grid-json, closed-forms, oracle (see README.md).  Each
runs in one worker process with every BLAS/OpenMP pool at one thread and
``src/`` as the only import path for entropyne.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(setup_s, op_p50_s, ops_per_s, peak_rss_mb); with ``--trace 1`` they are the
per-layer figures of a traced run, whose spans go to
``.perfbench_out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

WORKLOADS = ("grid-csv", "grid-json", "closed-forms", "oracle")
# The default two-thread OpenBLAS pool makes the oracle 2-2.5x slower on a
# 2-core machine, which measures the scheduler rather than the program.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 6          # fresh processes timed from start to their first operation
RUN_MARGIN_S = 145.0      # a run ends within --seconds plus this, or fails
OUT_DIR = ".perfbench_out"
UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MiB",
         "grids.bytes_out": "B", "kernels.cells": "count", "kernels.nan_cells": "count",
         "amplifier.delta_evals": "count", "gaussian.calls": "count",
         "fock.eigensolves": "count", "fock.eig_rows": "count"}


class BenchError(Exception):
    pass


def worker_env(root):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENTROPYNE_")}
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start(args, root, extra, deadline, cpu=None):
    """Start a worker; return it and the seconds until it reported ready."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(root, OUT_DIR)] + extra
    began = time.perf_counter()
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root),
                            stdout=subprocess.PIPE, text=True, preexec_fn=pin)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], left(deadline))
        if not ready or proc.stdout.readline() != "ready\n":
            raise BenchError(f"{args.workload} worker did not get ready")
    except BaseException:
        stop(proc)
        raise
    return proc, time.perf_counter() - began


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def left(deadline):
    return max(0.0, deadline - time.monotonic())


def finish(proc, deadline):
    """Wait for the worker; return its last output line."""
    try:
        out, _ = proc.communicate(timeout=left(deadline))
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def run(args, root):
    deadline = time.monotonic() + args.seconds + RUN_MARGIN_S
    setup = []
    if not args.trace:
        # Probes take the CPUs in turn, as the worker's operations do.
        cpus = sorted(os.sched_getaffinity(0))
        for k in range(SETUP_PROBES):
            proc, seconds = start(args, root, ["--setup-only"], deadline, cpus[k % len(cpus)])
            finish(proc, deadline)
            setup.append(seconds)
    proc, _ = start(args, root, [], deadline)
    report = json.loads(finish(proc, deadline))
    metrics = dict(report["metrics"])
    if not args.trace:
        metrics = {"setup_s": statistics.median(setup), **metrics}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": UNITS.get(name, "s")}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "entropyne", "__init__.py")):
        print("error: run from the root of an entropyne checkout (no src/entropyne)",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    try:
        result = run(args, root)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
