"""One workload in one process: set up, run whole rounds, report as JSON.

Started by run.py with the thread-pool variables already set.  Prints
``ready`` once entropyne is imported and the inputs are made, then (unless
``--setup-only``) runs whole rounds of the workload's operations until
``--seconds`` have passed and prints one JSON line of figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

WINDOW_S = 1.0   # ops_per_s is the median rate over windows of at least this much op time


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", default=".perfbench_out")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads  # imports entropyne from src/ of the checkout

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(workloads.cli_main.__code__.co_filename).startswith(src + os.sep):
        print("entropyne was not imported from ./src", file=sys.stderr)
        return 2
    workdir = os.path.join(args.out, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        report = measure(workload, args, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report), flush=True)
    return 0


def measure(workload, args, workloads):
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer([workloads])
    ops = workload.round()
    # The operations take the allowed CPUs in turn.  Left to the scheduler, a
    # run stays on whichever CPU it started on, and on a shared host the CPUs
    # differ in speed by 10-20%, which made whole runs fast or slow.
    cpus = sorted(os.sched_getaffinity(0))
    keys = []             # check key of every operation attempted
    times = {False: [], True: []}   # op wall times, untraced / traced
    windows = [[0, 0.0]]  # [ops, op seconds] of consecutive untraced rounds
    layers = []           # per-layer figures of each traced operation
    first_error = []

    def attempt(fn, *args, failed=None):
        """fn(*args); an exception makes the operation fail, and the run goes on."""
        try:
            return fn(*args)
        except Exception:
            if not first_error:
                first_error.append(traceback.format_exc())
                print(first_error[0], file=sys.stderr)
            return failed

    def run_round(traced, timed):
        if traced:
            tracer.install()
        try:
            for op in ops:
                os.sched_setaffinity(0, {cpus[len(times[traced]) % len(cpus)]})
                if traced:
                    tracer.begin_op()
                start = time.perf_counter()
                result = attempt(op)
                elapsed = time.perf_counter() - start
                figures = tracer.end_op(len(keys)) if traced else None
                key, size = (False, 0) if result is None else \
                    attempt(workload.check, result, failed=(False, 0))
                keys.append(key)
                if timed:
                    times[traced].append(elapsed)
                    if traced:
                        figures["grids.bytes_out"] = size
                        layers.append(figures)
        finally:
            if traced:
                tracer.uninstall()
        if timed and not traced:
            done = times[False][-len(ops):]
            if windows[-1][1] >= WINDOW_S:
                windows.append([0, 0.0])
            windows[-1][0] += len(done)
            windows[-1][1] += sum(done)

    run_round(False, False)   # warm-up: lazy imports and first-call costs
    deadline = time.perf_counter() + args.seconds
    n_round = 0
    while True:
        run_round(bool(args.trace) and n_round % 2 == 1, True)
        n_round += 1
        if time.perf_counter() >= deadline and (not args.trace or n_round % 2 == 0):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(not attempt(workload.verdict, k, failed=False) for k in keys)

    untraced = times[False]
    report = {"attempted": len(keys), "failed": failed}
    if not args.trace:
        report["metrics"] = {
            "op_p50_s": statistics.median(untraced),
            "ops_per_s": window_rate(windows),
            "peak_rss_mb": peak_rss_mb,
        }
        return report
    metrics = {name: statistics.median(f[name] for f in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(times[True]) - statistics.median(untraced)
    report["metrics"] = metrics
    tracer.dump(os.path.join(args.out, f"trace-{args.workload}.json"),
                {"workload": args.workload, "seed": args.seed})
    return report


def window_rate(windows):
    """Median of ops per second over the windows (a short last one is dropped).

    A median over about one-second windows, rather than all operations over
    all their time, keeps a burst of slowness on a shared host from moving
    the whole run's figure.
    """
    full = [n / t for n, t in windows if t >= WINDOW_S] or [n / t for n, t in windows]
    return statistics.median(full)


if __name__ == "__main__":
    sys.exit(main())
