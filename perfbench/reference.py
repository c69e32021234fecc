"""Reference figures for ROADMAP item 1's baseline, taken the benchmark's way.

Run from the root of a source checkout:

    python3 perfbench/reference.py

Every figure comes from a fresh process started with the benchmark's
environment (one BLAS/OpenMP thread, ``src/`` as the import path):

- a 10^6-cell ``qubit-grid`` (1000 x 1000) written as CSV and as JSON, with
  the process's wall time and peak resident set;
- a bare ``import entropyne``;
- the full ``entropyne verify``, with the wall time of each family.

It prints one JSON object.  The benchmark does not run this script.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time

from run import OUT_DIR, worker_env

GRID_ARGS = ["qubit-grid", "--p-norm", "0.5", "--h-norm", repr(math.sqrt(14.0)),
             "--theta", f"0:{math.pi!r}:1000", "--temp", "0.5:10:1000"]
VERIFY_FAMILIES = """
import json, time
from entropyne import verify
out = {}
for family in verify.ALL_FAMILIES:
    start = time.perf_counter()
    result = family(2024, False)
    out[result.name] = [round(time.perf_counter() - start, 3), bool(result.passed)]
print(json.dumps(out))
"""


def timed(cmd, root):
    """(wall seconds, peak RSS MiB, stdout) of one child process."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE,
                            text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{cmd} exited with code {code}")
    return round(wall, 3), round(usage.ru_maxrss / 1024.0, 1), out


def main() -> int:
    root = os.getcwd()
    figures = {}
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(root, OUT_DIR)) as tmp:
        for fmt in ("csv", "json"):
            path = os.path.join(tmp, "grid." + fmt)
            wall, rss, _ = timed([sys.executable, "-m", "entropyne.cli", *GRID_ARGS,
                                  "--format", fmt, "--output", path], root)
            figures[f"qubit_grid_1e6_{fmt}"] = {"wall_s": wall, "peak_rss_mb": rss,
                                                "bytes": os.path.getsize(path)}
    wall, rss, _ = timed([sys.executable, "-c", "import entropyne"], root)
    figures["import_entropyne"] = {"wall_s": wall, "peak_rss_mb": rss}
    wall, rss, out = timed([sys.executable, "-c", VERIFY_FAMILIES], root)
    figures["verify_full"] = {"wall_s": wall, "peak_rss_mb": rss,
                              "families_s": json.loads(out)}
    print(json.dumps(figures, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
