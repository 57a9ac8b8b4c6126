#!/usr/bin/env python3
"""avibasis benchmark.

    python3 bench/run.py --workload NAME [--seed 7] [--seconds 25] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (set-up time, seconds per fit, seconds per draw for the
whole workload, all three scaled to a reference host speed as
``reference.py`` describes; peak RSS); with ``--trace 1`` it holds the per-layer
metrics of a traced run.  ``bench/README.md`` lists the workloads and
metrics.

This parent process runs the workload in one child process with a fixed
environment: BLAS threads pinned, ``AVIBASIS_RANK_TOL`` removed, ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ellipse300", "ellipse5000", "epsscan75", "coefcurve200")
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("AVIBASIS_RANK_TOL", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small draw per workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "avibasis", "__init__.py")):
        print(f"error: no src/avibasis under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    env = worker_env(src)
    command = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    try:
        worker = subprocess.run(command, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                                timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the benchmark exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot start the worker: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(worker.stdout)
    return worker.returncode


if __name__ == "__main__":
    sys.exit(main())
