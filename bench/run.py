"""Benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Starts the workload's process (worker.py) SETUPS times and takes set-up
time from outside as the time from starting the process to its READY
line; all but the last start only set up. The last one runs the workload
for --seconds and checks its output. The last line printed is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUPS = 7
DEADLINE_S = 170.0
# BLAS gets one thread per usable CPU, OpenBLAS's own default, so the
# workloads see what a user sees; setting it keeps it capped at nproc.
BLAS_THREADS = str(len(os.sched_getaffinity(0)))


def spawn(args, run_dir, setup_only, env, deadline):
    """Start one workload process; returns (set-up seconds, process)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    # a process stuck before READY is killed at the deadline
    killer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    killer.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    killer.cancel()
    if line.strip() != "READY":
        finish(proc, deadline)
        sys.exit(f"bench: workload process did not get ready (exit {proc.returncode})")
    return setup, proc


def finish(proc, deadline):
    """Wait for the process, killing it at the deadline; returns its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("bench: workload process killed at the deadline")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.perf_counter() + DEADLINE_S

    env = {k: v for k, v in os.environ.items() if k != "QWSEARCH_OUT"}
    env.update({var: BLAS_THREADS for var in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    setups = []
    for k in range(SETUPS - 1):
        setup, proc = spawn(args, run_dir / f"setup{k}", True, env, deadline)
        finish(proc, deadline)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up process exited {proc.returncode}")
        shutil.rmtree(run_dir / f"setup{k}")
        setups.append(setup)
    setup, proc = spawn(args, run_dir / "run", False, env, deadline)
    setups.append(setup)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        sys.exit(f"bench: workload process exited {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        units = dict(PER_LAYER)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(res["wall_s"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(res["cpu_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
