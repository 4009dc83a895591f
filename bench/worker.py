"""One workload process: set up, run the commands in a closed loop, check.

Started by run.py. Prints READY once set-up is done (imports, inputs
written and parsed). Unless --setup-only, it then runs whole rounds of the
workload's commands through qwsearch.cli.main while they fit in
--seconds, checks every row, and prints one JSON line with the raw figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
from spans import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SELF_SUM_TOL = 0.01


def import_program():
    """Import qwsearch from this checkout's src/, never from elsewhere."""
    if not (SRC / "qwsearch" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'qwsearch'}")
    sys.path.insert(0, str(SRC))
    import qwsearch
    import qwsearch.cli
    if Path(qwsearch.__file__).resolve().parent != (SRC / "qwsearch").resolve():
        sys.exit(f"bench: qwsearch imported from {qwsearch.__file__}, not {SRC}")
    return qwsearch


def execute(qw, cmd, out_dir, tracer=None, index=0):
    """Run one command; returns (exit code, wall s, cpu s)."""
    os.makedirs(out_dir)
    os.environ["QWSEARCH_OUT"] = str(out_dir)
    sink = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(sink):
        try:
            if tracer is None:
                code = qw.cli.main(cmd.argv)
            else:
                code = tracer.run(index, qw.cli.main, cmd.argv)
        except Exception:          # the command failed; its rows count as failed
            traceback.print_exc()
            code = 1
    return code, time.perf_counter() - t0, time.process_time() - c0


def check(cmd, out_dir, code, reference):
    """(attempted, failed, unexpected failures) for one execution."""
    expected = cmd.expect(reference)
    path = Path(out_dir) / cmd.csv_name
    rows = checks.read_rows(path) if code == 0 and path.is_file() else []
    if len(rows) != len(expected):
        return len(expected), len(expected), [
            f"{out_dir}: exit {code}, {len(rows)} rows for {len(expected)}"]
    failed, unexpected = 0, []
    for row, exp in zip(rows, expected):
        bad = checks.check_row(row, exp)
        if bad:
            failed += 1
            if bad != [exp.known_fault]:
                unexpected.append(f"{out_dir}: {exp.experiment_id} failed {bad}")
    return len(expected), failed, unexpected


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    qw = import_program()
    run_dir = Path(args.run_dir)
    cfg_dir = run_dir / "inputs"
    cfg_dir.mkdir(parents=True)
    commands, size = WORKLOADS[args.workload](qw, args.seed, str(cfg_dir))
    for cmd in commands:
        if cmd.argv[0] == "run":
            qw.cli.load_config(cmd.argv[1])
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    # whole rounds in a closed loop; another round starts only while one
    # more of the length of the last still fits in --seconds
    done = []                # (command, out_dir, exit code, wall, cpu, traced)
    rounds = []              # (wall, cpu) of each untraced round
    start = time.perf_counter()
    k = 0
    while True:
        t0, first = time.perf_counter(), len(done)
        for cmd in commands[k * size % len(commands):][:size]:
            out = run_dir / f"cmd{len(done):03d}"
            done.append((cmd, out, *execute(qw, cmd, out), False))
            if tracer is not None:
                out = run_dir / f"cmd{len(done):03d}-traced"
                done.append((cmd, out, *execute(qw, cmd, out, tracer, len(done)), True))
        rounds.append(tuple(sum(d[i] for d in done[first:] if not d[5]) for i in (3, 4)))
        k += 1
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted = failed = 0
    unexpected = []
    for i, (cmd, out, code, _, _, _) in enumerate(done):
        a, f, u = check(cmd, out, code, reference=(i == 0))
        attempted, failed = attempted + a, failed + f
        unexpected += u
    for line in unexpected:
        print(f"bench: {line}", file=sys.stderr)

    result = {"attempted": attempted, "failed": failed, "correct": not unexpected,
              "wall_s": [r[0] for r in rounds], "cpu_s": [r[1] for r in rounds],
              "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        traced = [d for d in done if d[5]]
        traced_wall = sum(d[3] for d in traced)
        write_bytes = sum(f.stat().st_size for d in traced
                          for f in Path(d[1]).iterdir() if f.is_file())
        untraced_wall = sum(d[3] for d in done if not d[5])
        result["layers"] = layer_metrics(tracer, len(traced), traced_wall,
                                         untraced_wall, write_bytes)
        tracer.write(run_dir / "spans.json")
        # self times partition the root spans; what is left is the wrapper
        # and output-capture time around each root span
        accounted = sum(tracer.self_times().values())
        if abs(traced_wall - accounted) > SELF_SUM_TOL * traced_wall:
            print(f"bench: layer self times add up to {accounted:.4f} s of "
                  f"{traced_wall:.4f} s traced", file=sys.stderr)
            return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
