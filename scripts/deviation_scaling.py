#!/usr/bin/env python3
"""Measured-versus-predicted deviation on Haar starts as the cube grows.

For each n, runs the coherence-tracked walk on seeded Haar random states and
reports the worst and mean |p_avg - f_c/2| against the 3/sqrt(N) envelope.
Larger cubes should hug the prediction tighter.
"""
import argparse
import math
import time

from qwsearch import make_random_node_state, prepare_skw1, walk_rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=4)
    ap.add_argument("--max-n", type=int, default=9)
    ap.add_argument("--samples", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.min_n < 2 or args.max_n < args.min_n:
        ap.error("need 2 <= min-n <= max-n")

    print(f"{'n':>3} {'samples':>7} {'max_dev':>10} {'mean_dev':>10} "
          f"{'bound':>10} {'wall_s':>7}")
    for n in range(args.min_n, args.max_n + 1):
        t0 = time.perf_counter()
        # one row group per n: every sample walks on one kernel build
        rows = [prepare_skw1(make_random_node_state(n, args.seed + k))
                for k in range(args.samples)]
        devs = [res.abs_dev for res in walk_rows(rows)]
        wall = time.perf_counter() - t0
        bound = 3 / math.sqrt(2 ** n)
        print(f"{n:>3} {args.samples:>7} {max(devs):>10.6f} "
              f"{sum(devs) / len(devs):>10.6f} {bound:>10.6f} {wall:>7.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
