#!/usr/bin/env python3
"""Reproduce the two headline operating points and print a short table.

Plain walk: 8 directions, 256 vertices, flat start, optimal step count.
Parity-restricted walk: base size 8, so 9 directions on 512 vertices.
"""
import argparse
import time

from qwsearch import run_oskw, run_skw


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8,
                    help="base hypercube dimension (default 8)")
    args = ap.parse_args()

    t0 = time.perf_counter()
    plain = run_skw(args.n)
    two_shift = run_oskw(args.n)
    wall = time.perf_counter() - t0

    print(f"{'walk':<12} {'dirs':>4} {'targets':>8} {'steps':>5} "
          f"{'p_avg':>10} {'p_pred':>10} {'dev':>10}")
    # the plain walk averages over every vertex, the two-shift walk over the even ones
    for label, res, targets in (("plain", plain, 1 << plain.n),
                                ("two-shift", two_shift, 1 << (two_shift.n - 1))):
        print(f"{label:<12} {res.n:>4} {targets:>8} "
              f"{res.tau:>5} {res.p_avg:>10.6f} {res.p_pred:>10.6f} "
              f"{res.abs_dev:>10.6f}")
    print(f"total {wall:.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
