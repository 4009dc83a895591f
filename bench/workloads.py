"""The four workloads: the commands a run repeats, and what each row must be.

Each workload function takes the imported program, the run's seed and a
directory for config files. It returns the workload's distinct commands and
the number of them that make one round. A run executes rounds in order,
wrapping around the list, so it only ever repeats whole rounds. Each
execution writes into a fresh output directory.

`Command.expect(reference)` lists, in order, the row each output line of one
execution must match. With `reference` set, the first skw2-haar row gets its
walked state from the program's own optimizer, which `checks.check_row`
verifies before the reference walk recomputes the row. This is done for the
first execution of a run only, because it repeats the optimizer's work.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

import checks
from checks import Expect

SKW1_N = 10
SKW2_N = 8
SKW2_STATES = 12       # the skw2 states are haar_random seeds 0..11
OSKW1_N = 9            # walk directions: base size 8
OSKW1_ROWS = 4         # seeds per oskw1 command
FIG4_N = 9
FIG4_SAMPLES = 11
FIG4_FAULTS = ("fig4-skw2-09", "fig4-skw2-10")
DISTINCT = 16          # distinct commands made for skw1-haar and oskw1-parity


@dataclass
class Command:
    argv: List[str]            # arguments to qwsearch.cli.main
    csv_name: str              # CSV file the command writes in its output dir
    expect: Callable[[bool], List[Expect]]


def _config(path, variant, n, seeds, family_lines):
    lines = [f"experiment.id = bench-{variant}", f"run.variant = {variant}",
             f"run.n = {n}", "run.seeds = " + ", ".join(map(str, seeds)),
             *family_lines, "output.csv = rows.csv",
             "output.summary = summary.json"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _haar(qw, n, seed):
    """A haar_random config row's input, as the program defines it."""
    return qw.states.make_random_node_state(n, seed).amplitudes


def skw1_haar(qw, seed, cfg_dir):
    cmds = []
    for k in range(DISTINCT):
        s = seed * 1000 + k
        path = _config(os.path.join(cfg_dir, f"skw1-{k:02d}.cfg"), "skw1",
                       SKW1_N, [s], ["state.family = haar_random"])

        def expect(reference, s=s):
            psi = _haar(qw, SKW1_N, s)
            return [Expect("bench-skw1", "skw1", SKW1_N, psi, s, walked=psi)]
        cmds.append(Command(["run", path], "rows.csv", expect))
    return cmds, 1


def skw2_haar(qw, seed, cfg_dir):
    seeds = [(seed + k) % SKW2_STATES for k in range(SKW2_STATES)]
    path = _config(os.path.join(cfg_dir, "skw2.cfg"), "skw2", SKW2_N, seeds,
                   ["state.family = haar_random"])

    def expect(reference):
        rows = [Expect("bench-skw2", "skw2", SKW2_N, _haar(qw, SKW2_N, s), s)
                for s in seeds]
        if reference:
            first = rows[0]
            node = qw.states.NodeState(SKW2_N, first.psi)
            layer, _, _ = qw.measures.optimize_local_layer_detailed(node, None,
                                                                    first.seed)
            first.walked = checks.product_layer(first.psi, layer.factors)
        return rows
    return [Command(["run", path], "rows.csv", expect)], 1


def oskw1_parity(qw, seed, cfg_dir):
    cmds = []
    for k in range(DISTINCT):
        seeds = [seed * 1000 + OSKW1_ROWS * k + i for i in range(OSKW1_ROWS)]
        path = _config(os.path.join(cfg_dir, f"oskw1-{k:02d}.cfg"), "oskw1",
                       OSKW1_N, seeds, ["state.family = haar_random"])

        def expect(reference, seeds=seeds):
            return [Expect("bench-oskw1", "oskw1", OSKW1_N, _haar(qw, OSKW1_N, s), s)
                    for s in seeds]
        cmds.append(Command(["run", path], "rows.csv", expect))
    return cmds, 1


def fig4_expect(seed: int) -> List[Expect]:
    """The 33 sweep rows, in the order sweep-fig4 writes them."""
    n, N = FIG4_N, 1 << FIG4_N
    uniform = np.full(N, 1.0 / math.sqrt(N))
    basis0 = np.eye(1, N, 0).ravel()
    rows = []
    for k, t in enumerate(np.linspace(0.0, 1.0, FIG4_SAMPLES)):
        v = t * uniform + (1.0 - t) * basis0
        psi = v / np.linalg.norm(v)
        rows.append(Expect(f"fig4-skw1-{k:02d}", "skw1", n, psi, seed, walked=psi))
    for k, alpha in enumerate(np.linspace(0.0, math.pi / 4.0, FIG4_SAMPLES)):
        psi = np.zeros(N)
        psi[0], psi[-1] = math.cos(alpha), math.sin(alpha)
        eid = f"fig4-skw2-{k:02d}"
        rows.append(Expect(eid, "skw2", n, psi, seed,
                           walked=checks.ghz_frame_state(n, float(alpha)),
                           alpha=float(alpha),
                           known_fault="envelope" if eid in FIG4_FAULTS else None))
    for k, s in enumerate(np.linspace(1.0 / N, 1.0, FIG4_SAMPLES)):
        psi = np.full(N, math.sqrt((1.0 - s) / (N - 1)))
        psi[0] = math.sqrt(s)
        rows.append(Expect(f"fig4-skw3-{k:02d}", "skw3", n, psi, 0,
                           walked=checks.pauli_frame_state(psi), tilt=float(s)))
    return rows


def fig4_sweep(qw, seed, cfg_dir):
    argv = ["sweep-fig4", "--n", str(FIG4_N), "--samples", str(FIG4_SAMPLES),
            "--seed", str(seed)]
    qw.cli.build_parser().parse_args(argv)
    return [Command(argv, "sweep_fig4.csv", lambda reference: fig4_expect(seed))], 1


WORKLOADS = {
    "skw1-haar": skw1_haar,
    "skw2-haar": skw2_haar,
    "fig4-sweep": fig4_sweep,
    "oskw1-parity": oskw1_parity,
}
