"""Tests of the benchmark's own checker.

    python3 -m pytest bench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from qwsearch import (IterationPlan, NodeState, WalkSpec, compose_walker,  # noqa: E402
                      uniform_coin)
from qwsearch.cli import main as cli_main  # noqa: E402
from qwsearch.oracle import evolve_dense  # noqa: E402
from spans import PER_LAYER, Tracer, layer_metrics  # noqa: E402


def _haar(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("walk", [checks.PLAIN, checks.TWO_SHIFT])
@pytest.mark.parametrize("tau", [0, 7, 12])
def test_reference_walk_matches_dense_oracle(n, walk, tau):
    N = 1 << n
    psi = _haar(n, 100 * n + tau)
    start = compose_walker(uniform_coin(n), NodeState(n, psi))
    plan = IterationPlan.explicit(tau)
    targets = np.array([t for t in range(N)
                        if walk == checks.PLAIN or bin(t).count("1") % 2 == 0])
    amps = checks.target_amplitudes(psi, tau, walk, targets)
    for j, t in enumerate(targets):
        dense = evolve_dense(start, WalkSpec(n=n, node_count=N, target=int(t),
                                             variant=walk), plan).grid()
        assert np.max(np.abs(amps[:, j] - dense[:, t])) <= 1e-12


def _cli_rows(tmp_path, variant, n, seed):
    cfg = tmp_path / f"{variant}.cfg"
    cfg.write_text(f"experiment.id = bench-{variant}\nrun.variant = {variant}\n"
                   f"run.n = {n}\nrun.seeds = {seed}\nstate.family = haar_random\n"
                   f"output.csv = {tmp_path / 'rows.csv'}\n"
                   f"output.summary = {tmp_path / 'summary.json'}\n")
    assert cli_main(["run", str(cfg)]) == 0
    return checks.read_rows(tmp_path / "rows.csv")


def _expect(variant, n, seed):
    from qwsearch import make_random_node_state
    psi = make_random_node_state(n, seed).amplitudes
    walked = None if variant.startswith("oskw") else psi
    return checks.Expect(f"bench-{variant}", variant, n, psi, seed, walked=walked)


@pytest.mark.parametrize("variant", ["skw1", "oskw1"])
def test_program_rows_pass_and_corrupted_rows_fail(tmp_path, variant):
    (row,) = _cli_rows(tmp_path, variant, 6, 3)
    exp = _expect(variant, 6, 3)
    assert checks.check_row(row, exp) == []
    for key, check in (("p_avg", "p_avg"), ("p_pred", "p_pred"), ("f_c", "f_c")):
        bad = dict(row)
        bad[key] = repr(float(row[key]) + 1e-6)
        assert check in checks.check_row(bad, exp), key


def test_skw2_rows_recompute_from_the_layer(tmp_path):
    from qwsearch import make_random_node_state, optimize_local_layer_detailed
    (row,) = _cli_rows(tmp_path, "skw2", 5, 4)
    psi = make_random_node_state(5, 4).amplitudes
    layer, _, _ = optimize_local_layer_detailed(NodeState(5, psi), None, 4)
    walked = checks.product_layer(psi, layer.factors)
    exp = checks.Expect("bench-skw2", "skw2", 5, psi, 4, walked=walked)
    assert checks.check_row(row, exp) == []
    bad = dict(row)
    bad["E_g"] = repr(float(row["E_g"]) * 1.01)
    assert {"layer overlap", "p_pred"} <= set(checks.check_row(bad, exp))


def test_ghz_and_tilted_closed_forms(tmp_path):
    assert cli_main(["sweep-fig4", "--n", "5", "--samples", "3",
                     "--out", str(tmp_path)]) == 0
    rows = checks.read_rows(tmp_path / "sweep_fig4.csv")
    n, N = 5, 32
    by_id = {r["experiment_id"]: r for r in rows}
    for k, alpha in enumerate(np.linspace(0.0, math.pi / 4, 3)):
        psi = np.zeros(N)
        psi[0], psi[-1] = math.cos(alpha), math.sin(alpha)
        exp = checks.Expect(f"fig4-skw2-{k:02d}", "skw2", n, psi, 0,
                            walked=checks.ghz_frame_state(n, alpha), alpha=alpha)
        assert checks.check_row(by_id[exp.experiment_id], exp) == []
    for k, s in enumerate(np.linspace(1.0 / N, 1.0, 3)):
        psi = np.full(N, math.sqrt((1 - s) / (N - 1)))
        psi[0] = math.sqrt(s)
        exp = checks.Expect(f"fig4-skw3-{k:02d}", "skw3", n, psi, 0,
                            walked=checks.pauli_frame_state(psi), tilt=s)
        assert checks.check_row(by_id[exp.experiment_id], exp) == []
        wrong = checks.Expect(exp.experiment_id, "skw3", n, psi, 0, tilt=s / 2)
        assert "C_f closed form" in checks.check_row(by_id[exp.experiment_id], wrong)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "cpu_s", "peak_rss_mb"}


def test_layer_metrics_follow_the_declared_list():
    names = list(layer_metrics(Tracer(), 1, 1.0, 1.0, 0))
    assert names == [name for name, _ in PER_LAYER]


def test_worker_counts_corrupted_rows_and_failed_commands(tmp_path):
    import csv
    import worker
    from workloads import Command
    (row,) = _cli_rows(tmp_path, "skw1", 6, 3)
    exp = _expect("skw1", 6, 3)
    bad = dict(row, p_avg=repr(float(row["p_avg"]) + 1e-6))
    with open(tmp_path / "rows.csv", "w", newline="") as fh:
        out = csv.DictWriter(fh, fieldnames=list(row))
        out.writeheader()
        out.writerows([row, bad])
    cmd = Command(["run", "unused"], "rows.csv", lambda reference: [exp, exp])
    attempted, failed, unexpected = worker.check(cmd, tmp_path, 0, False)
    assert (attempted, failed, len(unexpected)) == (2, 1, 1)
    assert worker.check(cmd, tmp_path, 3, False)[:2] == (2, 2)
