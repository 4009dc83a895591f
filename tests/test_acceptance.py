"""End-to-end acceptance gate.

Each test prints exactly one criterion line (PASS or FAIL with the measured
numbers) and then asserts, so a full run leaves a readable scorecard. The
deviation bounds are calibrated O(1/sqrt(N)) constants; the identity checks
are exact up to stated float tolerances.
"""
import csv
import json
import math
import time

import numpy as np
import pytest

from qwsearch import (IterationPlan, MixedEnsemble, NodeState, WalkSpec,
                      build_dense_evolution, compose_walker,
                      enumerate_pauli_layers, evolve, evolve_dense,
                      grid_product_overlap, groverian_entanglement,
                      make_basis_node_state, make_even_uniform_node_state,
                      make_ghz_node_state, make_random_node_state,
                      make_tilted_node_state, make_uniform_node_state,
                      optimize_local_layer_detailed, predicted_probability,
                      prepare_oskw1, prepare_skw1, prepare_skw2_rows,
                      prepare_skw3, uniform_coin, walk_rows,
                      xor_covariance_deviation)
from qwsearch.cli import main as cli_main

BOUND_N8 = 3 / math.sqrt(256)


def _line(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _product_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = np.ones(1, dtype=np.complex128)
    for _ in range(n):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(z / np.linalg.norm(z), amps)
    return NodeState(n, amps)


def test_criterion_01_reference_walk(capsys):
    """Plain walk at 256 vertices lands near the half-probability plateau."""
    t0 = time.perf_counter()
    (first,) = walk_rows([prepare_skw1(make_uniform_node_state(8))])
    wall = time.perf_counter() - t0
    (second,) = walk_rows([prepare_skw1(make_uniform_node_state(8))])
    dev = abs(first.p_avg - 0.5)
    stable = abs(first.p_avg - second.p_avg)
    ok = (first.tau == 18 and dev <= BOUND_N8 and stable <= 1e-12
          and wall < 5.0)
    _line(capsys, 1, "reference walk", ok,
          f"P={first.p_avg:.6f}, |P-0.5|={dev:.6f} <= {BOUND_N8:.4f}, "
          f"rerun drift {stable:.1e}, wall {wall:.2f} s")
    assert first.tau == 18
    assert dev <= BOUND_N8
    assert stable <= 1e-12
    assert wall < 5.0


def test_criterion_02_coherence_rate_scaling(capsys):
    """Success tracks f_c/2 on Haar states, tighter as the cube grows."""
    t0 = time.perf_counter()
    max_dev = {}
    for n in (8, 10):
        devs = [res.abs_dev for res in walk_rows(
            [prepare_skw1(make_random_node_state(n, seed)) for seed in range(100)])]
        max_dev[n] = max(devs)
    wall = time.perf_counter() - t0
    ratio = max_dev[10] / max_dev[8]
    ok = max_dev[8] <= BOUND_N8 and ratio <= 0.6 and wall < 600.0
    _line(capsys, 2, "coherence-rate scaling", ok,
          f"max dev n=8 {max_dev[8]:.5f} <= {BOUND_N8:.4f}, "
          f"n=10 {max_dev[10]:.5f}, shrink ratio {ratio:.3f} <= 0.6, "
          f"wall {wall:.0f} s")
    assert max_dev[8] <= BOUND_N8
    assert ratio <= 0.6
    assert wall < 600.0


def test_criterion_03_mixed_state_linearity(capsys):
    """Ensemble rate is the weighted member mean and tracks <eta|rho|eta>/2."""
    n = 8
    members = ((0.2, make_basis_node_state(n, 3)),
               (0.3, make_ghz_node_state(n)),
               (0.5, make_random_node_state(n, 17)))
    (mixed,) = walk_rows([prepare_skw1(MixedEnsemble(members))])
    weighted = sum(w * res.p_avg for (w, _), res in
                   zip(members, walk_rows([prepare_skw1(s) for _, s in members])))
    lin_dev = abs(mixed.p_avg - weighted)
    ok = lin_dev <= 1e-12 and mixed.abs_dev <= BOUND_N8
    _line(capsys, 3, "mixed-state linearity", ok,
          f"linearity dev {lin_dev:.2e} <= 1e-12, "
          f"|p_avg - f_c/2| = {mixed.abs_dev:.5f} <= {BOUND_N8:.4f}")
    assert lin_dev <= 1e-12
    assert mixed.abs_dev <= BOUND_N8


def test_criterion_04_layer_optimizer_identity(capsys):
    """Best local-layer overlap equals one minus squared entanglement."""
    t0 = time.perf_counter()
    worst_identity = 0.0
    worst_grid = 0.0
    for n in (3, 4, 5):
        for seed in range(50):
            s = make_random_node_state(n, seed)
            _, achieved, rep = optimize_local_layer_detailed(s, seed=seed)
            worst_identity = max(worst_identity,
                                 abs(achieved - (1 - rep.E_g ** 2)))
            if n == 3:
                worst_grid = max(worst_grid,
                                 abs(achieved - grid_product_overlap(s, 64)))
    wall = time.perf_counter() - t0
    ok = worst_identity <= 1e-8 and worst_grid <= 2e-3 and wall < 120.0
    _line(capsys, 4, "layer-optimizer identity", ok,
          f"worst identity dev {worst_identity:.2e} <= 1e-8, "
          f"worst grid dev {worst_grid:.2e} <= 2e-3, wall {wall:.0f} s")
    assert worst_identity <= 1e-8
    assert worst_grid <= 2e-3
    assert wall < 120.0


def test_criterion_05_entanglement_limited_rate(capsys):
    """Optimized-start walk tracks (1 - E_g^2)/2 at 256 vertices."""
    n = 8
    states = [_product_state(n, 5), make_ghz_node_state(n)]
    states += [make_random_node_state(n, seed) for seed in range(20)]
    worst = max(res.abs_dev for res in
                walk_rows(prepare_skw2_rows(states, list(range(len(states))))))
    ok = worst <= BOUND_N8
    _line(capsys, 5, "entanglement-limited rate", ok,
          f"worst |p_avg - (1-E_g^2)/2| = {worst:.5f} <= {BOUND_N8:.4f} "
          f"over product + GHZ + 20 Haar states")
    assert worst <= BOUND_N8


def test_criterion_06_pauli_enumeration_identity(capsys):
    """Exhaustive Pauli-layer search equals the largest basis weight."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        for seed in range(50):
            s = make_random_node_state(n, seed)
            _, achieved = enumerate_pauli_layers(s)
            worst = max(worst, abs(achieved - float(np.max(np.abs(s.amplitudes) ** 2))))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-12 and wall < 60.0
    _line(capsys, 6, "Pauli-enumeration identity", ok,
          f"worst dev {worst:.2e} <= 1e-12 over 250 states, wall {wall:.1f} s")
    assert worst <= 1e-12
    assert wall < 60.0


def test_criterion_07_coherence_limited_rate(capsys):
    """Pauli-frame walk tracks (1 - C_f^2)/2, endpoints included."""
    n = 8
    cases = [make_basis_node_state(n, 37), make_uniform_node_state(n),
             make_tilted_node_state(n, 0.5)]
    cases += [make_random_node_state(n, seed) for seed in range(3)]
    results = walk_rows([prepare_skw3(s) for s in cases])
    worst = max(r.abs_dev for r in results)
    endpoints = (results[0].p_pred == 0.5
                 and abs(results[1].p_pred - 1 / 512) < 1e-15)
    ok = worst <= BOUND_N8 and endpoints
    _line(capsys, 7, "coherence-limited rate", ok,
          f"worst |p_avg - (1-C_f^2)/2| = {worst:.5f} <= {BOUND_N8:.4f}, "
          f"endpoints p_pred 0.5 and 1/512 hit")
    assert endpoints
    assert worst <= BOUND_N8


def test_criterion_08_measure_ordering(capsys):
    """Entanglement never exceeds basis-change coherence; rates order too."""
    counts = {3: 67, 4: 67, 5: 66}
    worst_gap = -math.inf
    all_converged = True
    worst_rate_gap = -math.inf
    total = 0
    for n, count in counts.items():
        for seed in range(count):
            rep = groverian_entanglement(make_random_node_state(n, seed),
                                         seed=seed)
            all_converged &= bool(rep.converged)
            worst_gap = max(worst_gap, rep.E_g - rep.C_f)
            p3 = predicted_probability("skw3", rep)
            p2 = predicted_probability("skw2", rep)
            worst_rate_gap = max(worst_rate_gap, p3 - p2)
            total += 1
    ok = worst_gap <= 1e-9 and worst_rate_gap <= 1e-9 and all_converged
    _line(capsys, 8, "measure ordering", ok,
          f"max E_g - C_f = {worst_gap:.2e} <= 1e-9, "
          f"max rate gap {worst_rate_gap:.2e} <= 1e-9, "
          f"converged on all {total} states")
    assert all_converged
    assert worst_gap <= 1e-9
    assert worst_rate_gap <= 1e-9


def test_criterion_09_parity_restricted_walk(capsys):
    """Two-shift walk clears 0.8 from the even-flat start and tracks overlap."""
    (base,) = walk_rows([prepare_oskw1(make_even_uniform_node_state(9))])
    projectable = [make_random_node_state(9, seed) for seed in range(6)]
    projectable += [make_ghz_node_state(9), make_tilted_node_state(9, 0.5)]
    worst = max(res.abs_dev for res in walk_rows([prepare_oskw1(s) for s in projectable]))
    bound = 6 / math.sqrt(512)
    ok = base.tau == 25 and base.p_avg >= 0.8 and worst <= bound
    _line(capsys, 9, "parity-restricted walk", ok,
          f"flat-start P={base.p_avg:.4f} >= 0.8 at tau={base.tau}, "
          f"worst projected dev {worst:.5f} <= {bound:.4f}")
    assert base.tau == 25
    assert base.p_avg >= 0.8
    assert worst <= bound


def test_criterion_10_oracle_equivalence(capsys):
    """Dense operators agree with the matrix-free walk; relabeling commutes."""
    worst_unitary = 0.0
    worst_agree = 0.0
    for n in range(2, 6):
        for variant, target in (("skw", 1), ("oskw", 0)):
            spec = WalkSpec(n=n, node_count=1 << n, target=target,
                            variant=variant)
            op = build_dense_evolution(spec)
            worst_unitary = max(worst_unitary, float(np.max(np.abs(
                op.entries.conj().T @ op.entries - np.eye(op.dim)))))
            plan = IterationPlan.explicit(50)
            w = compose_walker(uniform_coin(n), make_random_node_state(n, n))
            free = evolve(w, spec, plan)
            dense = evolve_dense(w, spec, plan)
            worst_agree = max(worst_agree, float(np.max(np.abs(
                free.amplitudes - dense.amplitudes))))
    worst_xor = 0.0
    for n in range(2, 7):
        worst_xor = max(worst_xor,
                        xor_covariance_deviation(n, (1 << n) - 1, 0, "skw"),
                        xor_covariance_deviation(n, 3, 0, "oskw"))
    ok = worst_unitary <= 1e-12 and worst_agree <= 1e-12 and worst_xor <= 1e-12
    _line(capsys, 10, "oracle equivalence", ok,
          f"unitarity {worst_unitary:.2e}, dense-vs-free {worst_agree:.2e}, "
          f"relabeling {worst_xor:.2e}, all <= 1e-12")
    assert worst_unitary <= 1e-12
    assert worst_agree <= 1e-12
    assert worst_xor <= 1e-12


def test_criterion_11_harness_reproducibility(capsys, tmp_path, monkeypatch):
    """Identical config and seeds give byte-identical rows; sweep self-checks."""
    monkeypatch.chdir(tmp_path)
    text = """
experiment.id = accept
run.variant = skw1
run.n = 5
run.seeds = 1, 2, 3
run.measure_entanglement = true
state.family = haar_random
output.csv = {tag}.csv
output.summary = {tag}.json
"""
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.txt"
        cfg.write_text(text.format(tag=tag), encoding="utf-8")
        assert cli_main(["run", str(cfg)]) == 0

    def strip_wall(name):
        lines = (tmp_path / name).read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    identical = strip_wall("a.csv") == strip_wall("b.csv")

    assert cli_main(["sweep-fig4", "--n", "5", "--samples", "5", "--out",
                     str(tmp_path / "sweep"), "--seed", "2"]) == 0
    worst = 0.0
    with open(tmp_path / "sweep" / "sweep_fig4.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["variant"] == "skw1":
            pred = float(row["f_c"]) / 2
        elif row["variant"] == "skw2":
            pred = (1 - float(row["E_g"]) ** 2) / 2
        else:
            pred = (1 - float(row["C_f"]) ** 2) / 2
        worst = max(worst, abs(pred - float(row["p_pred"])))
    summary = json.loads((tmp_path / "sweep" / "sweep_fig4_summary.json")
                         .read_text())
    ok = identical and worst <= 1e-12 and len(rows) == 15
    _line(capsys, 11, "harness reproducibility", ok,
          f"reruns byte-identical modulo wall_ms: {identical}, "
          f"sweep p_pred recompute dev {worst:.2e} <= 1e-12 over "
          f"{len(rows)} rows (summary echo "
          f"{summary['p_pred_recompute_max_dev']:.2e})")
    assert identical
    assert worst <= 1e-12
    assert len(rows) == 15
