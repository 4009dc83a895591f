import math

import numpy as np
import pytest

from qwsearch import (InvariantViolation, IterationPlan, MixedEnsemble,
                      NodeState, ResourceReport, RunResult, WalkSpec,
                      apply_local_layer, compose_walker, enumerate_pauli_layers,
                      evolve_dense, hadamard_layer, make_basis_node_state,
                      make_even_uniform_node_state, make_ghz_node_state,
                      make_interpolated_node_state, make_random_node_state,
                      make_tilted_node_state, make_uniform_node_state,
                      predicted_probability, project_even_parity, run_oskw,
                      run_oskw1, run_skw, run_skw1, run_skw2, run_skw3,
                      success_probability, uniform_coin)

BOUND_N8 = 3 / math.sqrt(2 ** 8)


def _product_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = np.ones(1, dtype=np.complex128)
    for _ in range(n):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(z / np.linalg.norm(z), amps)
    return NodeState(n, amps)


def test_skw_reference_point():
    res = run_skw(8)
    assert res.tau == 18
    assert res.variant == "skw"
    assert 0.4 <= res.p_avg <= 0.55
    assert res.abs_dev <= BOUND_N8
    assert len(res.per_target) == 256


def test_skw1_uniform_matches_plain_walk():
    a = run_skw(8)
    b = run_skw1(make_uniform_node_state(8))
    assert a.p_avg == b.p_avg
    assert b.resource.f_c == pytest.approx(1.0, abs=1e-14)
    assert b.p_pred == 0.5


def test_skw1_basis_state():
    res = run_skw1(make_basis_node_state(8, 0))
    assert res.p_pred == pytest.approx(1 / 512, abs=1e-15)
    assert res.abs_dev <= BOUND_N8


def test_skw1_interpolated_monotone():
    devs, preds, ps = [], [], []
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        res = run_skw1(make_interpolated_node_state(8, t))
        devs.append(res.abs_dev)
        preds.append(res.p_pred)
        ps.append(res.p_avg)
    assert all(d <= BOUND_N8 for d in devs)
    assert preds == sorted(preds)
    assert ps == sorted(ps)


def test_skw1_mixed_linearity():
    eta = make_uniform_node_state(8)
    b0 = make_basis_node_state(8, 0)
    mixed = run_skw1(MixedEnsemble(((0.25, b0), (0.75, eta))))
    pa = run_skw1(b0)
    pb = run_skw1(eta)
    assert abs(mixed.p_avg - (0.25 * pa.p_avg + 0.75 * pb.p_avg)) < 1e-12
    for (_, m), (_, a), (_, b) in zip(mixed.per_target, pa.per_target,
                                      pb.per_target):
        assert abs(m - (0.25 * a + 0.75 * b)) < 1e-12
    assert mixed.resource.C_f is None  # basis-change fidelity is pure-state only


def test_skw1_entanglement_opt_in():
    lean = run_skw1(make_ghz_node_state(4))
    assert lean.resource.E_g is None
    full = run_skw1(make_ghz_node_state(4), measure_entanglement=True, seed=3)
    assert full.resource.E_g == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert full.p_avg == lean.p_avg


def test_skw2_product_state_recovers_full_rate():
    res = run_skw2(_product_state(8, seed=7), seed=1)
    assert res.p_pred == pytest.approx(0.5, abs=1e-6)
    assert abs(res.p_avg - 0.5) <= BOUND_N8
    assert res.resource.converged


def test_skw2_ghz_half_rate():
    res = run_skw2(make_ghz_node_state(8), seed=1)
    assert res.p_pred == pytest.approx(0.25, abs=1e-6)
    assert res.abs_dev <= BOUND_N8


def test_skw2_more_restarts_never_worse():
    s = make_random_node_state(6, seed=12)
    lo = run_skw2(s, restarts=1, seed=5)
    hi = run_skw2(s, restarts=32, seed=5)
    assert hi.p_pred >= lo.p_pred - 1e-12


def test_skw2_dominates_skw1():
    for seed in (0, 1, 2):
        s = make_random_node_state(6, seed)
        r1 = run_skw1(s)
        r2 = run_skw2(s, seed=seed)
        assert r2.p_pred >= r1.p_pred - 1e-12


def test_skw3_basis_state_half_rate():
    res = run_skw3(make_basis_node_state(8, 37))
    assert res.resource.C_f == 0.0
    assert res.p_pred == 0.5
    assert abs(res.p_avg - 0.5) <= BOUND_N8


def test_skw3_uniform_floor():
    res = run_skw3(make_uniform_node_state(8))
    assert res.p_pred == pytest.approx(1 / 512, abs=1e-12)
    assert res.abs_dev <= BOUND_N8


def test_skw3_selection_routes_agree():
    # the closed-form Pauli frame walks as well as the exhaustively chosen one
    n = 5
    states = [make_random_node_state(n, seed) for seed in range(20)]
    states += [make_uniform_node_state(n), make_tilted_node_state(n, 1 / 2 ** n)]
    for s in states:
        layer, _ = enumerate_pauli_layers(s)
        framed = apply_local_layer(apply_local_layer(s, layer), hadamard_layer(n))
        a = run_skw3(s)
        b = run_skw1(framed)
        assert abs(a.p_avg - b.p_avg) < 1e-12
        assert abs(a.p_pred - b.p_pred) < 1e-12


def test_skw3_below_skw2():
    for seed in (3, 4):
        s = make_random_node_state(5, seed)
        r2 = run_skw2(s, seed=seed)
        r3 = run_skw3(s)
        assert r3.p_pred <= r2.p_pred + 1e-9


def test_oskw_reference_point():
    res = run_oskw(8)
    assert res.n == 9 and res.tau == 25
    assert res.p_avg >= 0.8
    assert res.leaked_weight == 0.0
    assert len(res.per_target) == 256  # even vertices only


def test_oskw1_projected_prediction():
    s = make_random_node_state(9, seed=2)
    res = run_oskw1(s)
    assert res.abs_dev <= 6 / math.sqrt(512)
    assert 0 < res.leaked_weight < 1


def test_oskw1_even_basis_state():
    res = run_oskw1(make_basis_node_state(5, 0b00011))
    assert res.p_pred == pytest.approx(1 / 16, abs=1e-14)
    assert res.leaked_weight == 0


def test_oskw1_rejects_odd_support_and_tiny_walks():
    amps = np.zeros(32, dtype=np.complex128)
    amps[0b00001] = 1.0
    with pytest.raises(ValueError):
        run_oskw1(NodeState(5, amps))
    with pytest.raises(ValueError):
        run_oskw1(make_uniform_node_state(2))


def test_oskw1_denominator_flag():
    s = make_random_node_state(6, seed=8)
    even = run_oskw1(s, denominator="even-count")
    vertex = run_oskw1(s, denominator="vertex-count")
    assert vertex.p_avg == pytest.approx(even.p_avg / 2, abs=1e-15)
    assert vertex.leaked_weight == even.leaked_weight
    with pytest.raises(ValueError):
        run_oskw1(s, denominator="nope")


def test_predicted_probability_table():
    rep = ResourceReport(f_c=1.0, C_f=None)
    assert predicted_probability("skw1", rep) == 0.5
    rep = ResourceReport(f_c=0.5, C_f=0.5, E_g=1.0)
    assert predicted_probability("skw2", rep) == 0.0
    rep = ResourceReport(f_c=0.5, C_f=0.0)
    assert predicted_probability("skw3", rep) == 0.5
    rep = ResourceReport(f_c=0.25, C_f=None)
    assert predicted_probability("oskw1", rep) == 0.25
    with pytest.raises(ValueError):
        predicted_probability("skw2", ResourceReport(f_c=1.0, C_f=None))
    with pytest.raises(ValueError):
        predicted_probability("walk9", ResourceReport(f_c=1.0, C_f=None))


def test_run_result_validation():
    rep = ResourceReport(f_c=1.0, C_f=0.0)
    with pytest.raises(InvariantViolation):
        RunResult(variant="skw1", n=2, tau=1,
                  per_target=((0, 0.5), (1, 0.5), (2, 0.5), (3, 0.5)),
                  p_avg=0.7, p_pred=0.5, abs_dev=0.2, resource=rep, seed=0,
                  wall_ms=1.0)
    with pytest.raises(InvariantViolation):
        RunResult(variant="skw1", n=2, tau=1,
                  per_target=((0, 1.5), (1, 0.5), (2, 0.5), (3, 0.5)),
                  p_avg=1.5, p_pred=0.5, abs_dev=1.0, resource=rep, seed=0,
                  wall_ms=1.0)


def test_run_result_checks_parity_walk_average():
    # even targets of a 3-direction walk; p_avg follows the declared divisor
    rep = ResourceReport(f_c=0.5, C_f=0.5)
    per_target = ((0, 0.5), (3, 0.25), (5, 0.75), (6, 0.5))
    for denominator, p_avg in (("even-count", 0.5), ("vertex-count", 0.25)):
        def make(p):
            return RunResult(variant="oskw1", n=3, tau=2, per_target=per_target,
                             p_avg=p, p_pred=0.5, abs_dev=abs(p - 0.5),
                             resource=rep, seed=0, wall_ms=1.0,
                             leaked_weight=0.1, denominator=denominator)
        assert make(p_avg).p_avg == p_avg
        with pytest.raises(InvariantViolation):
            make(p_avg + 1e-6)
    with pytest.raises(ValueError):
        RunResult(variant="oskw1", n=3, tau=2, per_target=per_target, p_avg=0.5,
                  p_pred=0.5, abs_dev=0.0, resource=rep, seed=0, wall_ms=1.0,
                  denominator="nope")


@pytest.mark.parametrize("metric", ["vertex", "gamma"])
@pytest.mark.parametrize("tau", [0, 7])
@pytest.mark.parametrize("n", [3, 5])
def test_per_target_matches_dense_oracle(n, tau, metric):
    N = 2 ** n
    plan = IterationPlan.explicit(tau)
    s = make_random_node_state(n, seed=10 * n + tau)
    projected, _ = project_even_parity(s)
    for run, node, variant in ((run_skw1, s, "skw"), (run_oskw1, projected, "oskw")):
        res = run(s, plan, metric=metric)
        start = compose_walker(uniform_coin(n), node)
        for tg, p in res.per_target:
            spec = WalkSpec(n=n, node_count=N, target=tg, variant=variant)
            ref = success_probability(evolve_dense(start, spec, plan), tg, metric)
            assert abs(p - ref) <= 1e-12


def test_gamma_metric_runner():
    res = run_skw(5, metric="gamma")
    ref = run_skw(5)
    assert res.metric == "gamma"
    assert res.p_avg <= ref.p_avg + 1e-15


def test_tilted_state_prediction():
    # concentration parameter s maps straight onto the incoherent rate
    res = run_skw3(make_tilted_node_state(8, 0.6))
    assert res.p_pred == pytest.approx(0.3, abs=1e-12)
    assert res.abs_dev <= BOUND_N8
