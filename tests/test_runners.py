import dataclasses
import math
import time

import numpy as np
import pytest

from qwsearch import (OSKW, SKW, InvariantViolation, IterationPlan,
                      MixedEnsemble, NodeState, ResourceReport, RunResult,
                      WalkSpec, apply_local_layer, best_pauli_basis,
                      compose_walker, enumerate_pauli_layers, evolve,
                      evolve_dense, hadamard_layer, make_basis_node_state,
                      make_even_uniform_node_state, make_ghz_node_state,
                      make_interpolated_node_state, make_random_node_state,
                      make_tilted_node_state, make_uniform_node_state,
                      optimize_local_layer_detailed, pauli_layer,
                      predicted_probability, project_even_parity, run_oskw,
                      run_oskw1, run_skw, run_skw1, run_skw2, run_skw3,
                      success_probability, uniform_coin, walsh_average,
                      walsh_weights)
from qwsearch.cli import _cell, execute_config, parse_config, result_row
from qwsearch import runners, walk
from qwsearch.runners import (VARIANTS, PreparedRow, prepare_oskw1, prepare_skw1,
                              prepare_skw2_rows, prepare_skw3, run_skw2_rows,
                              walk_rows)

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


@pytest.mark.parametrize("n", [11, 12])
def test_skw_average_consistent_past_ten_directions(n):
    # from the flat start every marked vertex is found equally well, so the
    # average over 2^n targets is any one target's forward walk
    res = run_skw(n)
    start = compose_walker(uniform_coin(n), make_uniform_node_state(n))
    plan = IterationPlan.explicit(res.tau)
    for tg in (0, 2 ** n - 1):
        spec = WalkSpec(n=n, node_count=2 ** n, target=tg)
        assert abs(res.p_avg - success_probability(evolve(start, spec, plan), tg)) <= 1e-12
    assert 0.4 <= res.p_avg <= 0.5


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


def test_skw2_config_rows_match_one_row_calls():
    seeds = list(range(12))
    cfg = parse_config("experiment.id = group\nrun.variant = skw2\nrun.n = 8\n"
                       f"run.seeds = {', '.join(map(str, seeds))}\n"
                       "state.family = haar_random")
    assert VARIANTS["skw2"].rows is run_skw2_rows
    rows = execute_config(cfg)
    assert len(rows) == len(seeds)
    for seed, row in zip(seeds, rows):
        one = result_row("group", run_skw2(make_random_node_state(8, seed), seed=seed),
                         seed)
        assert ({k: _cell(v) for k, v in row.items() if k != "wall_ms"}
                == {k: _cell(v) for k, v in one.items() if k != "wall_ms"})


def test_skw2_rows_share_the_optimizer_time():
    states = [make_random_node_state(6, s) for s in range(5)]
    t0 = time.perf_counter()
    results = run_skw2_rows(states, [0, 1, 2, 3, 4], restarts=4)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    assert [r.seed for r in results] == [0, 1, 2, 3, 4]
    assert all(r.wall_ms > 0.0 for r in results)
    assert sum(r.wall_ms for r in results) <= elapsed_ms


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


def test_oskw1_projected_prediction():
    s = make_random_node_state(9, seed=2)
    res = run_oskw1(s)
    assert res.abs_dev <= 6 / math.sqrt(512)
    assert 0 < res.leaked_weight < 1


def test_oskw1_even_basis_state():
    res = run_oskw1(make_basis_node_state(5, 0b00011))
    assert res.p_pred == pytest.approx(1 / 16, abs=1e-14)
    assert res.leaked_weight == 0


def test_oskw_size_refused_before_any_state_is_built(monkeypatch):
    def never(n):
        raise AssertionError("a start state was built")
    monkeypatch.setattr(runners, "make_even_uniform_node_state", never)
    with pytest.raises(ValueError, match=r"n \(run.n\) must be <= 19"):
        run_oskw(20)


def test_oskw1_rejects_odd_support_and_tiny_walks():
    amps = np.zeros(32, dtype=np.complex128)
    amps[0b00001] = 1.0
    with pytest.raises(ValueError):
        run_oskw1(NodeState(5, amps))
    with pytest.raises(ValueError):
        run_oskw1(make_uniform_node_state(2))


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


@pytest.mark.parametrize("field,value", [
    ("p_avg", 1.5), ("p_avg", -1e-9), ("p_avg", math.nan),
    ("p_pred", 1.5), ("p_pred", -1e-9),
])
def test_run_result_validation(field, value):
    fields = dict(variant="skw1", n=2, tau=1, p_avg=0.5, p_pred=0.5, abs_dev=0.0,
                  resource=ResourceReport(f_c=1.0, C_f=0.0), seed=0, wall_ms=1.0)
    assert RunResult(**fields).p_avg == 0.5
    with pytest.raises(InvariantViolation, match="probability range"):
        RunResult(**{**fields, field: value})


def _admitted(n, variant):
    return [t for t in range(2 ** n) if variant == SKW or t.bit_count() % 2 == 0]


def _dense_mean(node, plan, variant, metric):
    """Mean over the admitted targets of one dense-matrix walk each."""
    n, targets = node.n, _admitted(node.n, variant)
    start = compose_walker(uniform_coin(n), node)
    return math.fsum(
        success_probability(evolve_dense(start, WalkSpec(n=n, node_count=2 ** n,
                                                         target=tg, variant=variant),
                                         plan), tg, metric)
        for tg in targets) / len(targets)


@pytest.mark.parametrize("metric", ["vertex", "gamma"])
@pytest.mark.parametrize("tau", [0, 7, None])
@pytest.mark.parametrize("n", [3, 5])
def test_p_avg_matches_dense_oracle(n, tau, metric):
    plan = None if tau is None else IterationPlan.explicit(tau)
    s = make_random_node_state(n, seed=10 * n + (1 if tau is None else tau))
    projected, _ = project_even_parity(s)
    for run, node, variant in ((run_skw1, s, SKW), (run_oskw1, projected, OSKW)):
        res = run(s, plan, metric=metric)
        ref = _dense_mean(node, IterationPlan.explicit(res.tau), variant, metric)
        assert abs(res.p_avg - ref) <= 1e-12


def _forward_probs(node, plan, variant, metric, targets):
    """The reference route: one forward walk per marked vertex."""
    start = compose_walker(uniform_coin(node.n), node)
    return np.array([
        success_probability(evolve(start, WalkSpec(n=node.n, node_count=node.dim,
                                                   target=int(tg), variant=variant),
                                   plan), int(tg), metric)
        for tg in targets])


def _forward_mean(node, plan, variant, metric):
    """The reference average: one forward walk per admitted target."""
    targets = _admitted(node.n, variant)
    return math.fsum(_forward_probs(node, plan, variant, metric, targets)) / len(targets)


@pytest.mark.parametrize("metric", ["vertex", "gamma"])
@pytest.mark.parametrize("variant,tau", [(SKW, 0), (SKW, 13), (SKW, None), (OSKW, 0),
                                         (OSKW, 13), (OSKW, None)])
@pytest.mark.parametrize("n", [6, 8])
def test_engine_matches_forward_walk(n, variant, tau, metric):
    node = make_random_node_state(n, seed=100 + n)
    if variant == OSKW:
        node, _ = project_even_parity(node)
        plan = IterationPlan.oskw_optimal(2 ** n)
    else:
        plan = IterationPlan.skw_optimal(n)
    if tau is not None:   # odd tau: the two-shift walk drops the leftover round
        plan = IterationPlan.explicit(tau)
    got = walsh_average(walsh_weights(n, plan, variant, metric), node)
    assert abs(got - _forward_mean(node, plan, variant, metric)) <= 1e-12


@pytest.mark.parametrize("metric", ["vertex", "gamma"])
@pytest.mark.parametrize("tau", [13, None])
@pytest.mark.parametrize("n", [6, 7])
def test_unprojected_two_shift_row_matches_even_target_mean(n, tau, metric):
    # odd-parity weight left in: only the complement-paired term B keeps the
    # average over even targets exact; two shifts per step keep the odd part
    # off the even targets, so the projected run scaled by the kept weight agrees
    node = make_random_node_state(n, seed=200 + n)
    row = PreparedRow("oskw1", OSKW, node, ResourceReport(f_c=0.5, C_f=None), 0, 0.0)
    res = walk_rows([row], None if tau is None else IterationPlan.explicit(tau),
                    metric)[0]
    ref = _forward_mean(node, IterationPlan.explicit(res.tau), OSKW, metric)
    assert abs(res.p_avg - ref) <= 1e-12
    projected = run_oskw1(node, IterationPlan.explicit(res.tau), metric=metric)
    assert abs(res.p_avg - (1 - projected.leaked_weight) * projected.p_avg) <= 1e-12


@pytest.mark.parametrize("n", [6, 8])
def test_runners_match_forward_walk_on_walked_states(n):
    plan = IterationPlan.skw_optimal(n)
    targets = np.arange(2 ** n)

    def deviation(res, ref):
        return abs(res.p_avg - math.fsum(ref) / len(ref))

    members = [make_random_node_state(n, seed=1), make_ghz_node_state(n, 0.3),
               make_tilted_node_state(n, 0.7)]
    weights = [0.5, 0.3, 0.2]
    res = run_skw1(MixedEnsemble(tuple(zip(weights, members))), plan)
    ref = sum(w * _forward_probs(m, plan, SKW, "vertex", targets)
              for w, m in zip(weights, members))
    assert deviation(res, ref) <= 1e-12

    s = make_random_node_state(n, seed=7)
    layer, _, _ = optimize_local_layer_detailed(s, 4, 2)
    walked = apply_local_layer(s, layer)
    assert deviation(run_skw2(s, plan, restarts=4, seed=2),
                     _forward_probs(walked, plan, SKW, "vertex", targets)) <= 1e-12

    i, _ = best_pauli_basis(s)
    frame = pauli_layer("".join("X" if (i >> j) & 1 else "Z" for j in range(n)))
    walked = apply_local_layer(apply_local_layer(s, frame), hadamard_layer(n))
    assert deviation(run_skw3(s, plan),
                     _forward_probs(walked, plan, SKW, "vertex", targets)) <= 1e-12


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


def _same_but_wall_ms(a, b):
    return dataclasses.replace(a, wall_ms=0.0) == dataclasses.replace(b, wall_ms=0.0)


@pytest.mark.parametrize("metric", ["vertex", "gamma"])
def test_group_with_mixture_and_pure_rows_matches_one_row_runners(metric):
    n = 6
    pure, tilted = make_random_node_state(n, 2), make_tilted_node_state(n, 0.3)
    mix = MixedEnsemble(((0.3, make_random_node_state(n, 1)),
                         (0.7, make_ghz_node_state(n, 0.4))))
    rows = [prepare_skw1(pure), prepare_skw1(mix, seed=3), prepare_skw3(tilted),
            *prepare_skw2_rows([pure, tilted], [5, 6], restarts=4)]
    group = list(walk_rows(rows, metric=metric))
    one = [run_skw1(pure, metric=metric), run_skw1(mix, seed=3, metric=metric),
           run_skw3(tilted, metric=metric),
           run_skw2(pure, restarts=4, seed=5, metric=metric),
           run_skw2(tilted, restarts=4, seed=6, metric=metric)]
    assert [r.variant for r in group] == ["skw1", "skw1", "skw3", "skw2", "skw2"]
    assert all(_same_but_wall_ms(g, o) for g, o in zip(group, one))


def test_oskw1_group_matches_one_row_runner():
    states = [make_random_node_state(7, seed) for seed in range(3)]
    plan = IterationPlan.explicit(13)
    group = list(walk_rows([prepare_oskw1(s, seed=k) for k, s in enumerate(states)],
                           plan))
    for k, (res, state) in enumerate(zip(group, states)):
        assert _same_but_wall_ms(res, run_oskw1(state, plan, seed=k))
        assert res.leaked_weight is not None


def test_group_wall_ms_adds_up_to_the_call():
    rows = [prepare_skw1(make_random_node_state(7, seed)) for seed in range(4)]
    t0 = time.perf_counter()
    results = list(walk_rows(rows))
    elapsed_ms = (time.perf_counter() - t0 + sum(r.prep_s for r in rows)) * 1e3
    assert all(r.wall_ms > row.prep_s * 1e3 for r, row in zip(results, rows))
    assert sum(r.wall_ms for r in results) <= elapsed_ms


@pytest.mark.parametrize("make_rows,fragment", [
    (lambda: [], "needs rows"),
    (lambda: [prepare_skw1(make_random_node_state(4, 0)),
              prepare_skw1(make_random_node_state(5, 0))], "one n"),
    (lambda: [prepare_skw1(make_random_node_state(4, 0)),
              prepare_oskw1(make_random_node_state(4, 0))], "one walk"),
])
def test_group_refused_before_any_kernel_build(monkeypatch, make_rows, fragment):
    rows = make_rows()

    def no_build(*args):
        raise AssertionError("a kernel was built")
    monkeypatch.setattr(walk, "_adjoint_kernels", no_build)
    with pytest.raises(ValueError, match=fragment):
        list(walk_rows(rows))
