import math

import numpy as np
import pytest

from qwsearch import (OSKW, SKW, IterationPlan, WalkSpec,
                      build_dense_evolution, compose_walker, evolve,
                      evolve_dense, grid_product_overlap,
                      groverian_entanglement, make_ghz_node_state,
                      make_random_node_state, make_uniform_node_state,
                      make_w_node_state, uniform_coin,
                      verify_theorem_identities, xor_covariance_deviation)


def _product_state(n, seed):
    from qwsearch import NodeState
    rng = np.random.default_rng(seed)
    amps = np.ones(1, dtype=np.complex128)
    for _ in range(n):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(z / np.linalg.norm(z), amps)
    return NodeState(n, amps)


def test_dense_evolution_unitary():
    for variant in (SKW, OSKW):
        spec = WalkSpec(n=3, node_count=8, target=0, variant=variant)
        op = build_dense_evolution(spec)
        assert op.dim == 24
        dev = np.max(np.abs(op.entries.conj().T @ op.entries - np.eye(24)))
        assert dev < 1e-12


def test_dense_guard():
    spec = WalkSpec(n=6, node_count=64, target=0)
    with pytest.raises(ValueError):
        build_dense_evolution(spec)


def test_dense_matches_matrix_free():
    for variant, target in ((SKW, 5), (OSKW, 6)):
        spec = WalkSpec(n=3, node_count=8, target=target, variant=variant)
        plan = IterationPlan.explicit(10)
        w = compose_walker(uniform_coin(3), make_uniform_node_state(3))
        fast = evolve(w, spec, plan)
        ref = evolve_dense(w, spec, plan)
        assert np.max(np.abs(fast.amplitudes - ref.amplitudes)) < 1e-12


def test_grid_ghz3():
    val = grid_product_overlap(make_ghz_node_state(3), 48)
    assert 0.498 <= val <= 0.5 + 1e-9


def test_grid_product_state():
    val = grid_product_overlap(_product_state(3, seed=4), 48)
    assert val >= 1 - 1e-3
    assert val <= 1 + 1e-9


def test_grid_w3():
    val = grid_product_overlap(make_w_node_state(3), 48)
    assert abs(val - 4 / 9) < 2e-3


def test_grid_monotone_under_refinement():
    # doubling the grid never loses candidates it already contained
    for seed in range(4):
        s = make_random_node_state(3, seed)
        vals = [grid_product_overlap(s, r) for r in (8, 16, 32, 64)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12


def test_grid_guards():
    with pytest.raises(ValueError):
        grid_product_overlap(make_random_node_state(4, 0), 16)
    with pytest.raises(ValueError):
        grid_product_overlap(make_random_node_state(3, 0), 65)


def test_grid_lower_bounds_optimizer():
    # grid value can never exceed the unconstrained local optimum
    for seed in range(6):
        s = make_random_node_state(3, seed)
        grid = grid_product_overlap(s, 64)
        rep = groverian_entanglement(s, seed=seed)
        assert grid <= rep.E_g_overlap + 1e-9
        assert abs(grid - rep.E_g_overlap) < 2e-3


def test_verify_theorem_identities():
    out = verify_theorem_identities(4, 50)
    assert out["all_passed"]
    assert out["layer_passes"] == 50 and out["pauli_passes"] == 50
    assert out["worst_layer_dev"] <= 1e-8


def test_verify_identities_exact_pauli_at_n2():
    out = verify_theorem_identities(2, 10)
    assert out["worst_pauli_dev"] == 0.0


def test_verify_identities_guard():
    with pytest.raises(ValueError):
        verify_theorem_identities(7, 5)


def test_xor_covariance_exact():
    for n, shift, target, variant in ((2, 1, 3, SKW), (4, 9, 2, SKW),
                                      (4, 3, 12, OSKW), (5, 6, 0, OSKW)):
        dev = xor_covariance_deviation(n, shift, target, variant)
        assert dev < 1e-12


def test_xor_covariance_rejects_odd_shift_for_parity_walk():
    with pytest.raises(ValueError):
        xor_covariance_deviation(4, 1, 0, OSKW)


def test_oracle_suite_checks_the_production_p_avg(monkeypatch):
    from qwsearch import runners
    from qwsearch.oracle import oracle_suite

    def route_checks():
        return [(name, ok) for name, ok, _ in oracle_suite(7, 1, 0)
                if name.startswith("p_avg route")]
    assert route_checks() == [(f"p_avg route n={n}", True) for n in range(2, 6)]
    average = runners.walsh_average
    monkeypatch.setattr(runners, "walsh_average",
                        lambda *args: average(*args) + 1e-11)
    assert route_checks() == [(f"p_avg route n={n}", False) for n in range(2, 6)]
