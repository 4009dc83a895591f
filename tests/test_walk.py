import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwsearch import (OSKW, SKW, IterationPlan, WalkSpec,
                      WalkerState, build_dense_evolution, compose_walker,
                      evolve, evolve_dense, make_basis_node_state,
                      make_random_node_state, make_uniform_node_state,
                      project_even_parity, success_probability,
                      uniform_coin, walsh_average, walsh_weights)
from qwsearch import walk
from qwsearch.config import WALK_GUARD_N


def _uniform_walker(n):
    return compose_walker(uniform_coin(n), make_uniform_node_state(n))


def _spec(n, target=0, variant=SKW):
    return WalkSpec(n=n, node_count=2 ** n, target=target, variant=variant)


def _apply_shift(w):
    """The engine's shift kernel on a walker."""
    index = walk._shift_index(w.n, w.node_count)
    return WalkerState(w.n, w.node_count, walk._shift(w.grid(), index).ravel())


def _apply_coin(w, target):
    """The engine's coin kernel on a walker: Grover coin, -I at the target."""
    return WalkerState(w.n, w.node_count,
                       walk._marked_coin(w.grid(), target).ravel())


def _coin_operator(n, target):
    """Matrix of the coin kernel, one basis walker per column."""
    dim = n * 2 ** n
    cols = [_apply_coin(WalkerState(n, 2 ** n, np.eye(dim)[k]), target).amplitudes
            for k in range(dim)]
    return np.array(cols).T


def test_coin_matrix_n2_is_swap():
    # two directions: away from the mark the Grover coin swaps them
    M = _coin_operator(2, target=3)
    for x in range(3):
        block = M[np.ix_([x, 4 + x], [x, 4 + x])]
        assert np.allclose(block, [[0, 1], [1, 0]], atol=1e-15)


def test_coin_matrix_unitary():
    for n in (2, 3, 5):
        N = 2 ** n
        M = _coin_operator(n, target=N - 1)
        assert np.max(np.abs(M @ M.conj().T - np.eye(n * N))) < 1e-14
        at_mark = (np.arange(n) * N + N - 1)
        assert np.array_equal(M[np.ix_(at_mark, at_mark)], -np.eye(n))


def test_walk_spec_validation():
    with pytest.raises(ValueError):
        WalkSpec(n=3, node_count=16, target=0)  # node_count must be 2^n
    with pytest.raises(ValueError):
        WalkSpec(n=3, node_count=8, target=8)
    with pytest.raises(ValueError):
        WalkSpec(n=1, node_count=2, target=0)
    with pytest.raises(ValueError):
        WalkSpec(n=3, node_count=8, target=1, variant=OSKW)  # odd-weight target
    WalkSpec(n=3, node_count=8, target=3, variant=OSKW)


def test_iteration_plan_rules():
    assert IterationPlan.optimal(5).tau == 6
    assert IterationPlan.optimal(8).tau == 18
    assert IterationPlan.optimal(10).tau == 36
    assert IterationPlan.optimal(9).tau == 25
    assert IterationPlan.explicit(7).tau == 7
    with pytest.raises(ValueError):
        IterationPlan.explicit(-1)


def test_shift_moves_one_bit():
    w = compose_walker(np.array([1, 0, 0], dtype=np.complex128),
                       make_basis_node_state(3, 0b000))
    out = _apply_shift(w)
    g = out.grid()
    assert g[0, 0b001] == 1
    assert np.sum(np.abs(g) ** 2) == 1


@given(seed=st.integers(0, 2**31), n=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_shift_is_involutive(seed, n):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n * 2 ** n) + 1j * rng.normal(size=n * 2 ** n)
    amps /= np.linalg.norm(amps)
    w = WalkerState(n, 2 ** n, amps)
    back = _apply_shift(_apply_shift(w))
    assert np.array_equal(back.amplitudes, w.amplitudes)


def test_shift_fixes_uniform_walker():
    w = _uniform_walker(3)
    out = _apply_shift(w)
    assert np.allclose(out.amplitudes, w.amplitudes, atol=1e-15)


def test_perturbed_coin_away_from_target():
    # two directions: the unmarked coin swaps the direction amplitudes
    w = compose_walker(np.array([1, 0], dtype=np.complex128),
                       make_basis_node_state(2, 1))
    out = _apply_coin(w, 0)
    g = out.grid()
    assert abs(g[1, 1] - 1) < 1e-15 and abs(g[0, 1]) < 1e-15


def test_perturbed_coin_at_target():
    amps = np.zeros(2 * 4, dtype=np.complex128)
    alpha, beta = 0.6, 0.8
    amps[0 * 4 + 2] = alpha  # direction 0 at the marked vertex
    amps[1 * 4 + 2] = beta
    w = WalkerState(2, 4, amps)
    g = _apply_coin(w, 2).grid()
    assert abs(g[0, 2] + alpha) < 1e-15 and abs(g[1, 2] + beta) < 1e-15


def test_uniform_coin_is_grover_fixed_point():
    for n in (2, 3, 6):
        w = compose_walker(uniform_coin(n), make_basis_node_state(n, 1))
        out = _apply_coin(w, 0)
        assert np.max(np.abs(out.amplitudes - w.amplitudes)) < 1e-14


def test_evolve_zero_steps_identity():
    w = _uniform_walker(4)
    out = evolve(w, _spec(4), IterationPlan.explicit(0))
    assert np.array_equal(out.amplitudes, w.amplitudes)


def test_evolve_matches_dense_small():
    n = 5
    spec = _spec(n, target=3)
    plan = IterationPlan.optimal(n)
    out = evolve(_uniform_walker(n), spec, plan)
    ref = evolve_dense(_uniform_walker(n), spec, plan)
    assert np.max(np.abs(out.amplitudes - ref.amplitudes)) < 1e-12
    op = build_dense_evolution(spec)
    assert np.max(np.abs(op.entries.conj().T @ op.entries
                         - np.eye(op.dim))) < 1e-12


def test_evolve_long_run_norm_drift():
    out = evolve(_uniform_walker(6), _spec(6, target=5),
                 IterationPlan.explicit(100))
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1) < 1e-9


def test_project_even_parity_uniform():
    projected, leaked = project_even_parity(make_uniform_node_state(4))
    assert abs(leaked - 0.5) < 1e-12
    parity = np.array([x.bit_count() & 1 for x in range(16)])
    assert np.all(projected.amplitudes[parity == 1] == 0)
    assert np.allclose(np.abs(projected.amplitudes[parity == 0]),
                       1 / math.sqrt(8), atol=1e-15)


def test_project_even_parity_edge_cases():
    kept, leaked = project_even_parity(make_basis_node_state(3, 0b000))
    assert leaked == 0
    assert np.array_equal(kept.amplitudes, make_basis_node_state(3, 0).amplitudes)
    with pytest.raises(ValueError):
        project_even_parity(make_basis_node_state(3, 0b001))  # no even support


def test_success_probability_concentrated():
    n = 3
    amps = np.zeros(n * 8, dtype=np.complex128)
    amps[np.arange(n) * 8 + 5] = 1 / math.sqrt(n)
    w = WalkerState(n, 8, amps)
    assert success_probability(w, 5) == pytest.approx(1.0, abs=1e-15)
    assert success_probability(w, 5, metric="gamma") <= 1 + 1e-15
    assert success_probability(w, 2) == 0.0


def test_success_probability_reference_run():
    n = 8
    spec = _spec(n, target=37)
    out = evolve(_uniform_walker(n), spec, IterationPlan.optimal(n))
    p = success_probability(out, 37)
    assert 0.4 <= p <= 0.55


def test_gamma_metric_bounded_by_vertex():
    n = 5
    out = evolve(_uniform_walker(n), _spec(n, target=9),
                 IterationPlan.optimal(n))
    pv = success_probability(out, 9)
    pg = success_probability(out, 9, metric="gamma")
    assert pg <= pv + 1e-15


def test_target_symmetry_from_uniform_start():
    # vertex-transitive start: every marked vertex is found equally well
    n = 5
    plan = IterationPlan.optimal(n)
    probs = []
    for t in range(2 ** n):
        out = evolve(_uniform_walker(n), _spec(n, target=t), plan)
        probs.append(success_probability(out, t))
    assert max(probs) - min(probs) < 1e-12


def _random_node(n, rng):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps /= np.linalg.norm(amps)
    return amps


@given(seed=st.integers(0, 2**31), n=st.integers(2, 6),
       data=st.data())
@settings(max_examples=25, deadline=None)
def test_translation_covariance_matrix_free(seed, n, data):
    # relabeling every vertex by XOR with a fixed mask commutes with the walk
    N = 2 ** n
    rng = np.random.default_rng(seed)
    t = data.draw(st.integers(0, N - 1))
    s = data.draw(st.integers(1, N - 1))
    tau = data.draw(st.integers(1, 6))
    node = _random_node(n, rng)
    from qwsearch import NodeState
    w = compose_walker(uniform_coin(n), NodeState(n, node))
    out_a = evolve(w, _spec(n, target=t), IterationPlan.explicit(tau))
    p_a = success_probability(out_a, t)

    shifted = NodeState(n, node[np.arange(N) ^ s])
    w2 = compose_walker(uniform_coin(n), shifted)
    out_b = evolve(w2, _spec(n, target=t ^ s), IterationPlan.explicit(tau))
    p_b = success_probability(out_b, t ^ s)
    assert abs(p_a - p_b) < 1e-12


def test_oskw_evolution_preserves_even_support():
    n = 4
    node, _ = project_even_parity(make_uniform_node_state(n))
    w = compose_walker(uniform_coin(n), node)
    spec = _spec(n, target=3, variant=OSKW)
    out = evolve(w, spec, IterationPlan.optimal(n))
    parity = np.array([x.bit_count() & 1 for x in range(2 ** n)])
    g = out.grid()
    assert np.max(np.abs(g[:, parity == 1])) < 1e-14


def test_conservation_guard_trips(monkeypatch):
    from qwsearch import InvariantViolation
    monkeypatch.setattr("qwsearch.walk.CONSERVATION_TOL", 1e-18)
    w = compose_walker(uniform_coin(5), make_uniform_node_state(5))
    spec = WalkSpec(n=5, node_count=32, target=0)
    with pytest.raises(InvariantViolation):
        evolve(w, spec, IterationPlan.explicit(10))
    with pytest.raises(InvariantViolation, match="walker norm conservation"):
        walsh_weights(5, IterationPlan.explicit(10), SKW, "vertex")


def test_walk_size_guard():
    assert WALK_GUARD_N == 20
    WalkSpec(n=20, node_count=2 ** 20, target=0)
    with pytest.raises(ValueError, match="walk size guard"):
        WalkSpec(n=21, node_count=2 ** 21, target=0)


def test_engine_rejects_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric"):
        walsh_weights(3, IterationPlan.explicit(2), SKW, "edge")


@pytest.mark.parametrize("metric", ["vertex", "gamma"])
@pytest.mark.parametrize("n", [3, 8])
def test_walsh_weights_are_averages(n, metric):
    # W is a Walsh mode's target average for the plain walk and an even mode
    # pair's for the two-shift walk: one array in [0, 1] either way
    for variant in (SKW, OSKW):
        W = walsh_weights(n, IterationPlan.optimal(n), variant, metric)
        assert W.shape == (2 ** n,)
        assert 0.0 <= W.min() and W.max() <= 1.0


def _mode_and_pair_weights(n, plan, metric):
    """The two-shift walk's A(s) = sum_d (H K_d(s))^2 / N and pair weight
    B(s) = sum_d H K_d(s) H K_d(s~) / N, s~ = s XOR 1...1, from its kernels."""
    kernels = walk._adjoint_kernels(_spec(n, variant=OSKW), plan)
    if metric == "gamma":
        kernels = kernels.sum(axis=0, keepdims=True) / math.sqrt(n)
    spectrum = walk._fwht(kernels)
    return (np.sum(spectrum ** 2, axis=0) / 2 ** n,
            np.sum(spectrum * spectrum[:, ::-1], axis=0) / 2 ** n)


@pytest.mark.parametrize("metric", ["vertex", "gamma"])
@pytest.mark.parametrize("tau", [None, 5, 8])
@pytest.mark.parametrize("n", range(3, 12))
def test_two_shift_pair_weight_is_the_mode_weight(n, tau, metric):
    # the kernels live on even vertices, so H K_d(s~) = H K_d(s) bit for bit,
    # and the even pair's weight A + B is W = 2A
    plan = IterationPlan.optimal(n) if tau is None else IterationPlan.explicit(tau)
    A, B = _mode_and_pair_weights(n, plan, metric)
    assert np.array_equal(B, A)
    assert np.array_equal(walsh_weights(n, plan, OSKW, metric), A + B)


@pytest.mark.parametrize("metric", ["vertex", "gamma"])
@pytest.mark.parametrize("variant", [SKW, OSKW])
@pytest.mark.parametrize("n", range(3, 11))
def test_walsh_weight_is_a_shell_function(n, variant, metric):
    # W depends on |s| alone, and W_w = W_{n-w}
    W = walsh_weights(n, IterationPlan.optimal(n), variant, metric)
    weight = np.array([s.bit_count() for s in range(2 ** n)])
    shells = [W[weight == w] for w in range(n + 1)]
    assert max(np.ptp(shell) for shell in shells) <= 1e-15
    for w in range(n + 1):
        assert abs(shells[w][0] - shells[n - w][0]) <= 1e-15


@pytest.mark.parametrize("metric", ["vertex", "gamma"])
@pytest.mark.parametrize("n", [4, 6])
def test_two_shift_readout_is_the_even_target_mean(n, metric):
    # an unprojected state: the even part's spectrum gives the mean over the
    # even targets of one forward walk each
    node = make_random_node_state(n, seed=300 + n)
    plan = IterationPlan.optimal(n)
    start = compose_walker(uniform_coin(n), node)
    even = [t for t in range(2 ** n) if t.bit_count() % 2 == 0]
    ref = math.fsum(success_probability(evolve(start, _spec(n, t, OSKW), plan), t, metric)
                    for t in even) / len(even)
    got = walsh_average(walsh_weights(n, plan, OSKW, metric), node, OSKW)
    assert abs(got - ref) <= 1e-12


@pytest.mark.parametrize("variant,tau", [(SKW, 5), (OSKW, 13)])
def test_walsh_weight_range_check_trips(monkeypatch, variant, tau):
    from qwsearch import InvariantViolation
    plan = IterationPlan.explicit(tau)
    W = walsh_weights(6, plan, variant, "vertex")
    # scaled so that max(W) just passes 1
    scale = math.sqrt(1.01 / W.max())
    build = walk._adjoint_kernels
    monkeypatch.setattr(walk, "_adjoint_kernels", lambda *args: scale * build(*args))
    with pytest.raises(InvariantViolation, match="W spans"):
        walsh_weights(6, plan, variant, "vertex")


def test_walsh_weights_build_one_kernel_set(monkeypatch):
    builds = []
    build = walk._adjoint_kernels
    monkeypatch.setattr(walk, "_adjoint_kernels",
                        lambda *args: builds.append(args) or build(*args))
    walsh_weights(4, IterationPlan.explicit(3), OSKW, "gamma")
    assert len(builds) == 1
