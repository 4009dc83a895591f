import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwsearch import (LocalLayer, MixedEnsemble, NodeState, WalkerState,
                      apply_local_layer, compose_walker, hadamard_layer,
                      make_basis_node_state, make_even_uniform_node_state,
                      make_ghz_node_state, make_interpolated_node_state,
                      make_random_node_state, make_tilted_node_state,
                      make_uniform_node_state, make_w_node_state, overlap,
                      pauli_layer, uniform_coin)
from qwsearch.measures import optimize_local_layers
from qwsearch.states import even_parity_mask


def test_uniform_n2_amplitudes():
    s = make_uniform_node_state(2)
    assert np.allclose(s.amplitudes, [0.5, 0.5, 0.5, 0.5], atol=0)


def test_uniform_n3_amplitudes():
    s = make_uniform_node_state(3)
    assert np.allclose(s.amplitudes, np.full(8, 1 / math.sqrt(8)), atol=1e-15)


def test_uniform_n1_rejected():
    with pytest.raises(ValueError):
        make_uniform_node_state(1)


def test_basis_vertex_three():
    s = make_basis_node_state(2, 3)
    assert np.array_equal(s.amplitudes, [0, 0, 0, 1])


def test_basis_vertex_zero():
    s = make_basis_node_state(3, 0)
    assert s.dim == 8
    assert s.amplitudes[0] == 1 and not s.amplitudes[1:].any()


def test_basis_out_of_range():
    with pytest.raises(ValueError):
        make_basis_node_state(2, 4)


def test_random_state_deterministic():
    a = make_random_node_state(4, seed=9)
    b = make_random_node_state(4, seed=9)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = make_random_node_state(4, seed=10)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_random_state_normalized():
    s = make_random_node_state(3, seed=7)
    assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1) < 1e-12


def test_random_state_haar_marginal():
    # mean |a_0|^2 over the uniform sphere is 1/4 at two qubits
    vals = [abs(make_random_node_state(2, seed=k).amplitudes[0]) ** 2
            for k in range(1000)]
    assert abs(np.mean(vals) - 0.25) < 0.02


def test_compose_uniform_walker():
    w = compose_walker(uniform_coin(2), make_uniform_node_state(2))
    assert np.allclose(w.amplitudes, np.full(8, 1 / (2 * math.sqrt(2))), atol=1e-15)


def test_compose_basis_walker():
    w = compose_walker(uniform_coin(2), make_basis_node_state(2, 0))
    g = w.grid()
    assert abs(g[0, 0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(g[1, 0] - 1 / math.sqrt(2)) < 1e-15
    assert np.all(g[:, 1:] == 0)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_walker(np.full(3, 1 / math.sqrt(3)), make_uniform_node_state(2))


def test_overlap_self_and_basis():
    eta = make_uniform_node_state(3)
    assert abs(overlap(eta, eta) - 1) < 1e-15
    assert abs(overlap(eta, make_basis_node_state(3, 0)) - 1 / math.sqrt(8)) < 1e-15
    assert overlap(make_basis_node_state(3, 0), make_basis_node_state(3, 1)) == 0


@given(seed_a=st.integers(0, 2**31), seed_b=st.integers(0, 2**31),
       n=st.integers(2, 5))
@settings(max_examples=50, deadline=None)
def test_overlap_conjugate_symmetric(seed_a, seed_b, n):
    a = make_random_node_state(n, seed_a)
    b = make_random_node_state(n, seed_b)
    assert abs(overlap(a, b) - np.conj(overlap(b, a))) < 1e-15


def test_identity_layer_is_noop():
    s = make_random_node_state(3, seed=2)
    out = apply_local_layer(s, LocalLayer((np.eye(2),) * 3))
    assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-15)


def test_hadamard_layer_builds_eta():
    out = apply_local_layer(make_basis_node_state(3, 0), hadamard_layer(3))
    assert np.allclose(out.amplitudes, make_uniform_node_state(3).amplitudes,
                       atol=1e-14)


def test_x_on_qubit_zero_flips_bit_zero():
    X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    I = np.eye(2, dtype=np.complex128)
    layer = LocalLayer((X, I))  # factor j acts on qubit j = bit j
    out = apply_local_layer(make_basis_node_state(2, 0), layer)
    assert np.allclose(out.amplitudes, make_basis_node_state(2, 1).amplitudes,
                       atol=0)


def _random_layer(n, rng):
    factors = []
    for _ in range(n):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(z)
        factors.append(q)
    return LocalLayer(tuple(factors))


@given(seed=st.integers(0, 2**31), n=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_layer_preserves_norm(seed, n):
    rng = np.random.default_rng(seed)
    s = make_random_node_state(n, seed)
    out = apply_local_layer(s, _random_layer(n, rng))
    assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12


def test_layer_composition_matches_factor_product():
    # A then B equals the single layer with factors B_j A_j
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 5
        s = make_random_node_state(n, seed)
        la = _random_layer(n, rng)
        lb = _random_layer(n, rng)
        two_step = apply_local_layer(apply_local_layer(s, la), lb)
        prod = LocalLayer(tuple(b @ a for a, b in zip(la.factors, lb.factors)))
        one_step = apply_local_layer(s, prod)
        assert np.max(np.abs(two_step.amplitudes - one_step.amplitudes)) < 1e-12


def _tensordot_layer(state, layer):
    """Reference route: one tensordot and moveaxis per qubit."""
    n = state.n
    tensor = state.amplitudes.reshape((2,) * n)  # axis a holds qubit n-1-a
    for j, U in enumerate(layer.factors):
        axis = n - 1 - j
        tensor = np.moveaxis(np.tensordot(U, tensor, axes=([1], [axis])), 0, axis)
    return tensor.ravel()


@pytest.mark.parametrize("n", range(2, 15))
def test_layer_matches_tensordot_route(n):
    rng = np.random.default_rng(n)
    s = make_random_node_state(n, n)
    [(optimized, _)] = optimize_local_layers([s], 2, [n])
    letters = "".join(rng.choice(list("XYZ"), size=n))
    for layer in (_random_layer(n, rng), optimized, hadamard_layer(n),
                  pauli_layer(letters)):
        assert np.array_equal(apply_local_layer(s, layer).amplitudes,
                              _tensordot_layer(s, layer))


def test_layer_names_its_first_bad_factor():
    I, X = np.eye(2), np.array([[0, 1], [1, 0]])
    # factor 3 deviates most, but factor 1 is the first over the tolerance
    with pytest.raises(ValueError, match=r"^factor 1 not unitary: deviation 3\.0$"):
        LocalLayer((I, 2 * I, X, 3 * X))
    with pytest.raises(ValueError, match=r"^factor 2 is not 2x2: shape \(3, 3\)$"):
        LocalLayer((I, 2 * I, np.eye(3)))   # shapes are checked first


def test_node_state_rejects_bad_norm():
    with pytest.raises(ValueError):
        NodeState(2, np.array([1.0, 1.0, 0, 0]))


def test_node_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        NodeState(2, np.array([1.0, 0, 0]))


def test_mixed_ensemble_validation():
    eta = make_uniform_node_state(3)
    b0 = make_basis_node_state(3, 0)
    m = MixedEnsemble(((0.5, eta), (0.5, b0)))
    assert m.n == 3
    with pytest.raises(ValueError):
        MixedEnsemble(((0.7, eta), (0.5, b0)))  # weights must sum to one
    with pytest.raises(ValueError):
        MixedEnsemble(((0.5, eta), (0.5, make_basis_node_state(2, 0))))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_constructors_reject_non_finite_input(bad):
    amps = np.array([bad, 0, 0, 1], dtype=np.complex128)
    with pytest.raises(ValueError, match="not normalized"):
        NodeState(2, amps)
    with pytest.raises(ValueError, match="not normalized"):
        WalkerState(2, 2, amps)
    eta = make_uniform_node_state(2)
    with pytest.raises(ValueError):
        MixedEnsemble(((bad, eta), (1.0, eta)))
    with pytest.raises(ValueError):
        MixedEnsemble(((1.0, eta), (-bad, eta)))


def test_mixed_ensemble_weight_tolerance_from_config(monkeypatch):
    eta = make_uniform_node_state(3)
    b0 = make_basis_node_state(3, 0)
    off = ((0.5, eta), (0.5 + 1e-9, b0))
    with pytest.raises(ValueError):
        MixedEnsemble(off)
    monkeypatch.setattr("qwsearch.states.STRICT_TOL", 1e-8)
    assert MixedEnsemble(off).n == 3
    monkeypatch.setattr("qwsearch.states.STRICT_TOL", 1e-14)
    with pytest.raises(ValueError):
        MixedEnsemble(((0.5, eta), (0.5 + 1e-13, b0)))


def test_even_uniform_support_and_norm():
    s = make_even_uniform_node_state(5)
    parity = np.array([x.bit_count() & 1 for x in range(32)])
    assert np.all(s.amplitudes[parity == 1] == 0)
    assert np.allclose(np.abs(s.amplitudes[parity == 0]), 0.25, atol=1e-15)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
def test_even_parity_mask_matches_bit_count(n):
    assert even_parity_mask(n).tolist() == [x.bit_count() % 2 == 0
                                            for x in range(2 ** n)]


def test_ghz_w_and_family_states():
    g = make_ghz_node_state(3)
    assert abs(g.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(g.amplitudes[7] - 1 / math.sqrt(2)) < 1e-15
    assert not g.amplitudes[1:7].any()

    w = make_w_node_state(3)
    for i in (1, 2, 4):
        assert abs(w.amplitudes[i] - 1 / math.sqrt(3)) < 1e-15

    assert np.allclose(make_interpolated_node_state(4, 1.0).amplitudes,
                       make_uniform_node_state(4).amplitudes, atol=1e-14)
    assert np.allclose(make_interpolated_node_state(4, 0.0).amplitudes,
                       make_basis_node_state(4, 0).amplitudes, atol=1e-14)

    t = make_tilted_node_state(4, 0.7)
    assert abs(np.max(np.abs(t.amplitudes) ** 2) - 0.7) < 1e-14


def test_pauli_layer_letters():
    layer = pauli_layer("XZ")
    assert np.array_equal(layer.factors[0], [[0, 1], [1, 0]])
    assert np.array_equal(layer.factors[1], [[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        pauli_layer("XQ")
