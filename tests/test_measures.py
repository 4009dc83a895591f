import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwsearch import (DEFAULT, MixedEnsemble, NodeState, apply_local_layer,
                      best_pauli_basis, coherence_fraction,
                      enumerate_pauli_layers, even_coherence_fraction,
                      fidelity_coherence, groverian_entanglement,
                      hadamard_layer, make_basis_node_state,
                      make_even_uniform_node_state,
                      make_ghz_node_state, make_random_node_state,
                      make_uniform_node_state, make_w_node_state,
                      optimize_local_layer_detailed, overlap)


def _state(amps):
    a = np.asarray(amps, dtype=np.complex128)
    return NodeState(int(math.log2(a.size)), a / np.linalg.norm(a))


def _product_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = np.ones(1, dtype=np.complex128)
    for _ in range(n):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(z / np.linalg.norm(z), amps)
    return NodeState(n, amps)


def test_coherence_fraction_extremes():
    assert coherence_fraction(make_uniform_node_state(4)) == pytest.approx(1.0, abs=1e-14)
    assert coherence_fraction(make_basis_node_state(3, 0)) == pytest.approx(1 / 8, abs=1e-15)


def test_coherence_fraction_mixed():
    ens = MixedEnsemble(((0.5, make_uniform_node_state(3)),
                         (0.5, make_basis_node_state(3, 0))))
    assert coherence_fraction(ens) == pytest.approx(9 / 16, abs=1e-14)


@given(seed=st.integers(0, 2**31), n=st.integers(2, 6))
@settings(max_examples=50, deadline=None)
def test_coherence_fraction_two_routes(seed, n):
    # sum-of-amplitudes form against the projection overlap
    s = make_random_node_state(n, seed)
    direct = abs(np.sum(s.amplitudes)) ** 2 / 2 ** n
    via_overlap = abs(overlap(make_uniform_node_state(n), s)) ** 2
    f = coherence_fraction(s)
    assert abs(f - direct) < 1e-15
    assert abs(f - via_overlap) < 1e-13
    assert 0 <= f <= 1 + 1e-12


def test_fidelity_coherence_examples():
    assert fidelity_coherence(make_basis_node_state(3, 2)) == pytest.approx(0.0, abs=1e-15)
    for n in (2, 4, 6):
        assert fidelity_coherence(make_uniform_node_state(n)) == pytest.approx(
            math.sqrt(1 - 1 / 2 ** n), abs=1e-14)
    s = _state([math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2), 0.0])
    assert fidelity_coherence(s) == pytest.approx(math.sqrt(0.5), abs=1e-14)


def test_best_pauli_basis_examples():
    idx, p = best_pauli_basis(make_basis_node_state(3, 5))
    assert (idx, p) == (5, 1.0)
    idx, p = best_pauli_basis(make_uniform_node_state(2))
    assert idx == 0 and p == pytest.approx(0.25, abs=1e-15)  # ties break low
    idx, p = best_pauli_basis(_state([math.sqrt(0.3), math.sqrt(0.5),
                                      math.sqrt(0.2), 0.0]))
    assert idx == 1 and p == pytest.approx(0.5, abs=1e-14)


def test_groverian_product_state():
    s = _product_state(3, seed=11)
    rep = groverian_entanglement(s, seed=1)
    assert rep.E_g == pytest.approx(0.0, abs=1e-8)
    assert rep.E_g_overlap == pytest.approx(1.0, abs=1e-8)
    assert rep.converged


def test_groverian_ghz3():
    rep = groverian_entanglement(make_ghz_node_state(3), seed=1)
    assert rep.E_g_overlap == pytest.approx(0.5, abs=1e-6)
    assert rep.E_g == pytest.approx(1 / math.sqrt(2), abs=1e-6)


def test_groverian_w3():
    rep = groverian_entanglement(make_w_node_state(3), seed=1)
    assert rep.E_g_overlap == pytest.approx(4 / 9, abs=1e-6)
    assert rep.E_g == pytest.approx(math.sqrt(5) / 3, abs=1e-6)


def test_groverian_report_fields():
    rep = groverian_entanglement(make_ghz_node_state(3), restarts=8, seed=3)
    assert rep.restarts_used == 8
    assert rep.f_c == pytest.approx(coherence_fraction(make_ghz_node_state(3)),
                                    abs=1e-14)
    assert rep.C_f == pytest.approx(fidelity_coherence(make_ghz_node_state(3)),
                                    abs=1e-14)
    with pytest.raises(ValueError):
        groverian_entanglement(make_ghz_node_state(3), restarts=0)


def test_enumerate_pauli_layers_basis():
    layer, achieved = enumerate_pauli_layers(make_basis_node_state(2, 3))
    assert achieved == pytest.approx(1.0, abs=1e-14)
    # the layer concentrates on vertex 0; a Hadamard layer then reaches eta
    out = apply_local_layer(make_basis_node_state(2, 3), layer)
    assert abs(overlap(make_basis_node_state(2, 0), out)) ** 2 == pytest.approx(
        achieved, abs=1e-13)
    flat = apply_local_layer(out, hadamard_layer(2))
    assert abs(overlap(make_uniform_node_state(2), flat)) ** 2 == pytest.approx(
        achieved, abs=1e-13)


def test_enumerate_pauli_layers_matches_max_component():
    # every Pauli-frame overlap with the flat state is some |a_i|^2
    for seed in range(10):
        s = make_random_node_state(3, seed)
        _, achieved = enumerate_pauli_layers(s)
        assert achieved == pytest.approx(float(np.max(np.abs(s.amplitudes) ** 2)),
                                         abs=1e-12)


def test_enumerate_pauli_layers_guard():
    with pytest.raises(ValueError):
        enumerate_pauli_layers(make_uniform_node_state(13))


def test_optimizer_product_state():
    layer, achieved, _ = optimize_local_layer_detailed(_product_state(4, 5),
                                                       seed=2)
    assert achieved == pytest.approx(1.0, abs=1e-8)
    out = apply_local_layer(_product_state(4, 5), layer)
    assert abs(overlap(make_uniform_node_state(4), out)) ** 2 == pytest.approx(
        achieved, abs=1e-10)


def test_optimizer_ghz3():
    _, achieved, _ = optimize_local_layer_detailed(make_ghz_node_state(3),
                                                   seed=2)
    assert achieved == pytest.approx(0.5, abs=1e-6)


def test_optimizer_consistent_with_entanglement():
    for seed in range(50):
        s = make_random_node_state(4, seed)
        layer, achieved, rep = optimize_local_layer_detailed(s, seed=seed)
        assert achieved == pytest.approx(1 - rep.E_g ** 2, abs=1e-8)
        out = apply_local_layer(s, layer)
        assert abs(overlap(make_uniform_node_state(4), out)) ** 2 == pytest.approx(
            achieved, abs=1e-10)


def test_even_coherence_fraction():
    n = 5
    assert even_coherence_fraction(make_even_uniform_node_state(n)) == pytest.approx(
        1.0, abs=1e-14)
    assert even_coherence_fraction(make_uniform_node_state(n)) == pytest.approx(
        0.5, abs=1e-14)
    assert even_coherence_fraction(make_basis_node_state(n, 0)) == pytest.approx(
        1 / 16, abs=1e-15)


@given(seed=st.integers(0, 2**31), n=st.integers(2, 5))
@settings(max_examples=30, deadline=None)
def test_measure_ranges(seed, n):
    s = make_random_node_state(n, seed)
    assert 0 <= coherence_fraction(s) <= 1 + 1e-12
    assert 0 <= fidelity_coherence(s) <= 1 + 1e-12
    _, p = best_pauli_basis(s)
    assert 0 <= p <= 1 + 1e-12


def test_ordering_entanglement_vs_fidelity_coherence():
    # the local-layer optimum is at least the best Pauli frame, so E_g <= C_f
    for seed in range(20):
        s = make_random_node_state(3, seed)
        rep = groverian_entanglement(s, seed=seed)
        assert rep.E_g <= rep.C_f + 1e-9
