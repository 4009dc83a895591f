import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwsearch import measures
from qwsearch import (MixedEnsemble, NodeState, apply_local_layer,
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


# ---------------------------------------------------------------------------
# batched maximizer against the per-restart loop it replaced

def _contract_except(tensor, us, n, j):
    # axis a of the tensor holds qubit n-1-a
    t = tensor
    axis_qubit = list(range(n - 1, -1, -1))
    for q in range(n - 1, -1, -1):
        if q == j:
            continue
        a = axis_qubit.index(q)
        t = np.tensordot(np.conj(us[q]), t, axes=([0], [a]))
        axis_qubit.pop(a)
    return t


def _reference_hopm(state, restarts, seed):
    """One restart at a time, n(n-1) tensordots per site; also counts sweeps
    and reports whether the best restart converged."""
    n = state.n
    tensor = state.amplitudes.reshape((2,) * n)
    best_lam2, best_us, best_converged, most_sweeps = -1.0, [], False, 0
    for r in range(restarts):
        us = measures._random_product(n, np.random.default_rng([seed, r]))
        lam, converged, sweeps = 0.0, False, 0
        for _ in range(measures.HOPM_SWEEP_CAP):
            prev = lam
            sweeps += 1
            for j in range(n):
                v = _contract_except(tensor, us, n, j)
                nv = float(np.linalg.norm(v))
                if nv > 0.0:
                    us[j] = v / nv
                lam = nv
            if lam - prev < measures.OVERLAP_TOL:
                converged = True
                break
        most_sweeps = max(most_sweeps, sweeps)
        if lam * lam > best_lam2:
            best_lam2, best_converged = lam * lam, converged
            best_us = [u.copy() for u in us]
    return best_lam2, best_us, best_converged, most_sweeps


def _reference_random_product(n, rng):
    """Per-qubit starts: two draws of size 2 and one np.linalg.norm per qubit."""
    us = []
    for _ in range(n):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        us.append(v / np.linalg.norm(v))
    return us


def _product_overlap(state, us):
    amps = np.ones(1, dtype=np.complex128)
    for u in us:
        amps = np.kron(u, amps)
    return abs(np.vdot(amps, state.amplitudes)) ** 2


def _one_qubit(seed):
    # a node register needs n >= 2, so one qubit goes to the maximizer bare
    z = np.random.default_rng(seed).normal(size=(2, 2)) @ [1, 1j]
    return SimpleNamespace(n=1, dim=2, amplitudes=z / np.linalg.norm(z))


# (id, state, seed, unique optimum); GHZ at alpha = pi/4 and W have a family
# of optimal factors, so the two routes may keep different members of it
_ROUTE_CASES = (
    [(f"n1-s{s}", _one_qubit(s), s, True) for s in (0, 3)]
    + [(f"haar-n{n}-s{s}", make_random_node_state(n, s), s, True)
       for n in (2, 4, 6, 8) for s in range(3)]
    + [("ghz-n2", make_ghz_node_state(2), 1, False),
       ("product-n2", _product_state(2, 4), 2, True)]
    + [("ghz-n3", make_ghz_node_state(3), 1, False),
       ("w-n3", make_w_node_state(3), 1, False)]
    + [(f"fig4-ghz-n9-{k}", make_ghz_node_state(9, k * math.pi / 40), 0, True)
       for k in (3, 7)])


@pytest.mark.parametrize("state,seed,unique", [c[1:] for c in _ROUTE_CASES],
                         ids=[c[0] for c in _ROUTE_CASES])
def test_batched_maximizer_matches_reference_loop(state, seed, unique):
    lam2, us, converged, sweeps = measures._hopm([state], 32, [seed])[0]
    ref_lam2, ref_us, ref_converged, ref_sweeps = _reference_hopm(state, 32, seed)
    assert abs(lam2 - ref_lam2) <= 1e-12
    assert (converged, sweeps) == (ref_converged, ref_sweeps)
    assert abs(_product_overlap(state, us) - lam2) <= 1e-12
    if unique:  # the same optimal factors up to a phase on each qubit
        assert all(abs(abs(np.vdot(a, b)) - 1.0) <= 1e-12 for a, b in zip(us, ref_us))
    rep = groverian_entanglement(state, seed=seed)
    assert (rep.E_g_overlap, rep.converged, rep.sweeps) == (lam2, converged, sweeps)


def test_batched_maximizer_sweep_cap(monkeypatch):
    monkeypatch.setattr(measures, "HOPM_SWEEP_CAP", 2)
    state = make_random_node_state(6, 0)
    lam2, _, converged, sweeps = measures._hopm([state], 8, [0])[0]
    ref_lam2, _, ref_converged, ref_sweeps = _reference_hopm(state, 8, 0)
    assert abs(lam2 - ref_lam2) <= 1e-12
    assert converged is False and ref_converged is False
    assert sweeps == ref_sweeps == 2


def test_converged_describes_the_reported_restart():
    # one of the 32 restarts runs into the sweep cap, but the restart whose
    # overlap is reported converged; 28 restarts find the same overlap
    state = make_random_node_state(8, 15)
    rep = groverian_entanglement(state, seed=15)
    fewer = groverian_entanglement(state, restarts=28, seed=15)
    assert rep.sweeps == measures.HOPM_SWEEP_CAP and rep.converged is True
    assert fewer.E_g_overlap == rep.E_g_overlap and fewer.converged is True
    assert fewer.sweeps < measures.HOPM_SWEEP_CAP


def _bitwise_equal(got, want):
    """Two maximizer results agree in Lambda^2, factors, converged and sweeps."""
    assert got[0] == want[0] and got[2:] == want[2:]
    assert len(got[1]) == len(want[1])
    assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))


@pytest.mark.parametrize("per_block", [1, 5, 10 ** 6])
def test_batched_maximizer_blocks_change_nothing(monkeypatch, per_block):
    # one state's 32 restarts, then six states of 5 restarts sharing a pool
    # of 1 or 5 slots, or of the two-state ceiling 10 when the guard allows more
    state = make_random_node_state(8, 1)
    group, seeds = [make_random_node_state(6, s) for s in range(6)], [0, 1, 2, 3, 4, 5]
    whole = measures._hopm([state], 32, [1])[0]
    alone = [measures._hopm([s], 5, [seed])[0] for s, seed in zip(group, seeds)]
    monkeypatch.setattr(measures, "HOPM_BATCH_ENTRIES", per_block * state.dim // 2)
    blocked = measures._hopm([state], 32, [1])[0]
    _bitwise_equal(blocked, whole)
    monkeypatch.setattr(measures, "HOPM_BATCH_ENTRIES", per_block * group[0].dim // 2)
    for got, want in zip(measures._hopm(group, 5, seeds), alone):
        _bitwise_equal(got, want)


# (id, states, seeds, restarts): row groups the pool must split back into
# exactly what one-state calls give
_GROUP_CASES = (
    [("haar-n8-x12", [make_random_node_state(8, s) for s in range(12)],
      list(range(12)), 32)]
    + [(f"haar-n{n}-r{r}", [make_random_node_state(n, s) for s in range(4)],
        [3, 1, 4, 1], r) for n in (2, 6) for r in (1, 5, 32)]
    + [("n1-bare", [_one_qubit(s) for s in range(3)], [0, 3, 7], 5)])


@pytest.mark.parametrize("states,seeds,restarts", [c[1:] for c in _GROUP_CASES],
                         ids=[c[0] for c in _GROUP_CASES])
def test_row_group_matches_one_state_calls(states, seeds, restarts):
    group = measures._hopm(states, restarts, seeds)
    assert len(group) == len(states)
    for state, seed, got in zip(states, seeds, group):
        _bitwise_equal(got, measures._hopm([state], restarts, [seed])[0])


@pytest.mark.parametrize("cap", [None, 2])
def test_pool_keeps_per_restart_caps_and_counts(monkeypatch, cap):
    # haar n=8 seed 15 has one restart that runs into the 500-sweep cap;
    # the fast states around it must keep their own counts
    if cap is not None:
        monkeypatch.setattr(measures, "HOPM_SWEEP_CAP", cap)
    states = [make_random_node_state(8, s) for s in (0, 15, 1, 2)]
    seeds = [0, 15, 1, 2]
    group = measures._hopm(states, 32, seeds)
    for state, seed, got in zip(states, seeds, group):
        _bitwise_equal(got, measures._hopm([state], 32, [seed])[0])
    sweeps = [got[3] for got in group]
    if cap is None:
        assert sweeps[1] == measures.HOPM_SWEEP_CAP and group[1][2] is True
        assert max(sweeps[:1] + sweeps[2:]) < measures.HOPM_SWEEP_CAP
    else:
        assert sweeps == [2, 2, 2, 2] and not any(got[2] for got in group)


def test_optimize_local_layers_matches_the_one_state_route():
    states = [make_random_node_state(5, s) for s in range(3)]
    for state, seed, (layer, report) in zip(
            states, [2, 0, 9], measures.optimize_local_layers(states, 6, [2, 0, 9])):
        one_layer, achieved, one_report = optimize_local_layer_detailed(state, 6, seed)
        assert report == one_report
        assert all(np.array_equal(a, b)
                   for a, b in zip(layer.factors, one_layer.factors))
        assert abs(achieved - report.E_g_overlap) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_random_product_matches_per_qubit_draws(n):
    for seed in range(20):
        for r in range(32):
            got = measures._random_product(n, np.random.default_rng([seed, r]))
            ref = _reference_random_product(n, np.random.default_rng([seed, r]))
            assert got.shape == (n, 2)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_batched_maximizer_zero_site_vector_keeps_factor(monkeypatch):
    # every start has qubit 1 in |1>, orthogonal to the |000> state's qubit 1,
    # so the first site vector is exactly zero and the guard keeps u_0
    state = make_basis_node_state(3, 0)
    tensor = state.amplitudes.reshape((2,) * 3)
    draw = measures._random_product

    def start(n, rng):
        us = draw(n, rng)
        us[1] = (0.0, 1.0)
        return us

    monkeypatch.setattr(measures, "_random_product", start)
    first = start(3, np.random.default_rng([0, 0]))
    assert not np.any(_contract_except(tensor, list(first), 3, 0))
    lam2, us, converged, sweeps = measures._hopm([state], 4, [0])[0]
    ref_lam2, _, ref_converged, ref_sweeps = _reference_hopm(state, 4, 0)
    assert np.all(np.isfinite(us))
    assert abs(lam2 - 1.0) <= 1e-12 and abs(ref_lam2 - 1.0) <= 1e-12
    assert (converged, sweeps) == (ref_converged, ref_sweeps)
