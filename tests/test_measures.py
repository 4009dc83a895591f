import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwsearch import measures, runners
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
# batched maximizer against one restart at a time, with steps and plain

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


def _sweep(tensor, us, n):
    """One plain sweep over the factors us, in place, qubit 0 first; returns
    the last site vector's norm."""
    high = [tensor.ravel()]   # high[k]: qubits n-1..n-k contracted with old factors
    for q in range(n - 1, 0, -1):
        high.append(np.conj(us[q]) @ high[-1].reshape(2, -1))
    low = np.ones(1)          # qubits j-1..0 contracted with new factors, as a vector
    for j in range(n):
        v = high[n - 1 - j].reshape(2, -1) @ low
        lam = float(np.linalg.norm(v))
        if lam > 0.0:
            us[j] = v / lam
        low = np.outer(np.conj(us[j]), low).ravel()
    return lam


def _restart(tensor, n, us, stepping, tol, cap):
    """One restart from the factors us, updated in place: (overlap, whether an
    accepted sweep gained less than tol, sweeps), at most cap sweeps. Plain
    sweeps, or with stepping the pool's extrapolated steps."""
    lam, sweeps, beta, gains, stepped = 0.0, 0, 1.0, (0.0, 0.0), False
    keep = [u.copy() for u in us]   # the factors before the last step or sweep
    while sweeps < cap:
        prev, lam = lam, _sweep(tensor, us, n)
        sweeps += 1
        back = stepped and lam <= prev
        if back:
            us[:], lam, beta = keep, prev, max(0.5 * beta, 1.0)
        else:
            if stepped:
                beta *= 1.5
            gains = (gains[1], lam - prev)
            if lam - prev < tol:
                return lam, True, sweeps
        stepped = (stepping and not back and sweeps >= 3
                   and gains[1] > 0.5 * gains[0])
        before, keep = keep, [u.copy() for u in us]
        if stepped:   # on along the last move, u + beta (u - u_before)
            us[:] = [x / np.linalg.norm(x)
                     for x in (u + beta * (u - k) for u, k in zip(us, before))]
    return lam, False, sweeps


def _contract(tensor, vecs):
    """sum_x tensor[x] prod_q vecs[q][x_q]; the tensor's last axis is qubit 0."""
    t = tensor
    for v in vecs:
        t = np.tensordot(t, v, axes=([t.ndim - 1], [0]))
    return complex(t)


def _reference_parts(tensor, us):
    """A = <u|psi>, B_j with u_j swapped for u_j^perp and C_ij with u_i and
    u_j swapped, each from its own tensordot contraction."""
    n = len(us)
    cu = [np.conj(u) for u in us]
    cp = [np.array([-u[1], u[0]]) for u in us]   # conj(u^perp), u^perp = (-conj(u1), conj(u0))
    swap = lambda *sites: _contract(tensor, [cp[q] if q in sites else cu[q] for q in range(n)])
    B = np.array([swap(j) for j in range(n)])
    C = np.array([[swap(i, j) if i != j else 0.0 for j in range(n)] for i in range(n)])
    return swap(), B, C


def _reference_polish(tensor, n, us, limit):
    """Newton steps on one restart's factors, updated in place: (overlap,
    done, steps). The system by np.linalg.solve, positive definiteness by
    np.linalg.cholesky."""
    prev, steps, last, tol = 0.0, 0, None, measures.OVERLAP_TOL
    while True:
        A, B, C = _reference_parts(tensor, us)
        a, b = abs(A), np.abs(B).max()
        if last is not None:   # after the last step: undone unless it lowered |B|
            if b > last[0]:
                us[:], a = last[1], prev
            return a, True, steps
        if a < prev - tol:
            return a, False, steps
        if b <= np.finfo(float).eps * a or (b <= tol and steps == limit):
            return a, True, steps
        if b <= tol:
            last = (b, [u.copy() for u in us])
        elif steps == limit:
            return a, False, steps
        b_rot, c = np.conj(A) / a * B, np.conj(A) / a * C
        M = a * a * np.eye(n) - c.conj().T @ c
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            return a, last is not None, steps
        eps = np.linalg.solve(M, a * np.conj(b_rot) + np.conj(c) @ b_rot)
        # u_j + conj(eps_j) u_j^perp, normalized
        us[:] = [x / np.linalg.norm(x) for x in
                 (u + np.conj(e) * np.array([-np.conj(u[1]), np.conj(u[0])])
                  for u, e in zip(us, eps))]
        steps, prev = steps + 1, a


def _reference_hopm(state, restarts, seed, stepping=True):
    """One restart at a time; also counts sweeps and reports whether the best
    restart converged. With stepping, the pool's rule: stepped sweeps to
    HANDOFF_TOL, then Newton steps on the best restart and, if they fail,
    stepped sweeps on from its coarse factors to OVERLAP_TOL; without,
    plain sweeps to OVERLAP_TOL."""
    n, cap = state.n, measures.HOPM_SWEEP_CAP
    tensor = state.amplitudes.reshape((2,) * n)
    tol = measures.HANDOFF_TOL if stepping else measures.OVERLAP_TOL
    best_lam2, counts = -1.0, []
    for r in range(restarts):
        us = list(measures._random_products(n, [np.random.default_rng([seed, r])])[0])
        lam, met, sweeps = _restart(tensor, n, us, stepping, tol, cap)
        counts.append(sweeps)
        if lam * lam > best_lam2:
            best_lam2, best = lam * lam, (r, lam, met, [u.copy() for u in us])
    r, lam, converged, best_us = best
    if stepping and converged:
        us = [u.copy() for u in best_us]
        found, converged, steps = _reference_polish(tensor, n, us, min(8, cap - counts[r]))
        counts[r] += steps
        if converged:
            lam, best_us = found, us
        elif counts[r] < cap:   # the fallback, from the coarse factors
            lam, converged, more = _restart(tensor, n, best_us, True,
                                            measures.OVERLAP_TOL, cap - counts[r])
            counts[r] += more
    return lam * lam, best_us, converged, max(counts)


def _plain_reference_hopm(state, restarts, seed):
    """The plain alternating sweeps the stepped optimizer must never fall below."""
    return _reference_hopm(state, restarts, seed, stepping=False)


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


# Haar states at n = 2-10, then the route cases' product, GHZ, W and fig4 GHZ
_PLAIN_CASES = (
    [(f"haar-n{n}-s{s}", make_random_node_state(n, s), s)
     for n in range(2, 11) for s in range(3)]
    + [c[:3] for c in _ROUTE_CASES if not c[0].startswith(("n1-", "haar-"))])


@pytest.mark.parametrize("state,seed", [c[1:] for c in _PLAIN_CASES],
                         ids=[c[0] for c in _PLAIN_CASES])
def test_steps_keep_the_plain_maximum(state, seed):
    # steps may end a restart elsewhere, but never on a lower overlap than
    # plain sweeps from the same 32 starts, beyond rounding
    lam2, us, _, _ = measures._hopm([state], 32, [seed])[0]
    plain = _plain_reference_hopm(state, 32, seed)[0]
    assert lam2 >= plain - 1e-13
    assert abs(lam2 - plain) <= 1e-10
    assert abs(_product_overlap(state, us) - lam2) <= 1e-12


def test_steps_bound_the_skw2_haar_sweeps(monkeypatch):
    # the 384 restarts of the 12 skw2-haar states (n = 8, seeds 0-11), each
    # run alone and so polished as its state's best, run 8,391 sweeps in all:
    # 6,752 coarse sweeps (rejected steps included), 1,258 Newton steps and
    # 381 fallback sweeps; plain sweeps to OVERLAP_TOL ran 22,613
    draw, total = measures._random_products, 0
    for seed in range(12):
        state = make_random_node_state(8, seed)
        for r in range(32):   # restart r of the seed, run as the only restart
            monkeypatch.setattr(measures, "_random_products", lambda n, rngs, key=(seed, r):
                                draw(n, [np.random.default_rng(key)]))
            total += measures._hopm([state], 1, [seed])[0][3]
    assert total <= 8_400


def test_batched_maximizer_sweep_cap(monkeypatch):
    monkeypatch.setattr(measures, "HOPM_SWEEP_CAP", 2)
    state = make_random_node_state(6, 0)
    lam2, _, converged, sweeps = measures._hopm([state], 8, [0])[0]
    ref_lam2, _, ref_converged, ref_sweeps = _reference_hopm(state, 8, 0)
    assert abs(lam2 - ref_lam2) <= 1e-12
    assert converged is False and ref_converged is False
    assert sweeps == ref_sweeps == 2


# haar n=8 seed 15's two slowest restarts (24 and 31) take 26 and 27 sweeps;
# restarts 0-23 take at most 25, and the reported one (7) takes 25: 22
# sweeps and 3 Newton steps
_SEED15_CAP = 26


def test_converged_describes_the_reported_restart(monkeypatch):
    # restart 31 runs into the sweep cap and restart 24 reaches it, but the
    # restart whose overlap is reported converged; 24 restarts find the same
    # overlap
    monkeypatch.setattr(measures, "HOPM_SWEEP_CAP", _SEED15_CAP)
    state = make_random_node_state(8, 15)
    rep = groverian_entanglement(state, seed=15)
    fewer = groverian_entanglement(state, restarts=24, seed=15)
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
    + [("n1-bare", [_one_qubit(s) for s in range(3)], [0, 3, 7], 5)]
    + [("ghz-alpha-n6-one-seed",
        [make_ghz_node_state(6, a) for a in np.linspace(0.0, math.pi / 4, 5)],
        [4] * 5, 8)])


@pytest.mark.parametrize("states,seeds,restarts", [c[1:] for c in _GROUP_CASES],
                         ids=[c[0] for c in _GROUP_CASES])
def test_row_group_matches_one_state_calls(states, seeds, restarts):
    group = measures._hopm(states, restarts, seeds)
    assert len(group) == len(states)
    for state, seed, got in zip(states, seeds, group):
        _bitwise_equal(got, measures._hopm([state], restarts, [seed])[0])


def test_pool_draws_each_seeds_starts_once(monkeypatch):
    draws, draw = [], measures._random_products
    monkeypatch.setattr(measures, "_random_products",
                        lambda n, rngs: draws.extend(rngs) or draw(n, rngs))
    states = [make_ghz_node_state(5, a) for a in np.linspace(0.0, math.pi / 4, 6)]
    measures._hopm(states, 3, [2, 2, 7, 2, 7, 9])
    assert len(draws) == 3 * 3   # restarts x distinct seeds


@pytest.mark.parametrize("cap", [None, 2])
def test_pool_keeps_per_restart_caps_and_counts(monkeypatch, cap):
    # under seed 15's cap, haar n=8 seed 15 has restarts that run into it;
    # the fast states around it (seeds 17, 1 and 33, 25 sweeps at most) must
    # keep their own counts
    monkeypatch.setattr(measures, "HOPM_SWEEP_CAP", cap or _SEED15_CAP)
    states = [make_random_node_state(8, s) for s in (17, 15, 1, 33)]
    seeds = [17, 15, 1, 33]
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
    for seed in range(20):   # one seed's 32 starts, normalized together
        starts = measures._random_products(
            n, [np.random.default_rng([seed, r]) for r in range(32)])
        assert starts.shape == (32, n, 2)
        for r, got in enumerate(starts):
            ref = _reference_random_product(n, np.random.default_rng([seed, r]))
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_batched_maximizer_zero_site_vector_keeps_factor(monkeypatch):
    # every start has qubit 1 in |1>, orthogonal to the |000> state's qubit 1,
    # so the first site vector is exactly zero and the guard keeps u_0
    state = make_basis_node_state(3, 0)
    tensor = state.amplitudes.reshape((2,) * 3)
    draw = measures._random_products

    def start(n, rngs):
        us = draw(n, rngs)
        us[:, 1] = (0.0, 1.0)
        return us

    monkeypatch.setattr(measures, "_random_products", start)
    first = start(3, [np.random.default_rng([0, 0])])[0]
    assert not np.any(_contract_except(tensor, list(first), 3, 0))
    lam2, us, converged, sweeps = measures._hopm([state], 4, [0])[0]
    ref_lam2, _, ref_converged, ref_sweeps = _reference_hopm(state, 4, 0)
    assert np.all(np.isfinite(us))
    assert abs(lam2 - 1.0) <= 1e-12 and abs(ref_lam2 - 1.0) <= 1e-12
    assert (converged, sweeps) == (ref_converged, ref_sweeps)


# ---------------------------------------------------------------------------
# the polish: its overlaps and solve, stationary winners, the fallback

def _psis(states):
    return np.array([s.amplitudes.reshape((2,) * s.n).T.reshape(2, -1) for s in states])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_overlaps_match_tensordot(n):
    # three states at random factors, one slot each
    states = [make_random_node_state(n, s) for s in range(3)]
    factors = measures._random_products(n, [np.random.default_rng([9, k]) for k in range(3)])
    A, B, pre, suf, cp = measures._overlaps(_psis(states), np.conj(factors))
    C = measures._pair_overlaps(pre, suf, np.conj(factors), cp)
    for k, state in enumerate(states):
        ref_A, ref_B, ref_C = _reference_parts(state.amplitudes.reshape((2,) * n),
                                               list(factors[k]))
        assert abs(A[k] - ref_A) <= 1e-13
        assert np.abs(B[k] - ref_B).max() <= 1e-13
        assert np.abs(C[k] - ref_C).max() <= 1e-13


def test_cholesky_solve_matches_linalg():
    rng = np.random.default_rng(5)
    for n in range(1, 10):
        G = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
        M = G @ np.conj(G.transpose(0, 2, 1)) + n * np.eye(n)
        spectrum = np.linalg.eigvalsh(M[2])
        M[2] -= 0.5 * (spectrum[0] + spectrum[-1]) * np.eye(n)   # indefinite, or < 0
        rhs = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
        x, ok = measures._cholesky_solve(M, rhs)
        assert ok.tolist() == [True, True, False, True]
        for k in (0, 1, 3):
            want = np.linalg.solve(M[k], rhs[k])
            assert np.abs(x[k] - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", range(4, 13))
def test_polished_winners_are_stationary(n):
    # the reported factors are a fixed point to rounding: no site's
    # orthogonal direction moves the overlap
    state = make_random_node_state(n, n)
    lam2, us, converged, _ = measures._hopm([state], 32, [n])[0]
    A, B, _ = _reference_parts(state.amplitudes.reshape((2,) * n), us)
    assert converged
    assert np.abs(B).max() <= 1e-12
    assert abs(abs(A) ** 2 - lam2) <= 1e-12


def test_w_state_takes_the_fallback(monkeypatch):
    # W's optima form a family (one phase on every qubit's |1>), so its
    # Hessian is singular there; at optimizer seed 0's best coarse restart the
    # system is not positive definite, and it sweeps on from its coarse factors
    tols, pool = [], measures._sweep_pool
    monkeypatch.setattr(measures, "_sweep_pool", lambda *a: tols.append(a[3]) or pool(*a))
    state = make_w_node_state(3)
    lam2, us, converged, sweeps = measures._hopm([state], 32, [0])[0]
    assert tols == [measures.HANDOFF_TOL, measures.OVERLAP_TOL]
    ref_lam2, _, ref_converged, ref_sweeps = _reference_hopm(state, 32, 0)
    assert (converged, sweeps) == (ref_converged, ref_sweeps) and converged
    assert abs(lam2 - _plain_reference_hopm(state, 32, 0)[0]) <= 1e-12
    assert abs(lam2 - ref_lam2) <= 1e-12 and abs(lam2 - 4 / 9) <= 1e-12


def test_skw2_p_avg_holds_to_rounding(monkeypatch):
    # the skw2-haar states' p_avg from the pooled run, against the route
    # before the hand-off (stepped sweeps to OVERLAP_TOL) with its best
    # restarts polished the same way; unpolished, the routes differ by 1.3e-8
    states, seeds = [make_random_node_state(8, s) for s in range(12)], list(range(12))
    pooled = [r.p_avg for r in runners.walk_rows(runners.prepare_skw2_rows(states, seeds))]

    def stepped_to_overlap_tol(states, restarts, seeds):
        n, total = states[0].n, len(states) * restarts
        psis = _psis(states)
        us = np.concatenate([measures._random_products(
            n, [np.random.default_rng([seed, r]) for r in range(restarts)]) for seed in seeds])
        lam, _, _ = measures._sweep_pool(psis, np.arange(total) // restarts, us,
                                         measures.OVERLAP_TOL,
                                         np.full(total, measures.HOPM_SWEEP_CAP), total)
        best = (lam * lam).reshape(-1, restarts).argmax(axis=1) + np.arange(0, total, restarts)
        cu = np.conj(us[best])
        found, _, done = measures._polish(psis, cu, np.full(len(states), 8))
        assert done.all()
        return [(float(f * f), list(np.conj(c)), True, 0) for f, c in zip(found, cu)]

    monkeypatch.setattr(measures, "_hopm", stepped_to_overlap_tol)
    other = [r.p_avg for r in runners.walk_rows(runners.prepare_skw2_rows(states, seeds))]
    assert max(abs(a - b) for a, b in zip(pooled, other)) <= 1e-15
