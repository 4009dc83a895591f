"""Resource measures of the initial node state.

Three quantities drive all predictions: the coherence fraction f_c
(overlap with the equal superposition), the fidelity coherence
C_f = sqrt(1 - max_i |a_i|^2), and the Groverian entanglement
E_g = sqrt(1 - Lambda^2) with Lambda^2 the best squared overlap with any
product state. f_c and C_f are closed-form; Lambda^2 comes from a
maximizer with random restarts, so the reported overlap is a lower bound
and E_g an upper bound. Every restart runs alternating single-site sweeps,
extrapolated along its last move while they gain slowly, until a sweep
gains less than HANDOFF_TOL. Each state's best restart is then finished by
Newton steps on the product of qubit spheres, which take its factors to
the fixed point to rounding; where its Hessian is not negative definite
(the W state's optima form a family) it sweeps on to OVERLAP_TOL instead.
A report's `sweeps` counts every sweep and Newton step a restart ran,
rejected steps included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import (HANDOFF_TOL, HOPM_BATCH_ENTRIES, HOPM_RESTARTS,
                     HOPM_SWEEP_CAP, OVERLAP_TOL, UNITARY_TOL)
from .states import (MixedEnsemble, NodeState, StateLike, apply_local_layer,
                     make_even_uniform_node_state, make_uniform_node_state, overlap)

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


@dataclass(frozen=True)
class LocalLayer:
    """A product U_1 x ... x U_n of single-qubit unitaries; factor j acts on qubit j."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(np.asarray(U, dtype=np.complex128) for U in self.factors)
        if not factors:
            raise ValueError("layer needs at least one factor")
        for k, U in enumerate(factors):
            if U.shape != (2, 2):
                raise ValueError(f"factor {k} is not 2x2: shape {U.shape}")
        F = np.array(factors)
        errs = np.abs(F.conj().transpose(0, 2, 1) @ F - np.eye(2)).max(axis=(1, 2))
        if (errs > UNITARY_TOL).any():
            k = int(np.argmax(errs > UNITARY_TOL))  # the first offender, not the worst
            raise ValueError(f"factor {k} not unitary: deviation {float(errs[k])}")
        object.__setattr__(self, "factors", factors)


def hadamard_layer(n: int) -> LocalLayer:
    return LocalLayer(tuple(_HADAMARD for _ in range(n)))


def pauli_layer(letters: str) -> LocalLayer:
    """Layer from a string like 'XZY'; letters[j] acts on qubit j."""
    try:
        return LocalLayer(tuple(_PAULI[c] for c in letters))
    except KeyError as e:
        raise ValueError(f"Pauli letter must be X, Y or Z, got {e.args[0]!r}") from None


@dataclass(frozen=True)
class ResourceReport:
    """Measured resources of one state; entanglement fields are None when not computed."""

    f_c: float
    C_f: Optional[float]
    E_g: Optional[float] = None
    E_g_overlap: Optional[float] = None
    restarts_used: Optional[int] = None
    converged: Optional[bool] = None   # the restart behind E_g_overlap
    sweeps: Optional[int] = None  # most sweeps any optimizer restart used


# ---------------------------------------------------------------------------
# closed-form measures

def coherence_fraction(state: StateLike) -> float:
    """Overlap with the equal superposition: |sum_x a_x|^2 / N, ensemble-weighted."""
    if isinstance(state, MixedEnsemble):
        return float(sum(p * coherence_fraction(s) for p, s in state.members))
    return float(abs(state.amplitudes.sum()) ** 2) / state.dim


def even_coherence_fraction(state: NodeState) -> float:
    """Overlap with the equal superposition over even-parity vertices."""
    eta_e = make_even_uniform_node_state(state.n)
    return float(abs(overlap(eta_e, state)) ** 2)


def fidelity_coherence(state: NodeState) -> float:
    """C_f = sqrt(1 - max_i |a_i|^2), the distance to the nearest incoherent state."""
    if isinstance(state, MixedEnsemble):
        raise ValueError("fidelity coherence is defined here for pure states only")
    peak = float(np.max(np.abs(state.amplitudes) ** 2))
    return math.sqrt(max(0.0, 1.0 - peak))


def best_pauli_basis(state: NodeState) -> Tuple[int, float]:
    """Index and value of the largest |a_i|^2; ties go to the smallest index."""
    probs = np.abs(state.amplitudes) ** 2
    i = int(np.argmax(probs))
    return i, float(probs[i])


# ---------------------------------------------------------------------------
# product-overlap maximization (alternating single-site sweeps, then Newton)

def _random_products(n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One start of n random unit qubit vectors per generator, (len(rngs), n, 2),
    each from one normal draw of shape (n, 2, 2); the batched BLAS dot norms
    match each qubit normalized by np.linalg.norm on its own, bit for bit."""
    re, im = np.array([rng.standard_normal((n, 2, 2)) for rng in rngs]).transpose(2, 0, 1, 3)
    sq = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return (re + 1j * im) / np.sqrt(sq[..., 0])


def _sweep_pool(psis: np.ndarray, owner: np.ndarray, us: np.ndarray, tol: float,
                caps: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restart k sweeps psis[owner[k]] from the factors us[k] until an accepted
    sweep gains less than tol or it has run caps[k] sweeps; its factors are
    written back to us. Returns per restart the overlap Lambda, the sweeps run
    (rejected steps included) and whether it met tol.

    A sweep sets each factor in turn, qubit 0 (psi's leading axis) first, to
    the normalized contraction of psi with the new factors before it and the
    old ones after it. Plain sweeps converge linearly, so a restart that has
    run 3 sweeps and whose last gain is more than half the gain before it
    takes a step: its next sweep starts from u + beta (u - u_prev), each qubit
    renormalized, where u are its factors and u_prev those before its last
    accepted sweep (Rajih, Comon & Harshman, SIAM J. Matrix Anal. Appl. 30,
    1128, 2008). A step whose sweep ends no higher than the overlap before it
    is undone: the restart goes back to u, beta halves (not below 1) and the
    next sweep is plain. An accepted step grows beta 1.5x. So the overlap
    never falls, and the stop rule reads the gain over the overlap before the
    sweep or step.

    Live restarts carry conjugated factors in a pool of at most width slots
    and slots x N/2 entries under HOPM_BATCH_ENTRIES; a restart's slot takes
    the next pending restart once it leaves. Products are per restart and the
    step state is updated under masks, so no bit depends on the pool.
    """
    total, half = len(us), psis.shape[-1]
    lam, sweeps, met = np.zeros(total), np.zeros(total, int), np.zeros(total, bool)
    pool = min(total, width, max(1, HOPM_BATCH_ENTRIES // half))
    live, age, pending = np.arange(pool), np.zeros(pool, int), pool
    # the slots carry their own psi; one state's psi broadcasts
    psi = psis[owner[live]] if len(psis) > 1 else psis
    cu, prev, m = np.conj(us[live]), np.zeros(pool), 0
    n = us.shape[1]
    # per slot: the factors before this sweep or step (u_prev once it ends),
    # beta, the last accepted gain (set by a restart's own first sweep) and
    # whether this sweep is a step
    before, beta, last = cu.copy(), np.ones(pool), np.zeros(pool)
    stepped = np.zeros(pool, bool)
    while live.size:
        if live.size != m:  # per live set: site vector, suffix slots and steps
            m, v = live.size, np.empty((live.size, 2, 1), complex)
            w = v.view(np.float64).reshape(m, 4)
            suf = [np.ones((m, 1 << k), complex) for k in range(n - 1, -1, -1)]
            steps = [(cu[:, j, :, None], suf[j][:, None], suf[j - 1].reshape(m, 2, -1))
                     for j in range(n - 1, 0, -1)]
        for step in steps:  # suffix j - 1 = cu_j (high axis) times suffix j
            np.multiply(*step)
        prefix = psi
        for j in range(n):
            if j:
                prefix = (cu[:, j - 1, None] @ prefix).reshape(m, 2, -1)
            np.matmul(prefix, suf[j][:, :, None], out=v)
            nv = np.sqrt(w[:, None] @ w[:, :, None])[:, 0]
            np.divide(np.conj(v[:, :, 0]), nv, out=cu[:, j], where=nv > 0.0)
        age += 1  # sweeps each live restart has run, rejected steps included
        now = nv[:, 0]
        # the step rule's numbers: a restart steps once it has run 3 sweeps,
        # so that two real gains exist, and while its last gain is over half
        # the one before, the sign of a slow linear approach; beta grows 1.5x
        # per accepted step and halves, not below 1, per undone one
        back = stepped & (now <= prev)
        if stepped.any():
            np.copyto(cu, before, where=back[:, None, None])
            now = np.where(back, prev, now)
            beta = np.where(back, np.maximum(0.5 * beta, 1.0),
                            np.where(stepped, 1.5 * beta, beta))
        gain = now - prev
        done = (gain < tol) & ~back
        stepped = (age >= 3) & (gain > 0.5 * last) & ~back  # for the next sweep
        last = np.where(back, last, gain)
        leave = done | (age >= caps[live])
        if leave.any():
            gone = live[leave]
            us[gone], lam[gone], sweeps[gone] = np.conj(cu[leave]), now[leave], age[leave]
            met[live[done]] = True
            if pending < total:  # freed slots take pending restarts in place
                slot = np.nonzero(leave)[0][:total - pending]
                new = live[slot] = np.arange(pending, pending + slot.size)
                cu[slot], now[slot] = np.conj(us[new]), 0.0
                age[slot], beta[slot], stepped[slot], leave[slot] = 0, 1.0, False, False
                if psi is not psis:
                    psi[slot] = psis[owner[new]]
                pending += slot.size
            if leave.any():
                live, cu, now, age, before, beta, last, stepped = (
                    a[~leave] for a in (live, cu, now, age, before, beta, last, stepped))
                psi = psi if psi is psis else psi[~leave]
        if stepped.any():  # x = u + beta (u - u_prev), each qubit renormalized
            x = cu - before
            xf = x.view(np.float64)
            xf *= beta[:, None, None]
            x += cu
            sq = xf * xf
            xf /= np.sqrt((sq[..., :1] + sq[..., 1:2]) + (sq[..., 2:3] + sq[..., 3:]))
            np.copyto(before, cu)
            np.copyto(cu, x, where=stepped[:, None, None])
        else:
            np.copyto(before, cu)
        prev = now
    return lam, sweeps, met


def _overlaps(psis: np.ndarray, cu: np.ndarray):
    """Per slot k, psis[k] contracted with the conjugated factors cu[k]: the
    overlap A = <u|psi> and B, with B_j the same contraction with site j's
    factor swapped for cp_j = conj(u_j^perp) = (-conj(cu_j1), conj(cu_j0)).
    Also returns what the pair overlaps reuse: the prefixes (psi contracted
    with the factors before qubit j), the suffixes (the product of the
    factors after it) and cp. One sweep's work, with the factors held."""
    S, n = cu.shape[:2]
    cp = np.stack((-np.conj(cu[..., 1]), np.conj(cu[..., 0])), axis=-1)
    suf = [np.ones((S, 1), complex)]
    for j in range(n - 1, 0, -1):
        suf.insert(0, (cu[:, j, :, None] * suf[0][:, None]).reshape(S, -1))
    pre = [psis]
    for j in range(1, n):
        pre.append((cu[:, j - 1, None] @ pre[-1]).reshape(S, 2, -1))
    v = np.stack([(p @ s[:, :, None])[..., 0] for p, s in zip(pre, suf)], axis=1)
    return (cu[:, -1] * v[:, -1]).sum(-1), (cp * v).sum(-1), pre, suf, cp


def _pair_overlaps(pre, suf, cu: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """C_ij, the contraction with sites i and j both swapped (S, n, n): each
    prefix contracted with cp_i is walked along the factors to every j > i
    and closed with suffix j. Symmetric, zero diagonal."""
    S, n = cu.shape[:2]
    C = np.zeros((S, n, n), complex)
    for i in range(n - 1):
        t = (cp[:, i, None] @ pre[i]).reshape(S, 2, -1)
        for j in range(i + 1, n):
            if j > i + 1:
                t = (cu[:, j - 1, None] @ t).reshape(S, 2, -1)
            C[:, i, j] = C[:, j, i] = (cp[:, j] * (t @ suf[j][:, :, None])[..., 0]).sum(-1)
    return C


def _cholesky_solve(M: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per slot, x with M x = rhs for Hermitian M (S, n, n), from its Cholesky
    factor in elementwise numpy; ok is False where a pivot is not positive,
    that is where M is not positive definite, and x is then meaningless."""
    S, n = rhs.shape
    L, ok = np.zeros_like(M), np.ones(S, bool)
    for k in range(n):
        row = L[:, k, :k]
        d = M[:, k, k].real - (row.real ** 2 + row.imag ** 2).sum(-1)
        ok &= d > 0.0
        L[:, k, k] = piv = np.sqrt(np.where(ok, d, 1.0))
        col = M[:, k + 1:, k] - (L[:, k + 1:, :k] * np.conj(row[:, None])).sum(-1)
        L[:, k + 1:, k] = col * (ok / piv)[:, None]  # a failed slot's columns stay 0
    y, x = np.empty_like(rhs), np.empty_like(rhs)
    for k in range(n):
        y[:, k] = (rhs[:, k] - (L[:, k, :k] * y[:, :k]).sum(-1)) / L[:, k, k]
    for k in range(n - 1, -1, -1):
        x[:, k] = (y[:, k] - (np.conj(L[:, k + 1:, k]) * x[:, k + 1:]).sum(-1)) / L[:, k, k]
    return x, ok


def _newton_step(A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """The chart step eps maximizing the second-order model of the overlap at
    cu_j + eps_j cp_j, and whether the point is a strict maximum there.

    With a = |A| and B, C rotated by conj(A)/a, the model is
    a^2 + 2a Re(B.eps) + a Re(eps.C.eps) - a^2 |eps|^2; its stationary point
    solves (a^2 I - C^H C) eps = a conj(B) + conj(C) B, and the point is a
    strict maximum iff a^2 I - C^H C > 0, i.e. sigma_max(C) < a. The model
    drops |B.eps|^2, which moves the Hessian only at second order in B, so
    the steps still converge quadratically (Ishteva, Absil, Van Huffel &
    De Lathauwer, SIAM J. Matrix Anal. Appl. 32, 115, 2011).
    """
    a = np.abs(A)
    rot = np.conj(A) / np.where(a > 0.0, a, 1.0)
    b, c = rot[:, None] * B, rot[:, None, None] * C
    cc = np.conj(c)  # C is symmetric, so C^H = conj(C)
    M = (a * a)[:, None, None] * np.eye(B.shape[1]) - cc @ c
    return _cholesky_solve(M, a[:, None] * np.conj(b) + (cc @ b[..., None])[..., 0])


def _polish(psis: np.ndarray, cu: np.ndarray, limit: np.ndarray):
    """Newton steps for slot k on psis[k] from the conjugated factors cu[k],
    updated in place; slot k takes at most limit[k] steps (none if negative).

    Once max_j |B_j| <= OVERLAP_TOL a slot has converged; it takes one last
    step, to its fixed point to rounding, and is done. The last step is
    undone if it does not lower max_j |B_j|, and skipped if the point is
    not a strict maximum or the slot has no step left; a slot whose B is
    already below the rounding of A takes none. A slot fails if a system is
    not positive definite, if its overlap falls by more than OVERLAP_TOL, or
    if it has not converged within its limit. Returns per slot the overlap,
    the steps taken and whether it is done."""
    S, rounding = len(cu), np.finfo(float).eps
    live, done, last = limit >= 0, np.zeros(S, bool), np.zeros(S, bool)
    lam, prev, top, steps = np.zeros(S), np.zeros(S), np.zeros(S), np.zeros(S, int)
    held = cu.copy()  # a slot's factors before its last step
    while live.any():
        A, B, pre, suf, cp = _overlaps(psis, cu)
        a, b = np.abs(A), np.abs(B).max(axis=1)
        back = last & (b > top)
        np.copyto(cu, held, where=back[:, None, None])
        a = np.where(back, prev, a)
        live &= last | (a >= prev - OVERLAP_TOL)
        end = live & (last | (b <= rounding * a) | ((b <= OVERLAP_TOL) & (steps == limit)))
        done |= end
        lam = np.where(end, a, lam)
        live &= ~end & (steps < limit)
        last, top = live & (b <= OVERLAP_TOL), b
        np.copyto(held, cu, where=last[:, None, None])
        if not live.any():  # B before C: a slot at rounding builds no pair overlaps
            break
        eps, ok = _newton_step(A, B, _pair_overlaps(pre, suf, cu, cp))
        hold = last & ~ok
        done |= hold
        lam = np.where(hold, a, lam)
        live &= ok
        last &= ok
        x = cu + eps[..., None] * cp
        x /= np.sqrt((x.real ** 2 + x.imag ** 2).sum(-1))[..., None]
        np.copyto(cu, x, where=live[:, None, None])
        steps += live
        prev = a
    return lam, steps, done


def _hopm(states: Sequence[NodeState], restarts: int,
          seeds: Sequence[int]) -> List[Tuple[float, List[np.ndarray], bool, int]]:
    """Per state (all of one n): best squared product overlap Lambda^2, its
    factors, whether the restart that found it converged, and the most sweeps
    any of its restarts used.

    Restart r of state i seeds its own generator from (seeds[i], r) and counts
    its own sweeps, so no result depends on the schedule; a start depends on
    (n, seed, r) alone, so each distinct seed's starts are drawn once and
    shared by every state with that seed.

    1. Coarse pool: every restart sweeps (`_sweep_pool`) until an accepted
       sweep gains less than HANDOFF_TOL, or to HOPM_SWEEP_CAP.
    2. Winner: per state, the first restart of largest Lambda^2, as a strict
       > scan.
    3. Polish: a winner that met HANDOFF_TOL takes Newton steps on the
       product of qubit spheres (`_polish`), at most 8 and within the cap.
       Once max_j |B_j| <= OVERLAP_TOL it has converged, and one last step
       takes it to the fixed point to rounding. The winners form one batch,
       one slot per state, on psis as they are.
    4. Fallback: a winner whose polish fails (a system not positive definite,
       a falling overlap, not done within its steps) sweeps on from its coarse
       factors, in a new pool, until a sweep gains less than OVERLAP_TOL or
       its sweeps reach the cap. The W state's optima form a family, so its
       Hessian is singular there, and from some starts it lands here.

    `converged` says the reported restart met a stop rule (the polish's or the
    fallback's); a winner that reached the cap in the coarse pool is reported
    as it stands. A restart's sweeps count each Newton step as one. Every step
    is per slot, so no bit depends on the pool or on the other states.
    """
    n, total = states[0].n, len(states) * restarts
    psis = np.array([s.amplitudes.reshape((2,) * n).T.reshape(2, -1) for s in states])
    starts = {seed: _random_products(n, [np.random.default_rng([seed, r])
                                         for r in range(restarts)])
              for seed in dict.fromkeys(seeds)}
    us = np.concatenate([starts[seed] for seed in seeds])
    owner, caps = np.arange(total) // restarts, np.full(total, HOPM_SWEEP_CAP)
    lam, sweeps, handed = _sweep_pool(psis, owner, us, HANDOFF_TOL, caps, 2 * restarts)
    best = (lam * lam).reshape(-1, restarts).argmax(axis=1) + np.arange(0, total, restarts)
    cu = np.conj(us[best])
    limit = np.where(handed[best], np.minimum(8, caps[best] - sweeps[best]), -1)
    polished, steps, done = _polish(psis, cu, limit)
    sweeps[best] += steps
    converged = np.zeros(total, bool)
    won = best[done]
    us[won], lam[won], converged[won] = np.conj(cu[done]), polished[done], True
    retry = best[handed[best] & ~done & (sweeps[best] < caps[best])]
    if retry.size:  # the fallback, from the coarse factors
        factors = us[retry]
        found, more, met = _sweep_pool(psis, owner[retry], factors, OVERLAP_TOL,
                                       caps[retry] - sweeps[retry], retry.size)
        us[retry], lam[retry], converged[retry] = factors, found, met
        sweeps[retry] += more
    return [(float(lam[b] * lam[b]), list(us[b]), bool(converged[b]), int(most))
            for b, most in zip(best, sweeps.reshape(-1, restarts).max(axis=1))]


def _entanglement(states: Sequence[NodeState], restarts: Optional[int],
                  seeds: Sequence[int]) -> List[Tuple[List[np.ndarray], ResourceReport]]:
    """One maximizer pool: per state, the optimal product factors and the report."""
    restarts = HOPM_RESTARTS if restarts is None else restarts
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    found = _hopm(states, restarts, seeds)
    return [(us, ResourceReport(
        f_c=coherence_fraction(state), C_f=fidelity_coherence(state),
        E_g=math.sqrt(max(0.0, 1.0 - lam2)), E_g_overlap=lam2,
        restarts_used=restarts, converged=converged, sweeps=sweeps))
        for state, (lam2, us, converged, sweeps) in zip(states, found)]


def groverian_entanglement(state: NodeState, restarts: Optional[int] = None,
                           seed: int = 0) -> ResourceReport:
    """Full resource report with E_g = sqrt(1 - Lambda^2) from the maximizer.

    The returned E_g errs high only through an under-maximized overlap;
    f_c and C_f are exact.
    """
    return _entanglement([state], restarts, [seed])[0][1]


def optimize_local_layers(states: Sequence[NodeState], restarts: Optional[int],
                          seeds: Sequence[int]) -> List[Tuple[LocalLayer, ResourceReport]]:
    """Per state (all of one n, state i seeded by seeds[i]), the local layer
    sending its optimal product factors |u_j> to |+>, which maximizes the
    transformed state's coherence fraction, and the input state's resources."""
    plus = np.array([1, 1], dtype=np.complex128)[:, None] / math.sqrt(2)
    minus = np.array([1, -1], dtype=np.complex128)[:, None] / math.sqrt(2)
    # U_j = |+><u_j| + |-><u_j^perp| with u_j^perp = (-conj(u_j1), conj(u_j0))
    layers = []
    for us, report in _entanglement(states, restarts, seeds):
        u = np.array(us)[:, None]  # (n, 1, 2)
        perp = np.concatenate((-u[..., 1:], u[..., :1]), axis=2)
        layers.append((LocalLayer(tuple(plus * np.conj(u) + minus * perp)), report))
    return layers


def optimize_local_layer_detailed(
        state: NodeState, restarts: Optional[int] = None, seed: int = 0,
) -> Tuple[LocalLayer, float, ResourceReport]:
    """One state's best local layer, the value it achieves (recomputed end to
    end as |<uniform| (x)U_j |psi>|^2), and the resources of the input state."""
    [(layer, report)] = optimize_local_layers([state], restarts, [seed])
    eta = make_uniform_node_state(state.n)
    achieved = float(abs(overlap(eta, apply_local_layer(state, layer))) ** 2)
    return layer, achieved, report
