"""Resource measures of the initial node state.

Three quantities drive all predictions: the coherence fraction f_c
(overlap with the equal superposition), the fidelity coherence
C_f = sqrt(1 - max_i |a_i|^2), and the Groverian entanglement
E_g = sqrt(1 - Lambda^2) with Lambda^2 the best squared overlap with any
product state. f_c and C_f are closed-form; Lambda^2 comes from an
alternating single-site maximizer with random restarts, so the reported
overlap is a lower bound and E_g an upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import (HOPM_BATCH_ENTRIES, HOPM_RESTARTS, HOPM_SWEEP_CAP,
                     OVERLAP_TOL, UNITARY_TOL)
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
            err = float(np.max(np.abs(U.conj().T @ U - np.eye(2))))
            if err > UNITARY_TOL:
                raise ValueError(f"factor {k} not unitary: deviation {err}")
        object.__setattr__(self, "factors", factors)

    @property
    def n(self) -> int:
        return len(self.factors)


def identity_layer(n: int) -> LocalLayer:
    return LocalLayer(tuple(np.eye(2, dtype=np.complex128) for _ in range(n)))


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
# product-overlap maximization (alternating single-site updates)

def _random_product(n: int, rng: np.random.Generator) -> np.ndarray:
    """n random unit qubit vectors, (n, 2), from one draw; its BLAS dot norms
    match n draws normalized by np.linalg.norm one at a time, bit for bit."""
    re, im = rng.standard_normal((n, 2, 2)).transpose(1, 0, 2)
    sq = re[:, None] @ re[:, :, None] + im[:, None] @ im[:, :, None]
    return (re + 1j * im) / np.sqrt(sq[:, 0])


def _hopm(states: Sequence[NodeState], restarts: int,
          seeds: Sequence[int]) -> List[Tuple[float, List[np.ndarray], bool, int]]:
    """Per state (all of one n): best squared product overlap Lambda^2, its
    factors, whether the restart that found it converged, and the most sweeps
    any of its restarts used.

    Restart r of state i seeds its own generator from (seeds[i], r) and counts
    its own sweeps, so no result depends on the schedule. A sweep sets each
    factor in turn, qubit 0 (psi's leading axis) first, to the normalized
    contraction of psi with the new factors before it and the old ones after
    it. Live restarts carry conjugated factors in a pool of slots, written back
    once their gain drops below OVERLAP_TOL or at HOPM_SWEEP_CAP; the slot then
    takes the next pending restart, state-major. The pool holds two states'
    restarts at most and slots x N/2 entries under HOPM_BATCH_ENTRIES;
    products are per restart, so no bit depends on the pool.
    """
    n, total = states[0].n, len(states) * restarts
    psis = np.array([s.amplitudes.reshape((2,) * n).T.reshape(2, -1) for s in states])
    us = np.array([_random_product(n, np.random.default_rng([seed, r]))
                   for seed in seeds for r in range(restarts)])
    lam, sweeps, converged = np.zeros(total), np.zeros(total, int), np.zeros(total, bool)
    pool = min(total, 2 * restarts, max(1, HOPM_BATCH_ENTRIES // (states[0].dim // 2)))
    live, age, pending = np.arange(pool), np.zeros(pool, int), pool
    # a row group's slots carry their own psi; one state's psi broadcasts
    psi = psis[live // restarts] if len(states) > 1 else psis
    cu, prev, m = np.conj(us[live]), np.zeros(pool), 0
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
        age += 1  # sweeps each live restart has run
        now = nv[:, 0]
        done = now - prev < OVERLAP_TOL
        leave = done | (age == HOPM_SWEEP_CAP)
        if leave.any():
            gone = live[leave]
            us[gone], lam[gone], sweeps[gone] = np.conj(cu[leave]), now[leave], age[leave]
            converged[live[done]] = True
            if pending < total:  # freed slots take pending restarts in place
                slot = np.nonzero(leave)[0][:total - pending]
                new = live[slot] = np.arange(pending, pending + slot.size)
                cu[slot], now[slot] = np.conj(us[new]), 0.0
                age[slot], leave[slot] = 0, False
                if psi is not psis:
                    psi[slot] = psis[new // restarts]
                pending += slot.size
            if leave.any():
                live, cu, now, age = (a[~leave] for a in (live, cu, now, age))
                psi = psi if psi is psis else psi[~leave]
        prev = now
    # per state, the first maximum, as a strict > scan
    best = (lam * lam).reshape(-1, restarts).argmax(axis=1) + np.arange(0, total, restarts)
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
    plus = np.array([1, 1], dtype=np.complex128) / math.sqrt(2)
    minus = np.array([1, -1], dtype=np.complex128) / math.sqrt(2)
    # U_j = |+><u_j| + |-><u_j^perp| with u_j^perp = (-conj(u_j1), conj(u_j0))
    return [(LocalLayer(tuple(np.outer(plus, np.conj(u)) + np.outer(minus, [-u[1], u[0]])
                              for u in us)), report)
            for us, report in _entanglement(states, restarts, seeds)]


def optimize_local_layer_detailed(
        state: NodeState, restarts: Optional[int] = None, seed: int = 0,
) -> Tuple[LocalLayer, float, ResourceReport]:
    """One state's best local layer, the value it achieves (recomputed end to
    end as |<uniform| (x)U_j |psi>|^2), and the resources of the input state."""
    [(layer, report)] = optimize_local_layers([state], restarts, [seed])
    eta = make_uniform_node_state(state.n)
    achieved = float(abs(overlap(eta, apply_local_layer(state, layer))) ** 2)
    return layer, achieved, report
