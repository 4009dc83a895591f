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
from typing import List, Optional, Tuple

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

def _random_product(n: int, rng: np.random.Generator) -> List[np.ndarray]:
    us = []
    for _ in range(n):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        us.append(v / np.linalg.norm(v))
    return us


def _hopm(state: NodeState, restarts: int,
          seed: int) -> Tuple[float, List[np.ndarray], bool, int]:
    """Best squared product overlap Lambda^2, its factors, whether the
    restart that found it converged, and the most sweeps any restart used.

    Each restart seeds its own generator from (seed, restart index), so the
    result is independent of any execution schedule. A sweep fixes every
    factor but one, qubit 0 first; the optimal free factor is the normalized
    partial contraction: the prefix L (psi contracted with this sweep's
    factors, qubit j the low axis) against the suffix (x)_{q>j} conj(u_q) of
    the old ones. The overlap is non-decreasing, so a restart leaves the
    batch once its gain drops below OVERLAP_TOL. Restarts run in blocks whose
    widest array (block x N/2 entries) stays under HOPM_BATCH_ENTRIES.
    """
    n = state.n
    psi = state.amplitudes.reshape(1, -1, 2)
    us = np.array([_random_product(n, np.random.default_rng([seed, r]))
                   for r in range(restarts)])
    lam = np.zeros(restarts)
    converged = np.zeros(restarts, dtype=bool)
    sweeps = np.zeros(restarts, dtype=np.int64)
    block = max(1, HOPM_BATCH_ENTRIES // (state.dim // 2))
    for lo in range(0, restarts, block):
        live = np.arange(lo, min(lo + block, restarts))
        for sweep in range(1, HOPM_SWEEP_CAP + 1):
            u = us[live]
            cu = np.conj(u)
            suffix = [np.ones((live.size, 1), dtype=np.complex128)]
            for j in range(n - 1, 0, -1):
                suffix.append((suffix[-1][:, :, None] * cu[:, j, None, :])
                              .reshape(live.size, -1))
            prefix = psi
            for j in range(n):
                if j:
                    prefix = np.einsum('rxa,ra->rx', prefix, np.conj(u[:, j - 1])
                                       ).reshape(live.size, -1, 2)
                v = np.einsum('rxa,rx->ra', prefix, suffix.pop())
                w = v.view(np.float64)
                nv = np.sqrt(np.einsum('ri,ri->r', w, w))[:, None]
                np.divide(v, nv, out=u[:, j], where=nv > 0.0)
            us[live] = u
            done = nv[:, 0] - lam[live] < OVERLAP_TOL
            lam[live], sweeps[live] = nv[:, 0], sweep
            converged[live[done]] = True
            live = live[~done]
            if live.size == 0:
                break
    best = int(np.argmax(lam * lam))  # the first maximum, as a strict > scan
    return (float(lam[best] * lam[best]), list(us[best]), bool(converged[best]),
            int(sweeps.max()))


def _entanglement(state: NodeState, restarts: Optional[int],
                  seed: int) -> Tuple[List[np.ndarray], ResourceReport]:
    """One maximizer run: the optimal product factors and the full report."""
    if restarts is None:
        restarts = HOPM_RESTARTS
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    lam2, us, converged, sweeps = _hopm(state, restarts, seed)
    return us, ResourceReport(
        f_c=coherence_fraction(state),
        C_f=fidelity_coherence(state),
        E_g=math.sqrt(max(0.0, 1.0 - lam2)),
        E_g_overlap=lam2,
        restarts_used=restarts,
        converged=converged,
        sweeps=sweeps,
    )


def groverian_entanglement(state: NodeState, restarts: Optional[int] = None,
                           seed: int = 0) -> ResourceReport:
    """Full resource report with E_g = sqrt(1 - Lambda^2) from the maximizer.

    The returned E_g errs high only through an under-maximized overlap;
    f_c and C_f are exact.
    """
    return _entanglement(state, restarts, seed)[1]


def optimize_local_layer_detailed(
        state: NodeState, restarts: Optional[int] = None, seed: int = 0,
) -> Tuple[LocalLayer, float, ResourceReport]:
    """Best local layer maximizing the transformed state's coherence fraction,
    the value it achieves, and the resources of the input state.

    Runs the product-overlap maximizer once, then builds U_j sending the
    optimal factor |u_j> to |+>; the achieved value is recomputed end to end
    as |<uniform| (x)U_j |psi>|^2 rather than echoed from the optimizer.
    """
    us, report = _entanglement(state, restarts, seed)
    plus = np.array([1, 1], dtype=np.complex128) / math.sqrt(2)
    minus = np.array([1, -1], dtype=np.complex128) / math.sqrt(2)
    factors = []
    for u in us:
        uperp = np.array([-np.conj(u[1]), np.conj(u[0])], dtype=np.complex128)
        factors.append(np.outer(plus, np.conj(u)) + np.outer(minus, np.conj(uperp)))
    layer = LocalLayer(tuple(factors))
    eta = make_uniform_node_state(state.n)
    achieved = float(abs(overlap(eta, apply_local_layer(state, layer))) ** 2)
    return layer, achieved, report
