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
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .config import DEFAULT, NumericsConfig
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
    config: NumericsConfig = field(default=DEFAULT, repr=False, compare=False)

    def __post_init__(self):
        factors = tuple(np.asarray(U, dtype=np.complex128) for U in self.factors)
        if not factors:
            raise ValueError("layer needs at least one factor")
        for k, U in enumerate(factors):
            if U.shape != (2, 2):
                raise ValueError(f"factor {k} is not 2x2: shape {U.shape}")
            err = float(np.max(np.abs(U.conj().T @ U - np.eye(2))))
            if err > self.config.unitary_tol:
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
    converged: Optional[bool] = None


# ---------------------------------------------------------------------------
# closed-form measures

def coherence_fraction(state: StateLike) -> float:
    """Overlap with the equal superposition: |sum_x a_x|^2 / N, ensemble-weighted."""
    if isinstance(state, MixedEnsemble):
        return float(sum(p * coherence_fraction(s) for p, s in state.members))
    return float(abs(state.amplitudes.sum()) ** 2) / state.dim


def even_coherence_fraction(state: NodeState) -> float:
    """Overlap with the equal superposition over even-parity vertices."""
    eta_e = make_even_uniform_node_state(state.n, state.config)
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

def _contract_except(tensor: np.ndarray, us: List[np.ndarray], n: int,
                     j: int) -> np.ndarray:
    """Contract conj(u_q) on every qubit axis except j; returns a 2-vector.

    Axis a of the tensor holds qubit n-1-a; the live axis list tracks
    positions as contractions remove axes.
    """
    t = tensor
    axis_qubit = list(range(n - 1, -1, -1))
    for q in range(n - 1, -1, -1):
        if q == j:
            continue
        a = axis_qubit.index(q)
        t = np.tensordot(np.conj(us[q]), t, axes=([0], [a]))
        axis_qubit.pop(a)
    return t


def _random_product(n: int, rng: np.random.Generator) -> List[np.ndarray]:
    us = []
    for _ in range(n):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        us.append(v / np.linalg.norm(v))
    return us


def _hopm(state: NodeState, restarts: int, seed: int,
          config: NumericsConfig) -> Tuple[float, List[np.ndarray], bool]:
    """Best squared product overlap Lambda^2, its factors, and convergence.

    Each restart seeds its own generator from (seed, restart index), so the
    result is independent of any execution schedule. A sweep fixes every
    factor but one; the optimal free factor is the normalized partial
    contraction, and the overlap is non-decreasing, so the sweep loop stops
    once the gain drops below config.overlap_tol.
    """
    n = state.n
    tensor = state.amplitudes.reshape((2,) * n)
    best_lam2 = -1.0
    best_us: List[np.ndarray] = []
    all_converged = True
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        us = _random_product(n, rng)
        lam = 0.0
        converged = False
        for _ in range(config.hopm_sweep_cap):
            prev = lam
            for j in range(n):
                v = _contract_except(tensor, us, n, j)
                nv = float(np.linalg.norm(v))
                if nv > 0.0:
                    us[j] = v / nv
                lam = nv
            if lam - prev < config.overlap_tol:
                converged = True
                break
        all_converged = all_converged and converged
        if lam * lam > best_lam2:
            best_lam2 = lam * lam
            best_us = [u.copy() for u in us]
    return best_lam2, best_us, all_converged


def _entanglement(state: NodeState, restarts: Optional[int], seed: int,
                  config: NumericsConfig) -> Tuple[List[np.ndarray], ResourceReport]:
    """One maximizer run: the optimal product factors and the full report."""
    if restarts is None:
        restarts = config.hopm_restarts
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    lam2, us, converged = _hopm(state, restarts, seed, config)
    return us, ResourceReport(
        f_c=coherence_fraction(state),
        C_f=fidelity_coherence(state),
        E_g=math.sqrt(max(0.0, 1.0 - lam2)),
        E_g_overlap=lam2,
        restarts_used=restarts,
        converged=converged,
    )


def groverian_entanglement(state: NodeState, restarts: Optional[int] = None,
                           seed: int = 0,
                           config: NumericsConfig = DEFAULT) -> ResourceReport:
    """Full resource report with E_g = sqrt(1 - Lambda^2) from the maximizer.

    The returned E_g errs high only through an under-maximized overlap;
    f_c and C_f are exact.
    """
    return _entanglement(state, restarts, seed, config)[1]


def optimize_local_layer_detailed(
        state: NodeState, restarts: Optional[int] = None, seed: int = 0,
        config: NumericsConfig = DEFAULT,
) -> Tuple[LocalLayer, float, ResourceReport]:
    """Best local layer maximizing the transformed state's coherence fraction,
    the value it achieves, and the resources of the input state.

    Runs the product-overlap maximizer once, then builds U_j sending the
    optimal factor |u_j> to |+>; the achieved value is recomputed end to end
    as |<uniform| (x)U_j |psi>|^2 rather than echoed from the optimizer.
    """
    us, report = _entanglement(state, restarts, seed, config)
    plus = np.array([1, 1], dtype=np.complex128) / math.sqrt(2)
    minus = np.array([1, -1], dtype=np.complex128) / math.sqrt(2)
    factors = []
    for u in us:
        uperp = np.array([-np.conj(u[1]), np.conj(u[0])], dtype=np.complex128)
        factors.append(np.outer(plus, np.conj(u)) + np.outer(minus, np.conj(uperp)))
    layer = LocalLayer(tuple(factors), config)
    eta = make_uniform_node_state(state.n, config)
    achieved = float(abs(overlap(eta, apply_local_layer(state, layer, config))) ** 2)
    return layer, achieved, report
