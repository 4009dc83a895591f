"""Independent brute-force verifiers.

Everything here re-derives results through a second route: dense operator
matrices assembled entry by entry (never the matrix-free kernels), an
exhaustive Bloch-angle grid for the best product overlap, the exhaustive
3^n Pauli-layer search, and standalone identity checks. Shared with the
rest of the package are only data types, not operator-application code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .config import DEFAULT, InvariantViolation, NumericsConfig
from .measures import (LocalLayer, best_pauli_basis, optimize_local_layer_detailed,
                       pauli_layer)
from .states import NodeState, WalkerState, make_random_node_state
from .walk import OSKW, SKW, IterationPlan, WalkSpec


@dataclass(frozen=True)
class DenseOperator:
    dim: int
    entries: np.ndarray


def _dense_shift(n: int, N: int) -> np.ndarray:
    S = np.zeros((n * N, n * N), dtype=np.complex128)
    for d in range(n):
        for x in range(N):
            S[d * N + (x ^ (1 << d)), d * N + x] = 1.0
    return S


def build_dense_evolution(spec: WalkSpec,
                          config: NumericsConfig = DEFAULT) -> DenseOperator:
    """Explicit matrix of one evolution application (V, or the two-shift V_opt).

    Flat basis index is d * node_count + x, matching the walker layout.
    Guarded by config.dense_guard_n.
    """
    if spec.n > config.dense_guard_n:
        raise ValueError(
            f"dense build at n={spec.n} exceeds guard n <= {config.dense_guard_n}"
        )
    n, N = spec.n, spec.node_count
    # the coins are built here on purpose; this module must not borrow kernels
    C0 = (2.0 / n) * np.ones((n, n), dtype=np.complex128) - np.eye(n)
    C1 = -np.eye(n, dtype=np.complex128)
    proj_tg = np.zeros((N, N), dtype=np.complex128)
    proj_tg[spec.target, spec.target] = 1.0
    C = np.kron(C0, np.eye(N)) + np.kron(C1 - C0, proj_tg)
    S = _dense_shift(n, N)
    V = S @ C
    if spec.variant == OSKW:
        V = S @ np.kron(C0, np.eye(N)) @ V
    dim = n * N
    err = float(np.max(np.abs(V.conj().T @ V - np.eye(dim))))
    if err > config.unitary_tol:
        raise InvariantViolation("dense evolution unitarity", f"deviation {err}")
    return DenseOperator(dim=dim, entries=V)


def evolve_dense(state: WalkerState, spec: WalkSpec, plan: IterationPlan,
                 config: NumericsConfig = DEFAULT) -> WalkerState:
    """Apply the dense evolution matrix under the same step-budget convention.

    Plain variant: tau applications; two-shift variant: floor(tau/2).
    """
    op = build_dense_evolution(spec, config)
    v = state.amplitudes.copy()
    steps = plan.tau if spec.variant == SKW else plan.tau // 2
    for _ in range(steps):
        v = op.entries @ v
    return WalkerState(spec.n, spec.node_count, v, config)


def xor_covariance_deviation(n: int, shift: int, target: int, variant: str = SKW,
                             config: NumericsConfig = DEFAULT) -> float:
    """How far relabeling vertices by XOR fails to commute with the walk.

    Conjugating the dense evolution for target t by the vertex permutation
    x -> x XOR shift must give the dense evolution for target t XOR shift
    exactly; the max entrywise deviation is returned. Allocates two
    (n 2^n)^2 matrices, so keep n small (intended n <= 6). The two-shift
    variant needs an even-parity shift so both targets stay admissible.
    """
    N = 1 << n
    if not 0 <= shift < N:
        raise ValueError(f"shift {shift} out of range for {N} vertices")
    cfg = config.replace(dense_guard_n=max(config.dense_guard_n, n))
    spec_a = WalkSpec(n=n, node_count=N, target=target, variant=variant)
    spec_b = WalkSpec(n=n, node_count=N, target=target ^ shift, variant=variant)
    Va = build_dense_evolution(spec_a, cfg).entries
    Vb = build_dense_evolution(spec_b, cfg).entries
    x = np.arange(N)
    perm = np.concatenate([d * N + (x ^ shift) for d in range(n)])
    return float(np.max(np.abs(Va[perm][:, perm] - Vb)))


# ---------------------------------------------------------------------------
# exhaustive Pauli-layer search

# <0| P for each Pauli: X and Y land on <1| (phase immaterial), Z stays <0|
_PAULI_BRA0 = {
    "X": np.array([0, 1], dtype=np.complex128),
    "Y": np.array([0, -1j], dtype=np.complex128),
    "Z": np.array([1, 0], dtype=np.complex128),
}


def enumerate_pauli_layers(state: NodeState,
                           config: NumericsConfig = DEFAULT) -> Tuple[LocalLayer, float]:
    """Exhaustive max of |<0...0| (x)V_j |psi>|^2 over all 3^n Pauli layers.

    Evaluated as a three-way contraction tree over qubits, O(3^n) overall,
    guarded by config.pauli_guard_n. The first maximal layer in X, Y, Z
    order is returned; the value always equals max_i |a_i|^2 because X and
    Y flip a qubit while Z does not, so every bit pattern is reachable.
    """
    n = state.n
    if n > config.pauli_guard_n:
        raise ValueError(
            f"3^{n} layer enumeration exceeds guard n <= {config.pauli_guard_n}"
        )
    best_val = -1.0
    best_letters: Tuple[str, ...] = ()
    letters: List[str] = []

    def descend(tensor: np.ndarray) -> None:
        nonlocal best_val, best_letters
        if tensor.ndim == 0:
            # same magnitude kernel as best_pauli_basis, so exact ties agree
            val = float(np.abs(tensor) ** 2)
            if val > best_val:
                best_val = val
                best_letters = tuple(letters)
            return
        for name in "XYZ":
            letters.append(name)
            descend(np.tensordot(_PAULI_BRA0[name], tensor, axes=([0], [0])))
            letters.pop()

    descend(state.amplitudes.reshape((2,) * n))
    # axis 0 held qubit n-1, so the recorded letters run from qubit n-1 down
    layer = pauli_layer("".join(reversed(best_letters)))
    return layer, float(best_val)


# ---------------------------------------------------------------------------
# exhaustive product-overlap grid

def _bloch_candidates(resolution: int) -> np.ndarray:
    """Single-qubit grid (cos(theta/2), e^{i phi} sin(theta/2)).

    theta takes resolution+1 even subdivisions of [0, pi], phi takes
    resolution subdivisions of the circle; the two poles collapse to one
    candidate each since phi only moves a global phase there. Doubling the
    resolution keeps every old grid point, so the grid max is
    non-decreasing along doubling chains.
    """
    r = resolution
    thetas = np.linspace(0.0, math.pi, r + 1)
    phis = 2.0 * math.pi * np.arange(r) / r
    out = [np.array([1.0, 0.0], dtype=np.complex128),
           np.array([0.0, 1.0], dtype=np.complex128)]
    for t in thetas[1:-1]:
        c, s = math.cos(t / 2.0), math.sin(t / 2.0)
        for p in phis:
            out.append(np.array([c, np.exp(1j * p) * s]))
    return np.array(out)


def _coarse_seed_resolution(resolution: int) -> int:
    # largest divisor of the target resolution not above 8 keeps the seed
    # grid nested inside the fine grid
    for r0 in range(min(8, resolution), 0, -1):
        if resolution % r0 == 0:
            return r0
    return 1


def _grid_max_2q(tensor: np.ndarray, cands: np.ndarray) -> float:
    conj = cands.conj()
    W = conj @ tensor            # (K, 2): one row per first-qubit candidate
    best = 0.0
    # |W @ conj.T| in row chunks to cap the intermediate size
    for lo in range(0, W.shape[0], 512):
        block = np.abs(W[lo:lo + 512] @ conj.T) ** 2
        best = max(best, float(block.max()))
    return best


def _grid_max_3q(tensor: np.ndarray, cands: np.ndarray, init: float) -> float:
    """Exact grid max via bound-and-prune; equals the exhaustive triple loop.

    Per top-qubit candidate the remaining 2x2 contraction M bounds every
    completion by its largest singular value squared (the max over the
    whole continuum of the other two qubits); per second candidate the
    bound is the residual vector norm. Candidates are visited best-bound
    first so the scan stops at the first bound not above the running max.
    """
    conj = cands.conj()
    best = init
    mats = np.tensordot(conj, tensor, axes=([1], [0]))      # (K, 2, 2)
    svals = np.linalg.svd(mats, compute_uv=False)[:, 0] ** 2
    order = np.argsort(-svals)
    for k in order:
        if svals[k] <= best:
            break
        W = conj @ mats[k]                                   # (K, 2)
        bounds2 = np.einsum("ij,ij->i", np.abs(W), np.abs(W))
        inner = np.argsort(-bounds2)
        for l in inner:
            if bounds2[l] <= best:
                break
            vals = np.abs(conj @ W[l]) ** 2
            top = float(vals.max())
            if top > best:
                best = top
    return best


def grid_product_overlap(state: NodeState, angular_resolution: int,
                         config: NumericsConfig = DEFAULT) -> float:
    """Max |<product|psi>|^2 over the per-qubit Bloch-angle grid.

    A certified lower bound on the true product overlap, converging as the
    grid is refined. Guarded to n <= config.grid_guard_n and
    angular_resolution <= config.grid_guard_resolution.
    """
    n = state.n
    if n > config.grid_guard_n:
        raise ValueError(f"grid search at n={n} exceeds guard n <= {config.grid_guard_n}")
    if not 1 <= angular_resolution <= config.grid_guard_resolution:
        raise ValueError(
            f"resolution {angular_resolution} outside 1..{config.grid_guard_resolution}"
        )
    tensor = state.amplitudes.reshape((2,) * n)
    cands = _bloch_candidates(angular_resolution)
    if n == 2:
        return _grid_max_2q(tensor, cands)
    # seed the running max from a nested coarse grid so pruning bites early
    r0 = _coarse_seed_resolution(angular_resolution)
    seed_val = 0.0
    if r0 >= 2:
        coarse = _bloch_candidates(r0)
        conj0 = coarse.conj()
        for k in range(coarse.shape[0]):
            M = np.tensordot(conj0[k], tensor, axes=([0], [0]))
            seed_val = max(seed_val, _grid_max_2q(M, coarse))
    return _grid_max_3q(tensor, cands, seed_val)


# ---------------------------------------------------------------------------
# standalone identity checks

def verify_theorem_identities(n: int, trials: int, seed: int = 0,
                              config: NumericsConfig = DEFAULT) -> Dict[str, object]:
    """Check the two exact inner reductions on seeded random states.

    (a) the best-local-layer overlap equals 1 - E_g^2 within 1e-8;
    (b) the exhaustive Pauli-layer value equals max_i |a_i|^2 within 1e-12.
    Returns pass counts and worst deviations.
    """
    if n > config.identity_check_guard_n:
        raise ValueError(
            f"identity check at n={n} exceeds guard n <= {config.identity_check_guard_n}"
        )
    layer_tol, pauli_tol = 1e-8, 1e-12
    layer_passes = pauli_passes = 0
    worst_layer = worst_pauli = 0.0
    for k in range(trials):
        psi = make_random_node_state(n, seed + k, config)
        _, achieved, report = optimize_local_layer_detailed(psi, seed=seed + k,
                                                            config=config)
        dev_a = abs(achieved - (1.0 - report.E_g ** 2))
        _, pauli_val = enumerate_pauli_layers(psi, config)
        _, basis_val = best_pauli_basis(psi)
        dev_b = abs(pauli_val - basis_val)
        worst_layer = max(worst_layer, dev_a)
        worst_pauli = max(worst_pauli, dev_b)
        layer_passes += dev_a <= layer_tol
        pauli_passes += dev_b <= pauli_tol
    return {
        "trials": trials,
        "layer_passes": int(layer_passes),
        "pauli_passes": int(pauli_passes),
        "worst_layer_dev": worst_layer,
        "worst_pauli_dev": worst_pauli,
        "all_passed": bool(layer_passes == trials and pauli_passes == trials),
    }
