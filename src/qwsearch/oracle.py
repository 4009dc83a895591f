"""Independent brute-force verifiers.

Everything here re-derives results through a second route: dense operator
matrices assembled entry by entry, an exhaustive Bloch-angle grid for the
best product overlap, the exhaustive 3^n Pauli-layer search, and
standalone identity checks; these share only data types with the engine.
The forward walk `evolve` deliberately reuses the engine's grid kernels, one
marked vertex at a time, so its mean over the targets checks the p_avg of
`walk.walsh_weights`. `oracle_suite` is what `qwsearch verify` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .config import (DENSE_GUARD_N, GRID_GUARD_N, GRID_GUARD_RESOLUTION,
                     IDENTITY_CHECK_GUARD_N, NORM_TOL, PAULI_GUARD_N, UNITARY_TOL,
                     InvariantViolation)
from .measures import (LocalLayer, best_pauli_basis, optimize_local_layer_detailed,
                       pauli_layer)
from .runners import prepare_oskw1, prepare_skw1, walk_rows
from .states import NodeState, _frozen, make_random_node_state
from .walk import (OSKW, SKW, IterationPlan, WalkSpec, _check_norm, _grover,
                   _marked_coin, _shift, _shift_index)


# ---------------------------------------------------------------------------
# forward walk, one marked vertex at a time, on the full coin (x) node walker

@dataclass(frozen=True)
class WalkerState:
    """Joint coin (x) node amplitudes of the walker.

    `n` is the direction count, `node_count` the vertex count; flat index
    d * node_count + x. The 2D view used internally is amplitudes reshaped
    to (n, node_count).
    """

    n: int
    node_count: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes).ravel())
        if amps.shape[0] != self.n * self.node_count:
            raise ValueError(
                f"expected {self.n * self.node_count} amplitudes, got {amps.shape[0]}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:   # NaN fails too
            raise ValueError(f"walker not normalized: total = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)

    def grid(self) -> np.ndarray:
        """Read-only (n, node_count) view."""
        return self.amplitudes.reshape(self.n, self.node_count)


def uniform_coin(n: int) -> np.ndarray:
    """The equal-superposition coin state over n directions."""
    if n < 2:
        raise ValueError(f"coin needs n >= 2 directions, got {n}")
    return np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)


def compose_walker(coin: Sequence[complex], node: NodeState) -> WalkerState:
    """Tensor a coin state with a node state: amplitude(d, x) = coin[d] * a_x.

    The coin dimension must equal the node register's qubit count (the walk
    always has one direction per node qubit).
    """
    coin = np.asarray(coin, dtype=np.complex128).ravel()
    if coin.shape[0] != node.n:
        raise ValueError(
            f"coin dimension {coin.shape[0]} does not match node n={node.n}"
        )
    amps = np.outer(coin, node.amplitudes).ravel()
    return WalkerState(node.n, node.dim, amps)


def evolve(state: WalkerState, spec: WalkSpec, plan: IterationPlan) -> WalkerState:
    """Run the walk for the plan's step budget.

    Plain variant: tau applications of V = S C. Optimized variant: each
    application of V_opt = S (C0 x I) S C consumes two of the tau budgeted
    shift rounds, so floor(tau/2) applications are performed; an odd
    leftover round cannot form a complete query block and is dropped.

    Norm is checked against CONSERVATION_TOL after every step.
    """
    if (state.n, state.node_count) != (spec.n, spec.node_count):
        raise ValueError(f"state ({state.n}, {state.node_count}) does not match "
                         f"spec ({spec.n}, {spec.node_count})")
    index = _shift_index(spec.n, spec.node_count)
    grid = state.grid()
    steps = plan.tau if spec.variant == SKW else plan.tau // 2
    for _ in range(steps):
        grid = _shift(_marked_coin(grid, spec.target), index)
        if spec.variant == OSKW:
            grid = _shift(_grover(grid), index)
        _check_norm(grid)
    return WalkerState(spec.n, spec.node_count, grid.ravel())


def success_probability(state: WalkerState, target: int,
                        metric: str = "vertex") -> float:
    """Probability of reading the marked vertex off the final walker.

    metric="vertex" sums |amplitude|^2 over the coin at the target column
    (measure the node register). metric="gamma" instead projects onto the
    uniform-coin target state; it lower-bounds the vertex reading.
    """
    if not 0 <= target < state.node_count:
        raise ValueError(f"target {target} out of range")
    col = state.grid()[:, target]
    if metric == "vertex":
        return float(np.sum(np.abs(col) ** 2))
    if metric == "gamma":
        return float(abs(np.sum(col)) ** 2 / state.n)
    raise ValueError(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# dense operators

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


def build_dense_evolution(spec: WalkSpec) -> DenseOperator:
    """Explicit matrix of one evolution application (V, or the two-shift V_opt).

    Flat basis index is d * node_count + x, matching the walker layout.
    Guarded by DENSE_GUARD_N.
    """
    if spec.n > DENSE_GUARD_N:
        raise ValueError(
            f"dense build at n={spec.n} exceeds guard n <= {DENSE_GUARD_N}"
        )
    return _dense_evolution(spec)


def _dense_evolution(spec: WalkSpec) -> DenseOperator:
    n, N = spec.n, spec.node_count
    # the coins are built here on purpose: the dense route borrows no kernels
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
    if err > UNITARY_TOL:
        raise InvariantViolation("dense evolution unitarity", f"deviation {err}")
    return DenseOperator(dim=dim, entries=V)


def evolve_dense(state: WalkerState, spec: WalkSpec,
                 plan: IterationPlan) -> WalkerState:
    """Apply the dense evolution matrix under the same step-budget convention.

    Plain variant: tau applications; two-shift variant: floor(tau/2).
    """
    op = build_dense_evolution(spec)
    v = state.amplitudes.copy()
    steps = plan.tau if spec.variant == SKW else plan.tau // 2
    for _ in range(steps):
        v = op.entries @ v
    return WalkerState(spec.n, spec.node_count, v)


def xor_covariance_deviation(n: int, shift: int, target: int,
                             variant: str = SKW) -> float:
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
    spec_a = WalkSpec(n=n, node_count=N, target=target, variant=variant)
    spec_b = WalkSpec(n=n, node_count=N, target=target ^ shift, variant=variant)
    Va = _dense_evolution(spec_a).entries
    Vb = _dense_evolution(spec_b).entries
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


def enumerate_pauli_layers(state: NodeState) -> Tuple[LocalLayer, float]:
    """Exhaustive max of |<0...0| (x)V_j |psi>|^2 over all 3^n Pauli layers.

    Evaluated as a three-way contraction tree over qubits, O(3^n) overall,
    guarded by PAULI_GUARD_N. The first maximal layer in X, Y, Z
    order is returned; the value always equals max_i |a_i|^2 because X and
    Y flip a qubit while Z does not, so every bit pattern is reachable.
    """
    n = state.n
    if n > PAULI_GUARD_N:
        raise ValueError(
            f"3^{n} layer enumeration exceeds guard n <= {PAULI_GUARD_N}"
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


def grid_product_overlap(state: NodeState, angular_resolution: int) -> float:
    """Max |<product|psi>|^2 over the per-qubit Bloch-angle grid.

    A certified lower bound on the true product overlap, converging as the
    grid is refined. Guarded to n <= GRID_GUARD_N and
    angular_resolution <= GRID_GUARD_RESOLUTION.
    """
    n = state.n
    if n > GRID_GUARD_N:
        raise ValueError(f"grid search at n={n} exceeds guard n <= {GRID_GUARD_N}")
    if not 1 <= angular_resolution <= GRID_GUARD_RESOLUTION:
        raise ValueError(
            f"resolution {angular_resolution} outside 1..{GRID_GUARD_RESOLUTION}"
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

def verify_theorem_identities(n: int, trials: int,
                              seed: int = 0) -> Dict[str, object]:
    """Check the two exact inner reductions on seeded random states.

    (a) the best-local-layer overlap equals 1 - E_g^2 within 1e-8;
    (b) the exhaustive Pauli-layer value equals max_i |a_i|^2 within 1e-12.
    Returns pass counts and worst deviations.
    """
    if n > IDENTITY_CHECK_GUARD_N:
        raise ValueError(
            f"identity check at n={n} exceeds guard n <= {IDENTITY_CHECK_GUARD_N}"
        )
    layer_tol, pauli_tol = 1e-8, 1e-12
    layer_passes = pauli_passes = 0
    worst_layer = worst_pauli = 0.0
    for k in range(trials):
        psi = make_random_node_state(n, seed + k)
        _, achieved, report = optimize_local_layer_detailed(psi, seed=seed + k)
        dev_a = abs(achieved - (1.0 - report.E_g ** 2))
        _, pauli_val = enumerate_pauli_layers(psi)
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


# ---------------------------------------------------------------------------
# the verify suite

def oracle_suite(max_n: int, trials: int,
                 seed: int) -> List[Tuple[str, bool, str]]:
    """(name, passed, detail) of each check up to max_n or its own size guard."""
    checks: List[Tuple[str, bool, str]] = []
    for n in range(2, min(max_n, IDENTITY_CHECK_GUARD_N) + 1):
        res = verify_theorem_identities(n, trials=trials, seed=seed)
        checks.append((f"measure identities n={n}", bool(res["all_passed"]),
                       f"worst layer dev {res['worst_layer_dev']:.3g}, "
                       f"worst enumeration dev {res['worst_pauli_dev']:.3g}"))

    for n in range(2, min(max_n, DENSE_GUARD_N) + 1):
        for variant, target in ((SKW, 1), (OSKW, 3)):
            spec = WalkSpec(n=n, node_count=1 << n, target=target, variant=variant)
            plan = IterationPlan.explicit(min(20, 4 * n))
            start = compose_walker(uniform_coin(n), make_random_node_state(n, seed))
            free = evolve(start, spec, plan)
            dense = evolve_dense(start, spec, plan)
            dev = float(np.max(np.abs(free.amplitudes - dense.amplitudes)))
            checks.append((f"dense agreement n={n} {variant}", dev <= 1e-12,
                           f"max amplitude dev {dev:.3g}"))
        # the production p_avg against the mean of one forward walk per target
        plan, devs = IterationPlan.explicit(2 * n + 1), []
        for prepare, walk in ((prepare_skw1, SKW), (prepare_oskw1, OSKW))[:1 + (n >= 3)]:
            row = prepare(make_random_node_state(n, seed))
            start = compose_walker(uniform_coin(n), row.walked)
            finals = [(t, evolve(start, WalkSpec(n, 1 << n, t, walk), plan))
                      for t in range(1 << n) if walk == SKW or t.bit_count() % 2 == 0]
            devs += [abs(walk_rows([row], plan, metric)[0].p_avg - math.fsum(
                success_probability(w, t, metric) for t, w in finals) / len(finals))
                for metric in ("vertex", "gamma")]
        checks.append((f"p_avg route n={n}", max(devs) <= 1e-12,
                       f"max dev {max(devs):.3g} over {len(devs)} walk/metric pairs"))

    for n in range(2, min(max_n, 6) + 1):
        dev_s = xor_covariance_deviation(n, shift=(1 << n) - 1, target=0,
                                         variant=SKW)
        ok = dev_s <= 1e-12
        detail = f"plain dev {dev_s:.3g}"
        if n >= 3:
            dev_o = xor_covariance_deviation(n, shift=3, target=0, variant=OSKW)
            ok = ok and dev_o <= 1e-12
            detail += f", two-shift dev {dev_o:.3g}"
        checks.append((f"xor covariance n={n}", ok, detail))
    return checks
