"""Matrix-free walk operators on the hypercube.

The walker lives on coin (x) node with one direction per node qubit. One
plain step is V = S C with S the direction-conditioned XOR shift and C the
perturbed coin (C0 everywhere, C1 at the marked vertex). The optimized
variant interleaves an unmarked step after each marked one,
V_opt = S (C0 x I) S C, so a single application consumes two shift rounds.

C0 is the Grover coin (2/n)J - I and C1 = -I, the fixed coins of the
Shenvi-Kempe-Whaley search. No operator matrix is ever formed: the shift
is a gather and C0 is twice the column mean minus the column.

Relabeling vertices by x -> x XOR t commutes with S and C0 and moves the
mark from 0 to t, so one set of adjoint kernels with the mark at 0 serves
every target: the target average is sum_s W(s) |psi^(s)|^2 over the start
state's Walsh spectrum, with a state-independent weight W (`walsh_weights`).
The forward walk for one marked vertex, `oracle.evolve`, is the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .config import (CONSERVATION_TOL, STRICT_TOL, WALK_GUARD_N,
                     InvariantViolation)
from .states import NodeState, even_parity_mask

SKW = "skw"
OSKW = "oskw"


@dataclass(frozen=True)
class WalkSpec:
    """Which walk to run: dimensions, marked vertex and variant.

    `n` is the direction count and the walk hypercube dimension, so
    node_count must equal 2**n. Optimized-variant callers build the spec
    one dimension above their search problem.
    """

    n: int
    node_count: int
    target: int
    variant: str = SKW

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"walk needs n >= 2 directions, got {self.n}")
        if self.n > WALK_GUARD_N:
            raise ValueError(f"walk size guard: n={self.n} directions exceeds "
                             f"{WALK_GUARD_N}")
        if self.node_count != 1 << self.n:
            raise ValueError(
                f"node_count {self.node_count} != 2**n for n={self.n} directions"
            )
        if not 0 <= self.target < self.node_count:
            raise ValueError(f"target {self.target} out of range")
        if self.variant not in (SKW, OSKW):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == OSKW and (int(self.target).bit_count() & 1):
            raise ValueError(
                f"optimized walk needs an even-Hamming-weight target, got {self.target:#b}"
            )


@dataclass(frozen=True)
class IterationPlan:
    """Step budget tau, counted in shift rounds."""

    tau: int

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")

    @classmethod
    def explicit(cls, tau: int) -> "IterationPlan":
        return cls(tau)

    @classmethod
    def optimal(cls, n: int) -> "IterationPlan":
        """tau = round((pi/2) sqrt(2**(n-1))) shift rounds on n directions: the
        plain walk's step count, and the two-shift walk's on 2**n vertices."""
        return cls(round((math.pi / 2.0) * math.sqrt(2.0 ** (n - 1))))


# ---------------------------------------------------------------------------
# grid-level kernels on the (n, node_count) walker array

def _shift_index(n: int, node_count: int) -> np.ndarray:
    """Flat source of each (d, x) after the shift: d * node_count + (x ^ 2^d)."""
    x = np.arange(node_count)
    return np.array([d * node_count + (x ^ (1 << d)) for d in range(n)])


def _grover(grid: np.ndarray) -> np.ndarray:
    """C0 = (2/n)J - I on every column: twice the column mean minus the column."""
    return (2.0 / grid.shape[0]) * grid.sum(axis=0) - grid


def _marked_coin(grid: np.ndarray, target: int) -> np.ndarray:
    """C0 everywhere except C1 = -I on the target column."""
    out = _grover(grid)
    out[:, target] = -grid[:, target]
    return out


def _shift(grid: np.ndarray, index: np.ndarray) -> np.ndarray:
    return grid.ravel()[index]


def _check_norm(grid: np.ndarray) -> None:
    # squares of the float view, summed without a BLAS call (unlike vdot)
    total = float(np.square(grid.view(np.float64)).sum())
    if abs(total - 1.0) > CONSERVATION_TOL:
        raise InvariantViolation(
            "walker norm conservation", f"total probability {total!r}"
        )


def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis; H H = N I."""
    lead, N = a.shape[:-1], a.shape[-1]
    h = 1
    while h < N:
        pairs = a.reshape(*lead, N // (2 * h), 2, h)
        lo, hi = pairs[..., 0, :], pairs[..., 1, :]
        a = np.stack((lo + hi, lo - hi), axis=-2)
        h *= 2
    return a.reshape(*lead, N)


def _adjoint_kernels(spec: WalkSpec, plan: IterationPlan) -> np.ndarray:
    """K[d] = uniform coin . (V^dagger)^steps |d, mark>, shape (n, node_count), real.

    Every operator of the step is real and symmetric, so the adjoint of
    V = S C is C S and that of V_opt = S C0 S C is C S C0 S. The walks run
    one direction at a time on a real grid, with the norm checked after
    every adjoint step.
    """
    n, N = spec.n, spec.node_count
    index = _shift_index(n, N)
    steps = plan.tau if spec.variant == SKW else plan.tau // 2
    kernels = np.empty((n, N))
    for d in range(n):
        grid = np.zeros((n, N))
        grid[d, spec.target] = 1.0
        for _ in range(steps):
            grid = _shift(grid, index)
            if spec.variant == OSKW:
                grid = _shift(_grover(grid), index)
            grid = _marked_coin(grid, spec.target)
            _check_norm(grid)
        kernels[d] = grid.sum(axis=0) / math.sqrt(n)
    return kernels


def walsh_weights(n: int, plan: IterationPlan, walk: str, metric: str) -> np.ndarray:
    """State-independent weight W of the target-averaged success rate.

    From the uniform coin (x) psi, as in `oracle.evolve`, the amplitude at
    (d, t) with the mark at t is the XOR convolution H(H K_d . H psi) / N.
    By Parseval its mean over all t is sum_s A(s) |psi^(s)|^2, psi^ = H psi /
    sqrt(N), A(s) = sum_d (H K_d(s))^2 / N: W = A for the plain walk. The
    two-shift walk keeps parity, so its kernels live on even vertices and
    H K_d(s~) = H K_d(s), s~ = s XOR 1...1: the pair weight of s and s~ is
    A(s) itself, and W = 2A weighs an even mode pair (`walsh_average`). The
    gamma metric reads the one kernel sum_d K_d / sqrt(n). W is a Walsh mode's
    or an even pair's average, so it lies in [0, 1]."""
    if metric not in ("vertex", "gamma"):
        raise ValueError(f"unknown metric {metric!r}")
    spec = WalkSpec(n=n, node_count=1 << n, target=0, variant=walk)
    kernels = _adjoint_kernels(spec, plan)
    if metric == "gamma":
        kernels = kernels.sum(axis=0, keepdims=True) / math.sqrt(n)
    W = np.sum(_fwht(kernels) ** 2, axis=0) / spec.node_count
    if walk == OSKW:
        W = 2.0 * W
    if not (-STRICT_TOL <= W.min() and W.max() <= 1.0 + STRICT_TOL):
        raise InvariantViolation("probability range",
                                 f"W spans [{W.min()!r}, {W.max()!r}]")
    return W


def walsh_average(W: np.ndarray, state: NodeState, walk: str) -> float:
    """sum_s W(s) |psi^(s)|^2 over the state's Walsh spectrum: one FWHT. The
    two-shift walk averages over even targets, which read the even part of
    the state, psi^ -> (psi^(s) + psi^(s~)) / 2; on even support that is psi^."""
    hat = _fwht(state.amplitudes) / math.sqrt(state.dim)
    if walk == OSKW:
        hat = (hat + hat[::-1]) / 2.0
    return float(W @ (hat.real ** 2 + hat.imag ** 2))


def project_even_parity(state: NodeState) -> Tuple[NodeState, float]:
    """Project onto even-Hamming-weight vertices and renormalize.

    Returns the projected state and the discarded probability weight.
    Raises if the state has no even-parity support.
    """
    kept = np.where(even_parity_mask(state.n), state.amplitudes, 0.0)
    kept_weight = float(np.sum(np.abs(kept) ** 2))
    leaked = 1.0 - kept_weight
    if kept_weight <= STRICT_TOL:
        raise ValueError("state has no even-parity weight to project onto")
    projected = NodeState(state.n, kept / math.sqrt(kept_weight))
    return projected, max(leaked, 0.0)
