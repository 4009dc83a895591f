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
every target: the target average is a quadratic form in the start state's
Walsh spectrum with state-independent weights (`walsh_weights`). The
forward walk for one marked vertex, `oracle.evolve`, is the reference.
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
    def skw_optimal(cls, n: int) -> "IterationPlan":
        """tau = round((pi/2) sqrt(2**(n-1))) for the plain walk on n directions."""
        return cls(round((math.pi / 2.0) * math.sqrt(2.0 ** (n - 1))))

    @classmethod
    def oskw_optimal(cls, node_count: int) -> "IterationPlan":
        """tau = round((pi/(2 sqrt 2)) sqrt(node_count)) shift rounds."""
        return cls(round((math.pi / (2.0 * math.sqrt(2.0))) * math.sqrt(node_count)))


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


def walsh_weights(n: int, plan: IterationPlan, walk: str,
                  metric: str) -> Tuple[np.ndarray, np.ndarray]:
    """State-independent weights (A, B) of the target-averaged success rate.

    From the uniform coin (x) psi, as in `oracle.evolve`, the amplitude at
    (d, t) with the mark at t is the XOR convolution H(H K_d . H psi) / N.
    By Parseval its mean over all t is sum_s A(s) |psi^(s)|^2, psi^ = H psi /
    sqrt(N), A(s) = sum_d (H K_d(s))^2 / N. Over the two-shift walk's even
    targets, s pairs with s~ = s XOR 1...1: X(s) = Re psi^(s) conj psi^(s~)
    adds with B(s) = sum_d H K_d(s) H K_d(s~) / N; B = 0 for the plain walk.
    The gamma metric reads the one kernel sum_d K_d / sqrt(n). A(s) is a Walsh
    mode's average and A(s) + B(s) an even pair's, so both lie in [0, 1]."""
    if metric not in ("vertex", "gamma"):
        raise ValueError(f"unknown metric {metric!r}")
    spec = WalkSpec(n=n, node_count=1 << n, target=0, variant=walk)
    kernels = _adjoint_kernels(spec, plan)
    if metric == "gamma":
        kernels = kernels.sum(axis=0, keepdims=True) / math.sqrt(n)
    spectrum = _fwht(kernels)
    A = np.sum(spectrum ** 2, axis=0) / spec.node_count
    B = (np.sum(spectrum * spectrum[:, ::-1], axis=0) / spec.node_count
         if walk == OSKW else np.zeros_like(A))
    for name, w in (("A", A), ("A + B", A + B)):
        if not (-STRICT_TOL <= w.min() and w.max() <= 1.0 + STRICT_TOL):
            raise InvariantViolation("probability range",
                                     f"{name} spans [{w.min()!r}, {w.max()!r}]")
    return A, B


def walsh_average(weights: Tuple[np.ndarray, np.ndarray], state: NodeState) -> float:
    """sum_s A(s) |psi^(s)|^2 + B(s) X(s) over the state's Walsh spectrum: one FWHT."""
    A, B = weights
    hat = _fwht(state.amplitudes) / math.sqrt(state.dim)
    return float(A @ (hat.real ** 2 + hat.imag ** 2) + B @ (hat * hat[::-1].conj()).real)


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
