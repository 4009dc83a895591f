"""Matrix-free walk operators on the hypercube.

The walker lives on coin (x) node with one direction per node qubit. One
plain step is V = S C with S the direction-conditioned XOR shift and C the
perturbed coin (C0 everywhere, C1 at the marked vertex). The optimized
variant interleaves an unmarked step after each marked one,
V_opt = S (C0 x I) S C, so a single application consumes two shift rounds.

C0 is the Grover coin (2/n)J - I and C1 = -I, the fixed coins of the
Shenvi-Kempe-Whaley search. No operator matrix is ever formed: the shift
is a gather and C0 is twice the column mean minus the column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .config import DEFAULT, InvariantViolation, NumericsConfig
from .states import NodeState, WalkerState

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
    """Step budget tau and the rule that produced it.

    tau counts shift rounds. tau_real keeps the unrounded formula value so
    reports can show both.
    """

    tau: int
    tau_rule: str = "explicit"
    tau_real: Optional[float] = None

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")
        if self.tau_rule not in ("explicit", "skw_optimal", "oskw_optimal"):
            raise ValueError(f"unknown tau rule {self.tau_rule!r}")

    @classmethod
    def explicit(cls, tau: int) -> "IterationPlan":
        return cls(tau=tau, tau_rule="explicit")

    @classmethod
    def skw_optimal(cls, n: int) -> "IterationPlan":
        """tau = round((pi/2) sqrt(2**(n-1))) for the plain walk on n directions."""
        real = (math.pi / 2.0) * math.sqrt(2.0 ** (n - 1))
        return cls(tau=round(real), tau_rule="skw_optimal", tau_real=real)

    @classmethod
    def oskw_optimal(cls, node_count: int) -> "IterationPlan":
        """tau = round((pi/(2 sqrt 2)) sqrt(node_count)) shift rounds."""
        real = (math.pi / (2.0 * math.sqrt(2.0))) * math.sqrt(node_count)
        return cls(tau=round(real), tau_rule="oskw_optimal", tau_real=real)


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


# ---------------------------------------------------------------------------
# elementary operators

def apply_shift(state: WalkerState) -> WalkerState:
    """Move amplitude (d, x) to (d, x XOR (1 << d)); an exact permutation."""
    out = _shift(state.grid(), _shift_index(state.n, state.node_count))
    return WalkerState(state.n, state.node_count, out.ravel(), state.config)


def apply_perturbed_coin(state: WalkerState, spec: WalkSpec) -> WalkerState:
    """Grover coin on each vertex's coin vector, -I at the target."""
    _check_dims(state, spec)
    out = _marked_coin(state.grid(), spec.target)
    return WalkerState(state.n, state.node_count, out.ravel(), state.config)


def _check_dims(state: WalkerState, spec: WalkSpec) -> None:
    if state.n != spec.n or state.node_count != spec.node_count:
        raise ValueError(
            f"state ({state.n}, {state.node_count}) does not match "
            f"spec ({spec.n}, {spec.node_count})"
        )


# ---------------------------------------------------------------------------
# evolution

def evolve(state: WalkerState, spec: WalkSpec, plan: IterationPlan,
           config: NumericsConfig = DEFAULT) -> WalkerState:
    """Run the walk for the plan's step budget.

    Plain variant: tau applications of V = S C. Optimized variant: each
    application of V_opt = S (C0 x I) S C consumes two of the tau budgeted
    shift rounds, so floor(tau/2) applications are performed; an odd
    leftover round cannot form a complete query block and is dropped.

    Norm is checked against config.conservation_tol after every step.
    """
    _check_dims(state, spec)
    index = _shift_index(spec.n, spec.node_count)
    grid = state.grid()
    steps = plan.tau if spec.variant == SKW else plan.tau // 2
    for _ in range(steps):
        grid = _shift(_marked_coin(grid, spec.target), index)
        if spec.variant == OSKW:
            grid = _shift(_grover(grid), index)
        # squares of the float view, summed without a BLAS call (unlike vdot)
        total = float(np.square(grid.view(np.float64)).sum())
        if abs(total - 1.0) > config.conservation_tol:
            raise InvariantViolation(
                "walker norm conservation", f"total probability {total!r}"
            )
    return WalkerState(spec.n, spec.node_count, grid.ravel(), config)


def project_even_parity(state: NodeState,
                        config: NumericsConfig = DEFAULT) -> Tuple[NodeState, float]:
    """Project onto even-Hamming-weight vertices and renormalize.

    Returns the projected state and the discarded probability weight.
    Raises if the state has no even-parity support.
    """
    parity = np.bitwise_count(np.arange(state.dim)) & 1
    kept = np.where(parity == 0, state.amplitudes, 0.0)
    kept_weight = float(np.sum(np.abs(kept) ** 2))
    leaked = 1.0 - kept_weight
    if kept_weight <= config.strict_tol:
        raise ValueError("state has no even-parity weight to project onto")
    projected = NodeState(state.n, kept / math.sqrt(kept_weight), config)
    return projected, max(leaked, 0.0)


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
