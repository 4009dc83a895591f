"""Node states, mixed ensembles, and walker states for the hypercube walk.

Bit convention used everywhere: a vertex x is an n-bit integer, qubit j is
bit j with bit 0 least significant, and direction d flips bit d. A flat
walker index is d * node_count + x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from .config import DEFAULT, InvariantViolation, NumericsConfig

if TYPE_CHECKING:
    from .measures import LocalLayer


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class NodeState:
    """A pure state of the n-qubit node register.

    Parameters
    ----------
    n : int
        Qubit count, at least 2.
    amplitudes : array_like
        Exactly 2**n complex amplitudes a_x with unit total probability.
    """

    n: int
    amplitudes: np.ndarray
    config: NumericsConfig = field(default=DEFAULT, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"node register needs n >= 2 qubits, got n={self.n}")
        amps = _frozen(np.asarray(self.amplitudes).ravel())
        if amps.shape[0] != 1 << self.n:
            raise ValueError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got {amps.shape[0]}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > self.config.norm_tol:
            raise ValueError(f"state not normalized: sum |a_x|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class MixedEnsemble:
    """A classical mixture sum_mu p_mu |psi_mu><psi_mu| of node states."""

    members: tuple  # of (weight, NodeState)
    config: NumericsConfig = field(default=DEFAULT, repr=False, compare=False)

    def __post_init__(self):
        members = tuple((float(p), s) for p, s in self.members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        ns = {s.n for _, s in members}
        if len(ns) != 1:
            raise ValueError(f"ensemble members disagree on n: {sorted(ns)}")
        if any(p < 0 for p, _ in members):
            raise ValueError("ensemble weights must be non-negative")
        total = sum(p for p, _ in members)
        if abs(total - 1.0) > self.config.strict_tol:
            raise ValueError(f"ensemble weights sum to {total!r}, not 1")
        object.__setattr__(self, "members", members)

    @property
    def n(self) -> int:
        return self.members[0][1].n


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
    config: NumericsConfig = field(default=DEFAULT, repr=False, compare=False)

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes).ravel())
        if amps.shape[0] != self.n * self.node_count:
            raise ValueError(
                f"expected {self.n * self.node_count} amplitudes, got {amps.shape[0]}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > self.config.norm_tol:
            raise ValueError(f"walker not normalized: total = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)

    def grid(self) -> np.ndarray:
        """Read-only (n, node_count) view."""
        return self.amplitudes.reshape(self.n, self.node_count)


StateLike = Union[NodeState, MixedEnsemble]


# ---------------------------------------------------------------------------
# constructors

def make_uniform_node_state(n: int, config: NumericsConfig = DEFAULT) -> NodeState:
    """The maximal coherent state: every amplitude 1/sqrt(2**n)."""
    if n < 2:
        raise ValueError(f"hypercube walk needs n >= 2, got n={n}")
    N = 1 << n
    return NodeState(n, np.full(N, 1.0 / math.sqrt(N), dtype=np.complex128), config)


def make_basis_node_state(n: int, i: int, config: NumericsConfig = DEFAULT) -> NodeState:
    if not 0 <= i < (1 << n):
        raise ValueError(f"vertex index {i} out of range for n={n}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[i] = 1.0
    return NodeState(n, amps, config)


def make_random_node_state(n: int, seed: int, config: NumericsConfig = DEFAULT) -> NodeState:
    """Haar-random pure state: 2**n standard complex Gaussians, normalized.

    Deterministic given (n, seed).
    """
    rng = np.random.default_rng(seed)
    N = 1 << n
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return NodeState(n, v / np.linalg.norm(v), config)


def make_even_uniform_node_state(n: int, config: NumericsConfig = DEFAULT) -> NodeState:
    """Equal superposition over the even-Hamming-weight vertices."""
    N = 1 << n
    parity = np.bitwise_count(np.arange(N)) & 1
    amps = np.where(parity == 0, 1.0, 0.0).astype(np.complex128)
    return NodeState(n, amps / np.linalg.norm(amps), config)


def make_ghz_node_state(n: int, alpha: float = math.pi / 4,
                        config: NumericsConfig = DEFAULT) -> NodeState:
    """cos(alpha)|0...0> + sin(alpha)|1...1>."""
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = math.cos(alpha)
    amps[-1] = math.sin(alpha)
    return NodeState(n, amps, config)


def make_w_node_state(n: int, config: NumericsConfig = DEFAULT) -> NodeState:
    """Equal superposition of the n single-excitation basis vertices."""
    amps = np.zeros(1 << n, dtype=np.complex128)
    for j in range(n):
        amps[1 << j] = 1.0
    return NodeState(n, amps / math.sqrt(n), config)


def make_interpolated_node_state(n: int, t: float,
                                 config: NumericsConfig = DEFAULT) -> NodeState:
    """Normalized t*uniform + (1-t)*basis(0), sweeping the coherence fraction."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"interpolation parameter t={t} outside [0, 1]")
    u = make_uniform_node_state(n, config).amplitudes
    e0 = np.zeros_like(u)
    e0[0] = 1.0
    v = t * u + (1.0 - t) * e0
    return NodeState(n, v / np.linalg.norm(v), config)


def make_tilted_node_state(n: int, s: float, config: NumericsConfig = DEFAULT) -> NodeState:
    """sqrt(s)|0> + sqrt((1-s)/(N-1)) on the rest; max |a_x|^2 = s for s >= 1/N."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"tilt parameter s={s} outside [0, 1]")
    N = 1 << n
    amps = np.full(N, math.sqrt((1.0 - s) / (N - 1)), dtype=np.complex128)
    amps[0] = math.sqrt(s)
    return NodeState(n, amps, config)


def uniform_coin(n: int) -> np.ndarray:
    """The equal-superposition coin state over n directions."""
    if n < 2:
        raise ValueError(f"coin needs n >= 2 directions, got {n}")
    return np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)


# ---------------------------------------------------------------------------
# operations

def compose_walker(coin: Sequence[complex], node: NodeState,
                   config: NumericsConfig = DEFAULT) -> WalkerState:
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
    return WalkerState(node.n, node.dim, amps, config)


def overlap(a: NodeState, b: NodeState) -> complex:
    """<a|b> = sum_x conj(a_x) b_x."""
    if a.n != b.n:
        raise ValueError(f"overlap of states with different n: {a.n} vs {b.n}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def apply_local_layer(state: NodeState, layer: "LocalLayer",
                      config: NumericsConfig = DEFAULT) -> NodeState:
    """Apply a product of single-qubit unitaries U_1 x ... x U_n to the state.

    Factor j acts on qubit j (bit j of the vertex index). Implemented as
    per-qubit tensor sweeps, no 2^n x 2^n matrix is formed.
    """
    factors = layer.factors
    if len(factors) != state.n:
        raise ValueError(
            f"layer has {len(factors)} factors for an n={state.n} state"
        )
    n = state.n
    # reshape to one axis per qubit; axis a holds qubit n-1-a (C order)
    tensor = state.amplitudes.reshape((2,) * n)
    for j, U in enumerate(factors):
        axis = n - 1 - j
        tensor = np.moveaxis(np.tensordot(U, tensor, axes=([1], [axis])), 0, axis)
    out = tensor.ravel()
    nrm = float(np.linalg.norm(out))
    if abs(nrm - 1.0) > config.unitary_tol * (n + 1):
        raise InvariantViolation("layer norm preservation", f"norm {nrm!r}")
    return NodeState(state.n, out, config)
