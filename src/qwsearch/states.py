"""Node states, mixed ensembles and `FAMILIES`, the registry of each state
family's constructor, alias and parameters (type, default and range).

Bit convention used everywhere: a vertex x is an n-bit integer, qubit j is
bit j with bit 0 least significant, and direction d flips bit d. A flat
walker index is d * node_count + x.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from .config import NORM_TOL, STRICT_TOL, UNITARY_TOL, InvariantViolation

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

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"node register needs n >= 2 qubits, got n={self.n}")
        amps = _frozen(np.asarray(self.amplitudes).ravel())
        if amps.shape[0] != 1 << self.n:
            raise ValueError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got {amps.shape[0]}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:   # NaN fails too
            raise ValueError(f"state not normalized: sum |a_x|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class MixedEnsemble:
    """A classical mixture sum_mu p_mu |psi_mu><psi_mu| of node states."""

    members: tuple  # of (weight, NodeState)

    def __post_init__(self):
        members = tuple((float(p), s) for p, s in self.members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        ns = {s.n for _, s in members}
        if len(ns) != 1:
            raise ValueError(f"ensemble members disagree on n: {sorted(ns)}")
        if not all(p >= 0 for p, _ in members):   # NaN fails too
            raise ValueError("ensemble weights must be non-negative")
        total = sum(p for p, _ in members)
        if not abs(total - 1.0) <= STRICT_TOL:
            raise ValueError(f"ensemble weights sum to {total!r}, not 1")
        object.__setattr__(self, "members", members)

    @property
    def n(self) -> int:
        return self.members[0][1].n


StateLike = Union[NodeState, MixedEnsemble]


# ---------------------------------------------------------------------------
# constructors and their registry

def make_uniform_node_state(n: int) -> NodeState:
    """The maximal coherent state: every amplitude 1/sqrt(2**n)."""
    if n < 2:
        raise ValueError(f"hypercube walk needs n >= 2, got n={n}")
    N = 1 << n
    return NodeState(n, np.full(N, 1.0 / math.sqrt(N), dtype=np.complex128))


def make_basis_node_state(n: int, i: int) -> NodeState:
    if not 0 <= i < (1 << n):
        raise ValueError(f"vertex index {i} out of range for n={n}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[i] = 1.0
    return NodeState(n, amps)


def make_random_node_state(n: int, seed: int) -> NodeState:
    """Haar-random pure state: 2**n standard complex Gaussians, normalized.

    Deterministic given (n, seed).
    """
    rng = np.random.default_rng(seed)
    N = 1 << n
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return NodeState(n, v / np.linalg.norm(v))


def even_parity_mask(n: int) -> np.ndarray:
    """Boolean mask over the 2**n vertices, True where the Hamming weight is even."""
    even = np.ones(1, dtype=bool)
    for _ in range(n):   # x + 2^k has the parity of x flipped, for x < 2^k
        even = np.concatenate((even, ~even))
    return even


def make_even_uniform_node_state(n: int) -> NodeState:
    """Equal superposition over the even-Hamming-weight vertices."""
    amps = even_parity_mask(n).astype(np.complex128)
    return NodeState(n, amps / np.linalg.norm(amps))


def make_ghz_node_state(n: int, alpha: float = math.pi / 4) -> NodeState:
    """cos(alpha)|0...0> + sin(alpha)|1...1>."""
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = math.cos(alpha)
    amps[-1] = math.sin(alpha)
    return NodeState(n, amps)


def make_w_node_state(n: int) -> NodeState:
    """Equal superposition of the n single-excitation basis vertices."""
    amps = np.zeros(1 << n, dtype=np.complex128)
    for j in range(n):
        amps[1 << j] = 1.0
    return NodeState(n, amps / math.sqrt(n))


def make_interpolated_node_state(n: int, t: float) -> NodeState:
    """Normalized t*uniform + (1-t)*basis(0), sweeping the coherence fraction."""
    check_range("interpolated", "t", t)
    u = make_uniform_node_state(n).amplitudes
    e0 = np.zeros_like(u)
    e0[0] = 1.0
    v = t * u + (1.0 - t) * e0
    return NodeState(n, v / np.linalg.norm(v))


def make_tilted_node_state(n: int, s: float) -> NodeState:
    """sqrt(s)|0> + sqrt((1-s)/(N-1)) on the rest; max |a_x|^2 = s for s >= 1/N."""
    check_range("tilted", "s", s)
    N = 1 << n
    amps = np.full(N, math.sqrt((1.0 - s) / (N - 1)), dtype=np.complex128)
    amps[0] = math.sqrt(s)
    return NodeState(n, amps)


def make_explicit_node_state(amps: str) -> NodeState:
    """Comma-separated complex amplitudes, normalized; n is log2 of their count."""
    vec = np.array([complex(a) for a in amps.split(",")])
    if vec.size < 4 or vec.size & (vec.size - 1):
        raise ValueError("explicit amplitudes need a power-of-two "
                         f"length >= 4, got {vec.size}")
    if not np.isfinite(vec).all():
        raise ValueError(f"explicit amplitudes must be finite, got {amps!r}")
    norm = float(np.linalg.norm(vec))
    if norm <= 0:
        raise ValueError("explicit amplitudes are all zero")
    return NodeState(int(vec.size).bit_length() - 1, vec / norm)


REQUIRED = object()    # a parameter without a default
ROW_SEED = object()    # a parameter that defaults to the row's seed


class Param(NamedTuple):
    """A constructor parameter's type, default and, when bounded, range."""

    type: type                                          # int, float or str
    default: object = REQUIRED                          # or ROW_SEED, or a value
    range: Optional[Tuple[str, float, float]] = None    # (its name, low, high)


class Family(NamedTuple):
    make: Optional[Callable[..., NodeState]]    # None: built from members
    params: Mapping[str, Param]                 # in constructor order
    alias: Optional[str] = None


_N = Param(int)
FAMILIES = {
    "uniform": Family(make_uniform_node_state, {"n": _N}),
    "basis": Family(make_basis_node_state, {"n": _N, "i": Param(int, 0)}),
    "haar_random": Family(make_random_node_state,
                          {"n": _N, "seed": Param(int, ROW_SEED)}, "haar"),
    "interpolated": Family(make_interpolated_node_state, {
        "n": _N, "t": Param(float, 1.0, ("interpolation parameter", 0.0, 1.0))}),
    "ghz": Family(make_ghz_node_state, {"n": _N, "alpha": Param(
        float, inspect.signature(make_ghz_node_state).parameters["alpha"].default)}),
    "w": Family(make_w_node_state, {"n": _N}),
    "tilted": Family(make_tilted_node_state, {
        "n": _N, "s": Param(float, 1.0, ("tilt parameter", 0.0, 1.0))}),
    "even_uniform": Family(make_even_uniform_node_state, {"n": _N}),
    "explicit_amplitudes": Family(make_explicit_node_state, {"amps": Param(str)},
                                  "explicit"),
    "mixed_ensemble": Family(None, {}, "mixed"),
}
FAMILY_NAMES = {**{f.alias: name for name, f in FAMILIES.items() if f.alias},
                **{name: name for name in FAMILIES}}


def check_range(family: str, name: str, value) -> None:
    """Refuse a value outside its parameter's registered range (NaN too)."""
    bounds = FAMILIES[family].params[name].range
    if bounds is not None:
        what, low, high = bounds
        if not low <= value <= high:
            raise ValueError(f"{what} {name}={value} outside [{low:g}, {high:g}]")


# ---------------------------------------------------------------------------
# operations

def overlap(a: NodeState, b: NodeState) -> complex:
    """<a|b> = sum_x conj(a_x) b_x."""
    if a.n != b.n:
        raise ValueError(f"overlap of states with different n: {a.n} vs {b.n}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def apply_local_layer(state: NodeState, layer: "LocalLayer") -> NodeState:
    """Apply a product of single-qubit unitaries U_1 x ... x U_n to the state.

    Factor j acts on qubit j (bit j of the vertex index). Implemented as one
    2 x 2 by 2 x N/2 product per qubit, no 2^n x 2^n matrix is formed.
    """
    factors = layer.factors
    if len(factors) != state.n:
        raise ValueError(
            f"layer has {len(factors)} factors for an n={state.n} state"
        )
    n, out = state.n, state.amplitudes
    # each product acts on bit 0 and rotates it to the top bit, so factor j
    # meets qubit j there and n rotations restore the vertex order
    for U in factors:
        out = (U @ out.reshape(-1, 2).T).ravel()
    nrm = float(np.linalg.norm(out))
    if abs(nrm - 1.0) > UNITARY_TOL * (n + 1):
        raise InvariantViolation("layer norm preservation", f"norm {nrm!r}")
    return NodeState(state.n, out)
