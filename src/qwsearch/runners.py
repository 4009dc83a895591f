"""End-to-end search runs for every algorithm variant.

Each runner takes the success probability for every admissible marked
vertex from one call to the spectral engine (`walk.target_probabilities`)
and reports the target average next to the closed-form prediction for
that variant. Each variant's inputs and closed form live in `VARIANTS`:

    skw, skw1 -> f_c / 2         skw2 -> (1 - E_g^2) / 2
    skw3      -> (1 - C_f^2) / 2 oskw, oskw1 -> f_c (even subspace)
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .config import InvariantViolation
from .measures import (ResourceReport, best_pauli_basis, coherence_fraction,
                       even_coherence_fraction, fidelity_coherence,
                       groverian_entanglement, hadamard_layer,
                       optimize_local_layer_detailed, pauli_layer)
from .states import (MixedEnsemble, NodeState, StateLike, apply_local_layer,
                     make_even_uniform_node_state, make_uniform_node_state)
from .walk import (OSKW, SKW, IterationPlan, project_even_parity,
                   target_probabilities)

# target-average divisor for an n-direction walk: all vertices, or the even ones
_DENOMINATORS = {"vertex-count": lambda n: 1 << n,
                "even-count": lambda n: 1 << (n - 1)}


@dataclass(frozen=True)
class RunResult:
    """One completed run: per-target probabilities, their mean, and the prediction."""

    variant: str
    n: int                      # walk direction count
    tau: int
    per_target: Tuple[Tuple[int, float], ...]
    p_avg: float
    p_pred: float
    abs_dev: float
    resource: ResourceReport
    seed: int
    wall_ms: float
    leaked_weight: Optional[float] = None
    metric: str = "vertex"
    denominator: str = "vertex-count"

    def __post_init__(self):
        slack = 1e-12
        for tg, p in self.per_target:
            if not -slack <= p <= 1.0 + slack:
                raise InvariantViolation("probability range", f"p({tg}) = {p!r}")
        if not -slack <= self.p_pred <= 1.0 + slack:
            raise InvariantViolation("probability range", f"p_pred = {self.p_pred!r}")
        if self.denominator not in _DENOMINATORS:
            raise ValueError(f"unknown denominator {self.denominator!r}")
        mean = (math.fsum(p for _, p in self.per_target)
                / _DENOMINATORS[self.denominator](self.n))
        if abs(self.p_avg - mean) > 1e-14:
            raise InvariantViolation(
                "average consistency", f"p_avg {self.p_avg!r} vs mean {mean!r}"
            )


def predicted_probability(variant: str, resource: ResourceReport) -> float:
    """Closed-form prediction from the resource report; no simulation."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {tuple(VARIANTS)}")
    spec = VARIANTS[variant]
    value = getattr(resource, spec.measure)
    if value is None:
        raise ValueError(f"variant {variant!r} needs resource field {spec.measure}")
    return spec.predict(value)


# ---------------------------------------------------------------------------
# shared machinery

def _base_report(state: NodeState, entanglement: bool, restarts: Optional[int],
                 seed: int) -> ResourceReport:
    if entanglement:
        return groverian_entanglement(state, restarts, seed)
    return ResourceReport(f_c=coherence_fraction(state),
                          C_f=fidelity_coherence(state))


def _finish(variant, n, plan, targets, probs, resource, seed, t0,
            leaked=None, metric="vertex",
            denominator="vertex-count") -> RunResult:
    # exactly rounded, so RunResult's recomputed mean agrees at every n
    p_avg = math.fsum(probs.tolist()) / _DENOMINATORS[denominator](n)
    p_pred = predicted_probability(variant, resource)
    return RunResult(
        variant=variant, n=n, tau=plan.tau,
        per_target=tuple(zip((int(t) for t in targets), map(float, probs))),
        p_avg=p_avg, p_pred=float(p_pred),
        abs_dev=float(abs(p_avg - p_pred)), resource=resource, seed=seed,
        wall_ms=(time.perf_counter() - t0) * 1e3, leaked_weight=leaked,
        metric=metric, denominator=denominator,
    )


# ---------------------------------------------------------------------------
# runners

def run_skw1(state: StateLike, plan: Optional[IterationPlan] = None, *,
             seed: int = 0, measure_entanglement: bool = False,
             restarts: Optional[int] = None,
             metric: str = "vertex") -> RunResult:
    """Walk with the state as supplied; prediction f_c / 2.

    A mixed ensemble runs every member and combines per-target
    probabilities with the ensemble weights.
    """
    t0 = time.perf_counter()
    n = state.n
    plan = plan or IterationPlan.skw_optimal(n)
    targets = range(1 << n)
    if isinstance(state, MixedEnsemble):
        probs = np.zeros(1 << n)
        for p_mu, member in state.members:
            probs += p_mu * target_probabilities(member, plan, SKW, metric)
        resource = ResourceReport(f_c=coherence_fraction(state), C_f=None)
    else:
        probs = target_probabilities(state, plan, SKW, metric)
        resource = _base_report(state, measure_entanglement, restarts, seed)
    return _finish("skw1", n, plan, targets, probs, resource, seed, t0,
                   metric=metric)


def run_skw(n: int, plan: Optional[IterationPlan] = None, *,
            metric: str = "vertex") -> RunResult:
    """The original algorithm: uniform start state."""
    return dataclasses.replace(
        run_skw1(make_uniform_node_state(n), plan, metric=metric), variant="skw")


def run_skw2(state: NodeState, plan: Optional[IterationPlan] = None,
             restarts: Optional[int] = None, seed: int = 0, *,
             metric: str = "vertex") -> RunResult:
    """Best local-unitary layer first, then the walk; prediction (1 - E_g^2)/2."""
    t0 = time.perf_counter()
    n = state.n
    plan = plan or IterationPlan.skw_optimal(n)
    layer, _, resource = optimize_local_layer_detailed(state, restarts, seed)
    transformed = apply_local_layer(state, layer)
    targets = range(1 << n)
    probs = target_probabilities(transformed, plan, SKW, metric)
    return _finish("skw2", n, plan, targets, probs, resource, seed, t0,
                   metric=metric)


def run_skw3(state: NodeState, plan: Optional[IterationPlan] = None, *,
             metric: str = "vertex") -> RunResult:
    """Best Pauli layer, a Hadamard on every qubit, then the walk.

    Prediction (1 - C_f^2)/2 = max_i |a_i|^2 / 2. The best Pauli layer is
    the closed form: it sends the largest basis weight to |0...0>, which
    attains the maximum over all 3^n layers (oracle.enumerate_pauli_layers
    checks this exhaustively).
    """
    t0 = time.perf_counter()
    n = state.n
    plan = plan or IterationPlan.skw_optimal(n)
    i, _ = best_pauli_basis(state)
    # X moves <0| onto <1|, Z keeps <0|: spell the argmax vertex bitwise
    layer = pauli_layer("".join("X" if (i >> j) & 1 else "Z" for j in range(n)))
    transformed = apply_local_layer(apply_local_layer(state, layer),
                                    hadamard_layer(n))
    targets = range(1 << n)
    probs = target_probabilities(transformed, plan, SKW, metric)
    resource = ResourceReport(f_c=coherence_fraction(state),
                              C_f=fidelity_coherence(state))
    return _finish("skw3", n, plan, targets, probs, resource, 0, t0,
                   metric=metric)


def run_oskw1(state: NodeState, plan: Optional[IterationPlan] = None, *,
              seed: int = 0, measure_entanglement: bool = False,
              restarts: Optional[int] = None, metric: str = "vertex",
              denominator: str = "even-count") -> RunResult:
    """Two-shift optimized walk on the even-parity subspace.

    The state is projected onto even-parity vertices (leaked weight
    recorded), targets range over the even vertices, and the prediction is
    the projected state's overlap with the even equal superposition.
    `denominator` picks the target-average normalization: "even-count"
    (default) divides by the number of even vertices, "vertex-count" by
    the full vertex count.
    """
    t0 = time.perf_counter()
    m = state.n
    if m < 3:
        raise ValueError(f"optimized walk needs at least 3 directions, got {m}")
    if denominator not in _DENOMINATORS:
        raise ValueError(f"unknown denominator {denominator!r}")
    projected, leaked = project_even_parity(state)
    plan = plan or IterationPlan.oskw_optimal(1 << m)
    parities = np.bitwise_count(np.arange(1 << m)) & 1
    targets = np.nonzero(parities == 0)[0]
    probs = target_probabilities(projected, plan, OSKW, metric)[targets]
    # the input state's resources, but f_c on the even subspace walked
    resource = dataclasses.replace(
        _base_report(state, measure_entanglement, restarts, seed),
        f_c=even_coherence_fraction(projected))
    return _finish("oskw1", m, plan, targets, probs, resource, seed, t0,
                   leaked=leaked, metric=metric, denominator=denominator)


def run_oskw(n: int, plan: Optional[IterationPlan] = None, *,
             metric: str = "vertex") -> RunResult:
    """The optimized algorithm proper: even equal superposition one
    dimension above the n-bit search problem."""
    state = make_even_uniform_node_state(n + 1)
    return dataclasses.replace(run_oskw1(state, plan, metric=metric),
                               variant="oskw")


class Variant(NamedTuple):
    """A runner, the keywords it takes besides `plan` and `metric` (without
    `state` it builds its own start state), the report field `predict`
    reads, and the constant of the deviation bound envelope / sqrt(2^n)."""

    run: Callable[..., RunResult]
    takes: Tuple[str, ...]
    measure: str
    predict: Callable[[float], float]
    envelope: float


# calibrated O(1/sqrt(N)) envelopes: 3 for the plain walk's vertex count,
# 6 for the two-shift walk's
VARIANTS: Dict[str, Variant] = {
    "skw": Variant(run_skw, ("n",), "f_c", lambda f_c: f_c / 2.0, 3.0),
    "skw1": Variant(run_skw1, ("state", "seed", "measure_entanglement", "restarts"),
                    "f_c", lambda f_c: f_c / 2.0, 3.0),
    "skw2": Variant(run_skw2, ("state", "seed", "restarts"),
                    "E_g", lambda e: (1.0 - e * e) / 2.0, 3.0),
    "skw3": Variant(run_skw3, ("state",), "C_f", lambda c: (1.0 - c * c) / 2.0, 3.0),
    "oskw": Variant(run_oskw, ("n",), "f_c", float, 6.0),
    "oskw1": Variant(run_oskw1, ("state", "seed", "measure_entanglement", "restarts",
                                 "denominator"), "f_c", float, 6.0),
}
