"""End-to-end search runs for every algorithm variant.

Each runner prepares only the state it walks and its resource report;
one shared body takes the success probability for every admissible marked
vertex from the spectral engine (`walk.target_probabilities`) and reports
the target average next to the closed-form prediction for that variant.
Each variant's inputs and closed form live in `VARIANTS`:

    skw, skw1 -> f_c / 2         skw2 -> (1 - E_g^2) / 2
    skw3      -> (1 - C_f^2) / 2 oskw, oskw1 -> f_c (even subspace)
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .config import InvariantViolation
from .measures import (ResourceReport, best_pauli_basis, coherence_fraction,
                       even_coherence_fraction, fidelity_coherence,
                       groverian_entanglement, hadamard_layer,
                       optimize_local_layers, pauli_layer)
from .states import (MixedEnsemble, NodeState, StateLike, apply_local_layer,
                     even_parity_mask, make_even_uniform_node_state,
                     make_uniform_node_state)
from .walk import (OSKW, SKW, IterationPlan, project_even_parity,
                   target_probabilities)


@dataclass(frozen=True)
class RunResult:
    """One run: each admitted target's probability, their mean, and the prediction."""

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

    def __post_init__(self):
        if not self.per_target:
            raise ValueError("run result needs at least one target")
        slack = 1e-12
        for tg, p in self.per_target:
            if not -slack <= p <= 1.0 + slack:
                raise InvariantViolation("probability range", f"p({tg}) = {p!r}")
        if not -slack <= self.p_pred <= 1.0 + slack:
            raise InvariantViolation("probability range", f"p_pred = {self.p_pred!r}")
        mean = math.fsum(p for _, p in self.per_target) / len(self.per_target)
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

def _base_report(state: StateLike, entanglement: bool, restarts: Optional[int],
                 seed: int) -> ResourceReport:
    if isinstance(state, MixedEnsemble):
        return ResourceReport(f_c=coherence_fraction(state), C_f=None)
    if entanglement:
        return groverian_entanglement(state, restarts, seed)
    return ResourceReport(f_c=coherence_fraction(state),
                          C_f=fidelity_coherence(state))


def _walk_and_average(variant: str, walk: str, walked: StateLike,
                      resource: ResourceReport, plan: Optional[IterationPlan],
                      metric: str, seed: int, t0: float,
                      leaked: Optional[float] = None) -> RunResult:
    """Average over the targets the walk admits: every vertex for the plain
    walk, the even ones for the two-shift walk. No plan means the optimal
    one; a mixture's per-target probabilities are its members' weighted sum."""
    n = walked.n
    if walk == SKW:
        plan = plan or IterationPlan.skw_optimal(n)
        targets = np.arange(1 << n)
    else:
        plan = plan or IterationPlan.oskw_optimal(1 << n)
        targets = np.nonzero(even_parity_mask(n))[0]
    members = (walked.members if isinstance(walked, MixedEnsemble)
               else ((1.0, walked),))
    probs = sum(p_mu * target_probabilities(member, plan, walk, metric)
                for p_mu, member in members)[targets].tolist()
    # exactly rounded, so RunResult's recomputed mean agrees at every n
    p_avg = math.fsum(probs) / len(probs)
    p_pred = predicted_probability(variant, resource)
    return RunResult(
        variant=variant, n=n, tau=plan.tau,
        per_target=tuple(zip(targets.tolist(), probs)),
        p_avg=p_avg, p_pred=float(p_pred),
        abs_dev=float(abs(p_avg - p_pred)), resource=resource, seed=seed,
        wall_ms=(time.perf_counter() - t0) * 1e3, leaked_weight=leaked,
        metric=metric,
    )


# ---------------------------------------------------------------------------
# runners

def run_skw1(state: StateLike, plan: Optional[IterationPlan] = None, *,
             seed: int = 0, measure_entanglement: bool = False,
             restarts: Optional[int] = None,
             metric: str = "vertex") -> RunResult:
    """Walk the state as supplied, or each mixture member; prediction f_c / 2."""
    t0 = time.perf_counter()
    resource = _base_report(state, measure_entanglement, restarts, seed)
    return _walk_and_average("skw1", SKW, state, resource, plan, metric, seed, t0)


def run_skw(n: int, plan: Optional[IterationPlan] = None, *,
            metric: str = "vertex") -> RunResult:
    """The original algorithm: uniform start state."""
    return dataclasses.replace(
        run_skw1(make_uniform_node_state(n), plan, metric=metric), variant="skw")


def run_skw2_rows(states: Sequence[NodeState], seeds: Sequence[int],
                  plan: Optional[IterationPlan] = None, restarts: Optional[int] = None,
                  *, metric: str = "vertex") -> List[RunResult]:
    """run_skw2 on states of one n, sharing one optimizer pool; a row's wall_ms
    is its own layer and walk plus an equal share of the pool's time."""
    t0 = time.perf_counter()
    optimized = optimize_local_layers(states, restarts, seeds)
    share, results = (time.perf_counter() - t0) / len(states), []
    for state, seed, (layer, resource) in zip(states, seeds, optimized):
        t0 = time.perf_counter() - share
        results.append(_walk_and_average("skw2", SKW, apply_local_layer(state, layer),
                                         resource, plan, metric, seed, t0))
    return results


def run_skw2(state: NodeState, plan: Optional[IterationPlan] = None,
             restarts: Optional[int] = None, seed: int = 0, *,
             metric: str = "vertex") -> RunResult:
    """Best local-unitary layer first, then the walk; prediction (1 - E_g^2)/2."""
    return run_skw2_rows([state], [seed], plan, restarts, metric=metric)[0]


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
    i, _ = best_pauli_basis(state)
    # X moves <0| onto <1|, Z keeps <0|: spell the argmax vertex bitwise
    layer = pauli_layer("".join("X" if (i >> j) & 1 else "Z" for j in range(n)))
    transformed = apply_local_layer(apply_local_layer(state, layer),
                                    hadamard_layer(n))
    resource = ResourceReport(f_c=coherence_fraction(state),
                              C_f=fidelity_coherence(state))
    return _walk_and_average("skw3", SKW, transformed, resource, plan, metric, 0, t0)


def run_oskw1(state: NodeState, plan: Optional[IterationPlan] = None, *,
              seed: int = 0, measure_entanglement: bool = False,
              restarts: Optional[int] = None, metric: str = "vertex") -> RunResult:
    """Two-shift optimized walk on the even-parity subspace.

    The state is projected onto even-parity vertices (leaked weight
    recorded), targets range over the even vertices, and the prediction is
    the projected state's overlap with the even equal superposition.
    """
    t0 = time.perf_counter()
    if state.n < 3:
        raise ValueError(f"optimized walk needs at least 3 directions, got {state.n}")
    projected, leaked = project_even_parity(state)
    # the input state's resources, but f_c on the even subspace walked
    resource = dataclasses.replace(
        _base_report(state, measure_entanglement, restarts, seed),
        f_c=even_coherence_fraction(projected))
    return _walk_and_average("oskw1", OSKW, projected, resource, plan, metric,
                             seed, t0, leaked)


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
    reads, the constant of the deviation bound envelope / sqrt(2^n), and
    the runner that takes a row group's states and seeds at once, if any."""

    run: Callable[..., RunResult]
    takes: Tuple[str, ...]
    measure: str
    predict: Callable[[float], float]
    envelope: float
    rows: Optional[Callable[..., List[RunResult]]] = None


# calibrated O(1/sqrt(N)) envelopes: 3 for the plain walk's vertex count,
# 6 for the two-shift walk's
VARIANTS: Dict[str, Variant] = {
    "skw": Variant(run_skw, ("n",), "f_c", lambda f_c: f_c / 2.0, 3.0),
    "skw1": Variant(run_skw1, ("state", "seed", "measure_entanglement", "restarts"),
                    "f_c", lambda f_c: f_c / 2.0, 3.0),
    "skw2": Variant(run_skw2, ("state", "seed", "restarts"),
                    "E_g", lambda e: (1.0 - e * e) / 2.0, 3.0, run_skw2_rows),
    "skw3": Variant(run_skw3, ("state",), "C_f", lambda c: (1.0 - c * c) / 2.0, 3.0),
    "oskw": Variant(run_oskw, ("n",), "f_c", float, 6.0),
    "oskw1": Variant(run_oskw1, ("state", "seed", "measure_entanglement", "restarts"),
                     "f_c", float, 6.0),
}
