"""End-to-end search runs for every algorithm variant.

A variant is its prepare step: it turns a start state into a row, the state
it walks and its resource report. `skw` and `oskw` build their own start
state from run.n and share `skw1`'s and `oskw1`'s steps. One body,
`walk_rows`, walks every row: it builds the state-independent Walsh
weight of a group of rows of one n once (`walk.walsh_weights`), reads each
row's target average off one Walsh transform per walked state
(`walk.walsh_average`) and reports it next to its closed-form prediction.
Each variant's prepare step, inputs and closed form live in `VARIANTS`:

    skw, skw1 -> f_c / 2         skw2 -> (1 - E_g^2) / 2
    skw3      -> (1 - C_f^2) / 2 oskw, oskw1 -> f_c (even subspace)
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .config import STRICT_TOL, WALK_GUARD_N, InvariantViolation
from .measures import (ResourceReport, best_pauli_basis, coherence_fraction,
                       even_coherence_fraction, fidelity_coherence,
                       groverian_entanglement, hadamard_layer,
                       optimize_local_layers, pauli_layer)
from .states import (MixedEnsemble, NodeState, StateLike, apply_local_layer,
                     make_even_uniform_node_state, make_uniform_node_state)
from .walk import (OSKW, SKW, IterationPlan, project_even_parity, walsh_average,
                   walsh_weights)


@dataclass(frozen=True)
class RunResult:
    """One run: the success rate averaged over the admitted targets, and its prediction."""

    variant: str
    n: int                      # walk direction count
    tau: int
    p_avg: float
    p_pred: float
    abs_dev: float
    resource: ResourceReport
    seed: int
    wall_ms: float
    leaked_weight: Optional[float] = None
    metric: str = "vertex"

    def __post_init__(self):
        for name, p in (("p_avg", self.p_avg), ("p_pred", self.p_pred)):
            if not -STRICT_TOL <= p <= 1.0 + STRICT_TOL:
                raise InvariantViolation("probability range", f"{name} = {p!r}")


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

class PreparedRow(NamedTuple):
    """A row before its walk; prep_s is the seconds its preparation took."""

    variant: str
    walk: str
    walked: StateLike
    resource: ResourceReport
    seed: int
    prep_s: float
    leaked: Optional[float] = None


def walk_rows(rows: Sequence[PreparedRow], plan: Optional[IterationPlan] = None,
              metric: str = "vertex") -> List[RunResult]:
    """Walk a row group, rows of one n and one walk, on one weight build.

    A row averages over the targets its walk admits: all for the plain walk,
    the even ones for the two-shift walk. No plan means the optimal one; a
    mixture weights its members' averages. A row's wall_ms is its preparation,
    its own transforms and an equal share of the build per state it walks."""
    if not rows or any((r.walked.n, r.walk) != (rows[0].walked.n, rows[0].walk)
                       for r in rows):
        raise ValueError("a row group needs rows, all of one n and one walk")
    n, walk = rows[0].walked.n, rows[0].walk
    plan = plan or IterationPlan.optimal(n)
    members = [r.walked.members if isinstance(r.walked, MixedEnsemble)
               else ((1.0, r.walked),) for r in rows]
    t0 = time.perf_counter()
    weights = walsh_weights(n, plan, walk, metric)
    per_state = (time.perf_counter() - t0) / sum(map(len, members))
    results = []
    for row, ms in zip(rows, members):
        t0 = time.perf_counter() - row.prep_s - per_state * len(ms)
        p_avg = sum(p_mu * walsh_average(weights, m, walk) for p_mu, m in ms)
        p_pred = predicted_probability(row.variant, row.resource)
        results.append(RunResult(
            variant=row.variant, n=n, tau=plan.tau, p_avg=p_avg,
            p_pred=float(p_pred), abs_dev=float(abs(p_avg - p_pred)),
            resource=row.resource, seed=row.seed,
            wall_ms=(time.perf_counter() - t0) * 1e3, leaked_weight=row.leaked,
            metric=metric))
    return results


# ---------------------------------------------------------------------------
# prepare steps: each makes a variant's rows, which walk_rows walks

def prepare_skw1(state: StateLike, seed: int = 0, measure_entanglement: bool = False,
                 restarts: Optional[int] = None) -> PreparedRow:
    """The state as supplied, with its resources; a mixture reports f_c only."""
    t0 = time.perf_counter()
    if isinstance(state, MixedEnsemble):
        resource = ResourceReport(f_c=coherence_fraction(state), C_f=None)
    elif measure_entanglement:
        resource = groverian_entanglement(state, restarts, seed)
    else:
        resource = ResourceReport(f_c=coherence_fraction(state),
                                  C_f=fidelity_coherence(state))
    return PreparedRow("skw1", SKW, state, resource, seed, time.perf_counter() - t0)


def prepare_skw2_rows(states: Sequence[NodeState], seeds: Sequence[int],
                      restarts: Optional[int] = None) -> List[PreparedRow]:
    """Each state under its best local-unitary layer, from one optimizer pool;
    a row's prep_s is its own layer plus an equal share of the pool's time."""
    t0 = time.perf_counter()
    optimized = optimize_local_layers(states, restarts, seeds)
    share, rows = (time.perf_counter() - t0) / len(states), []
    for state, seed, (layer, resource) in zip(states, seeds, optimized):
        t0 = time.perf_counter() - share
        rows.append(PreparedRow("skw2", SKW, apply_local_layer(state, layer),
                                resource, seed, time.perf_counter() - t0))
    return rows


def prepare_skw3(state: NodeState, seed: int = 0) -> PreparedRow:
    """The state under its best Pauli layer, then a Hadamard on every qubit.
    The best layer is the closed form: it sends the largest basis weight to
    |0...0>, which attains the maximum over all 3^n layers (checked
    exhaustively by oracle.enumerate_pauli_layers)."""
    t0 = time.perf_counter()
    i, _ = best_pauli_basis(state)
    # X moves <0| onto <1|, Z keeps <0|: spell the argmax vertex bitwise
    layer = pauli_layer("".join("X" if (i >> j) & 1 else "Z" for j in range(state.n)))
    transformed = apply_local_layer(apply_local_layer(state, layer),
                                    hadamard_layer(state.n))
    resource = ResourceReport(f_c=coherence_fraction(state),
                              C_f=fidelity_coherence(state))
    return PreparedRow("skw3", SKW, transformed, resource, seed,
                       time.perf_counter() - t0)


def prepare_oskw1(state: NodeState, seed: int = 0, measure_entanglement: bool = False,
                  restarts: Optional[int] = None) -> PreparedRow:
    """The state projected onto even-parity vertices, leaked weight
    recorded; the prediction is its overlap with the even equal superposition."""
    t0 = time.perf_counter()
    if state.n < 3:
        raise ValueError(f"optimized walk needs at least 3 directions, got {state.n}")
    projected, leaked = project_even_parity(state)
    # the input state's resources, but f_c on the even subspace walked
    resource = dataclasses.replace(
        prepare_skw1(state, seed, measure_entanglement, restarts).resource,
        f_c=even_coherence_fraction(projected))
    return PreparedRow("oskw1", OSKW, projected, resource, seed,
                       time.perf_counter() - t0, leaked)


def _even_flat_above(n: int) -> NodeState:
    """oskw's start: the even equal superposition one dimension above the
    n-bit search problem, refused past the walk size guard before it is built."""
    if n >= WALK_GUARD_N:
        raise ValueError(f"it walks n + 1 directions, so n (run.n) must be <= "
                         f"{WALK_GUARD_N - 1} (walk size guard), got {n}")
    return make_even_uniform_node_state(n + 1)


class Variant(NamedTuple):
    """A prepare step and the keywords it takes besides the start state(s) and
    seed(s); whether it takes a whole row group's states and seeds at once
    (one optimizer pool) rather than one row's; the start state it builds from
    run.n, if it takes none; the report field `predict` reads; and the
    constant of the deviation bound envelope / sqrt(2^n)."""

    prepare: Callable[..., object]
    takes: Tuple[str, ...]
    pooled: bool
    start: Optional[Callable[[int], NodeState]]
    measure: str
    predict: Callable[[float], float]
    envelope: float


# calibrated O(1/sqrt(N)) envelopes: 3 for the plain walk's vertex count,
# 6 for the two-shift walk's
VARIANTS: Dict[str, Variant] = {
    "skw": Variant(prepare_skw1, (), False, make_uniform_node_state,
                   "f_c", lambda f_c: f_c / 2.0, 3.0),
    "skw1": Variant(prepare_skw1, ("measure_entanglement", "restarts"), False, None,
                    "f_c", lambda f_c: f_c / 2.0, 3.0),
    "skw2": Variant(prepare_skw2_rows, ("restarts",), True, None,
                    "E_g", lambda e: (1.0 - e * e) / 2.0, 3.0),
    "skw3": Variant(prepare_skw3, (), False, None,
                    "C_f", lambda c: (1.0 - c * c) / 2.0, 3.0),
    "oskw": Variant(prepare_oskw1, (), False, _even_flat_above, "f_c", float, 6.0),
    "oskw1": Variant(prepare_oskw1, ("measure_entanglement", "restarts"), False, None,
                     "f_c", float, 6.0),
}
