"""End-to-end search runs for every algorithm variant.

Each variant's prepare step makes a row: the state it walks and its
resource report. One shared body, `walk_rows`, builds the state-independent
Walsh weights of a group of rows of one n once (`walk.walsh_weights`),
reads each row's target average off one Walsh transform per walked state
(`walk.walsh_average`) and reports it next to its closed-form prediction.
Each variant's inputs and closed form live in `VARIANTS`:

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
    plan = plan or (IterationPlan.skw_optimal(n) if walk == SKW
                    else IterationPlan.oskw_optimal(1 << n))
    members = [r.walked.members if isinstance(r.walked, MixedEnsemble)
               else ((1.0, r.walked),) for r in rows]
    t0 = time.perf_counter()
    weights = walsh_weights(n, plan, walk, metric)
    per_state = (time.perf_counter() - t0) / sum(map(len, members))
    results = []
    for row, ms in zip(rows, members):
        t0 = time.perf_counter() - row.prep_s - per_state * len(ms)
        p_avg = sum(p_mu * walsh_average(weights, m) for p_mu, m in ms)
        p_pred = predicted_probability(row.variant, row.resource)
        results.append(RunResult(
            variant=row.variant, n=n, tau=plan.tau, p_avg=p_avg,
            p_pred=float(p_pred), abs_dev=float(abs(p_avg - p_pred)),
            resource=row.resource, seed=row.seed,
            wall_ms=(time.perf_counter() - t0) * 1e3, leaked_weight=row.leaked,
            metric=metric))
    return results


# ---------------------------------------------------------------------------
# runners: prepare_* makes a row, run_* walks it alone

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


def run_skw1(state: StateLike, plan: Optional[IterationPlan] = None, *,
             seed: int = 0, measure_entanglement: bool = False,
             restarts: Optional[int] = None,
             metric: str = "vertex") -> RunResult:
    """Walk the state as supplied, or each mixture member; prediction f_c / 2."""
    return walk_rows([prepare_skw1(state, seed, measure_entanglement, restarts)],
                     plan, metric)[0]


def run_skw(n: int, plan: Optional[IterationPlan] = None, *,
            metric: str = "vertex") -> RunResult:
    """The original algorithm: uniform start state."""
    return dataclasses.replace(
        run_skw1(make_uniform_node_state(n), plan, metric=metric), variant="skw")


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


def run_skw2_rows(states: Sequence[NodeState], seeds: Sequence[int],
                  plan: Optional[IterationPlan] = None, restarts: Optional[int] = None,
                  *, metric: str = "vertex") -> List[RunResult]:
    """run_skw2 on states of one n: one optimizer pool, one walk call."""
    return walk_rows(prepare_skw2_rows(states, seeds, restarts), plan, metric)


def run_skw2(state: NodeState, plan: Optional[IterationPlan] = None,
             restarts: Optional[int] = None, seed: int = 0, *,
             metric: str = "vertex") -> RunResult:
    """Best local-unitary layer first, then the walk; prediction (1 - E_g^2)/2."""
    return run_skw2_rows([state], [seed], plan, restarts, metric=metric)[0]


def prepare_skw3(state: NodeState) -> PreparedRow:
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
    return PreparedRow("skw3", SKW, transformed, resource, 0, time.perf_counter() - t0)


def run_skw3(state: NodeState, plan: Optional[IterationPlan] = None, *,
             metric: str = "vertex") -> RunResult:
    """prepare_skw3's state walked; prediction (1 - C_f^2)/2 = max_i |a_i|^2 / 2."""
    return walk_rows([prepare_skw3(state)], plan, metric)[0]


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


def run_oskw1(state: NodeState, plan: Optional[IterationPlan] = None, *,
              seed: int = 0, measure_entanglement: bool = False,
              restarts: Optional[int] = None, metric: str = "vertex") -> RunResult:
    """Two-shift optimized walk on the even-parity subspace, over even targets."""
    return walk_rows([prepare_oskw1(state, seed, measure_entanglement, restarts)],
                     plan, metric)[0]


def run_oskw(n: int, plan: Optional[IterationPlan] = None, *,
             metric: str = "vertex") -> RunResult:
    """The optimized algorithm proper: even equal superposition one
    dimension above the n-bit search problem."""
    if n >= WALK_GUARD_N:
        raise ValueError(f"it walks n + 1 directions, so n (run.n) must be <= "
                         f"{WALK_GUARD_N - 1} (walk size guard), got {n}")
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
