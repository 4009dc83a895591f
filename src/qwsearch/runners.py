"""End-to-end search runs for every algorithm variant.

Each runner loops the marked vertex over all admissible targets, evolves
the walker, and reports the target-averaged success probability next to
the closed-form prediction for that variant:

    skw, skw1 -> f_c / 2         skw2 -> (1 - E_g^2) / 2
    skw3      -> (1 - C_f^2) / 2 oskw, oskw1 -> f_c (even subspace)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT, InvariantViolation, NumericsConfig
from .measures import (ResourceReport, best_pauli_basis, coherence_fraction,
                       even_coherence_fraction, fidelity_coherence,
                       groverian_entanglement, hadamard_layer,
                       optimize_local_layer_detailed, pauli_layer)
from .states import (MixedEnsemble, NodeState, StateLike, apply_local_layer,
                     compose_walker, make_even_uniform_node_state,
                     make_uniform_node_state, uniform_coin)
from .walk import (OSKW, SKW, IterationPlan, WalkSpec, evolve,
                   project_even_parity, success_probability)

VARIANTS = ("skw", "skw1", "skw2", "skw3", "oskw", "oskw1")
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
        mean = (sum(p for _, p in self.per_target)
                / _DENOMINATORS[self.denominator](self.n))
        if abs(self.p_avg - mean) > 1e-14:
            raise InvariantViolation(
                "average consistency", f"p_avg {self.p_avg!r} vs mean {mean!r}"
            )


def predicted_probability(variant: str, resource: ResourceReport) -> float:
    """Closed-form prediction from the resource report; no simulation."""
    def need(value, name):
        if value is None:
            raise ValueError(f"variant {variant!r} needs resource field {name}")
        return value

    if variant in ("skw", "skw1"):
        return need(resource.f_c, "f_c") / 2.0
    if variant == "skw2":
        e = need(resource.E_g, "E_g")
        return (1.0 - e * e) / 2.0
    if variant == "skw3":
        c = need(resource.C_f, "C_f")
        return (1.0 - c * c) / 2.0
    if variant in ("oskw", "oskw1"):
        return need(resource.f_c, "f_c")
    raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")


# ---------------------------------------------------------------------------
# shared machinery

def _per_target_probs(node: NodeState, plan: IterationPlan, variant: str,
                      targets: Sequence[int], metric: str,
                      config: NumericsConfig) -> np.ndarray:
    """Success probability for each marked vertex, one forward walk each."""
    walker = compose_walker(uniform_coin(node.n), node, config)
    probs = np.empty(len(targets))
    for k, tg in enumerate(targets):
        spec = WalkSpec(n=node.n, node_count=node.dim, target=int(tg),
                        variant=variant)
        probs[k] = success_probability(evolve(walker, spec, plan, config),
                                       int(tg), metric)
    return probs


def _base_report(state: NodeState, entanglement: bool, restarts: Optional[int],
                 seed: int, config: NumericsConfig) -> ResourceReport:
    if entanglement:
        return groverian_entanglement(state, restarts, seed, config)
    return ResourceReport(f_c=coherence_fraction(state),
                          C_f=fidelity_coherence(state))


def _finish(variant, n, plan, targets, probs, resource, seed, t0,
            leaked=None, metric="vertex",
            denominator="vertex-count") -> RunResult:
    p_avg = probs.sum() / _DENOMINATORS[denominator](n)
    p_pred = predicted_probability(variant, resource)
    return RunResult(
        variant=variant, n=n, tau=plan.tau,
        per_target=tuple(zip((int(t) for t in targets), map(float, probs))),
        p_avg=float(p_avg), p_pred=float(p_pred),
        abs_dev=float(abs(p_avg - p_pred)), resource=resource, seed=seed,
        wall_ms=(time.perf_counter() - t0) * 1e3, leaked_weight=leaked,
        metric=metric, denominator=denominator,
    )


# ---------------------------------------------------------------------------
# runners

def run_skw1(state: StateLike, plan: Optional[IterationPlan] = None, *,
             seed: int = 0, measure_entanglement: bool = False,
             restarts: Optional[int] = None,
             metric: str = "vertex", variant_label: str = "skw1",
             config: NumericsConfig = DEFAULT) -> RunResult:
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
            probs += p_mu * _per_target_probs(member, plan, SKW, targets,
                                              metric, config)
        resource = ResourceReport(f_c=coherence_fraction(state), C_f=None)
    else:
        probs = _per_target_probs(state, plan, SKW, targets, metric, config)
        resource = _base_report(state, measure_entanglement, restarts, seed, config)
    return _finish(variant_label, n, plan, targets, probs, resource, seed, t0,
                   metric=metric)


def run_skw(n: int, plan: Optional[IterationPlan] = None, *,
            metric: str = "vertex", config: NumericsConfig = DEFAULT) -> RunResult:
    """The original algorithm: uniform start state."""
    return run_skw1(make_uniform_node_state(n, config), plan, metric=metric,
                    variant_label="skw", config=config)


def run_skw2(state: NodeState, plan: Optional[IterationPlan] = None,
             restarts: Optional[int] = None, seed: int = 0, *,
             metric: str = "vertex",
             config: NumericsConfig = DEFAULT) -> RunResult:
    """Best local-unitary layer first, then the walk; prediction (1 - E_g^2)/2."""
    t0 = time.perf_counter()
    n = state.n
    plan = plan or IterationPlan.skw_optimal(n)
    layer, achieved, resource = optimize_local_layer_detailed(state, restarts,
                                                              seed, config)
    transformed = apply_local_layer(state, layer, config)
    targets = range(1 << n)
    probs = _per_target_probs(transformed, plan, SKW, targets, metric, config)
    return _finish("skw2", n, plan, targets, probs, resource, seed, t0,
                   metric=metric)


def run_skw3(state: NodeState, plan: Optional[IterationPlan] = None, *,
             metric: str = "vertex",
             config: NumericsConfig = DEFAULT) -> RunResult:
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
    transformed = apply_local_layer(apply_local_layer(state, layer, config),
                                    hadamard_layer(n), config)
    targets = range(1 << n)
    probs = _per_target_probs(transformed, plan, SKW, targets, metric, config)
    resource = ResourceReport(f_c=coherence_fraction(state),
                              C_f=fidelity_coherence(state))
    return _finish("skw3", n, plan, targets, probs, resource, 0, t0,
                   metric=metric)


def run_oskw1(state: NodeState, plan: Optional[IterationPlan] = None, *,
              seed: int = 0, measure_entanglement: bool = False,
              restarts: Optional[int] = None,
              metric: str = "vertex", denominator: str = "even-count",
              variant_label: str = "oskw1",
              config: NumericsConfig = DEFAULT) -> RunResult:
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
    projected, leaked = project_even_parity(state, config)
    plan = plan or IterationPlan.oskw_optimal(1 << m)
    parities = np.bitwise_count(np.arange(1 << m)) & 1
    targets = np.nonzero(parities == 0)[0]
    probs = _per_target_probs(projected, plan, OSKW, targets, metric, config)
    if measure_entanglement:
        full = groverian_entanglement(state, restarts, seed, config)
        resource = ResourceReport(f_c=even_coherence_fraction(projected),
                                  C_f=full.C_f, E_g=full.E_g,
                                  E_g_overlap=full.E_g_overlap,
                                  restarts_used=full.restarts_used,
                                  converged=full.converged)
    else:
        resource = ResourceReport(f_c=even_coherence_fraction(projected),
                                  C_f=fidelity_coherence(state))
    return _finish(variant_label, m, plan, targets, probs, resource, seed, t0,
                   leaked=leaked, metric=metric, denominator=denominator)


def run_oskw(n: int, plan: Optional[IterationPlan] = None, *,
             metric: str = "vertex",
             config: NumericsConfig = DEFAULT) -> RunResult:
    """The optimized algorithm proper: even equal superposition one
    dimension above the n-bit search problem."""
    state = make_even_uniform_node_state(n + 1, config)
    return run_oskw1(state, plan, metric=metric,
                     variant_label="oskw", config=config)
