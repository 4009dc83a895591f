"""Quantum-walk search on the n-dimensional hypercube, matrix free.

The package simulates the coined discrete-time walk that amplifies a
marked vertex, in the original form and in variants that start from an
arbitrary node state, optionally preceded by an optimizing local layer.
Resource measures (coherence fraction, best product overlap, largest
basis weight) predict each variant's success probability in closed form;
an independent oracle module re-derives everything densely for cross
checks at small sizes.
"""

from .config import DEFAULT, InvariantViolation, NumericsConfig
from .states import (MixedEnsemble, NodeState, WalkerState, apply_local_layer,
                     compose_walker, make_basis_node_state,
                     make_even_uniform_node_state, make_ghz_node_state,
                     make_interpolated_node_state, make_random_node_state,
                     make_tilted_node_state, make_uniform_node_state,
                     make_w_node_state, overlap, uniform_coin)
from .walk import (OSKW, SKW, IterationPlan, WalkSpec, apply_perturbed_coin,
                   apply_shift, evolve, project_even_parity,
                   success_probability)
from .measures import (LocalLayer, ResourceReport, best_pauli_basis,
                       coherence_fraction, even_coherence_fraction,
                       fidelity_coherence, groverian_entanglement,
                       hadamard_layer, identity_layer,
                       optimize_local_layer_detailed, pauli_layer)
from .runners import (RunResult, predicted_probability, run_oskw, run_oskw1,
                      run_skw, run_skw1, run_skw2, run_skw3)
from .oracle import (DenseOperator, build_dense_evolution,
                     enumerate_pauli_layers, evolve_dense,
                     grid_product_overlap, verify_theorem_identities,
                     xor_covariance_deviation)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT", "InvariantViolation", "NumericsConfig",
    "MixedEnsemble", "NodeState", "WalkerState", "apply_local_layer",
    "compose_walker", "make_basis_node_state", "make_even_uniform_node_state",
    "make_ghz_node_state", "make_interpolated_node_state",
    "make_random_node_state", "make_tilted_node_state",
    "make_uniform_node_state", "make_w_node_state", "overlap", "uniform_coin",
    "OSKW", "SKW", "IterationPlan", "WalkSpec", "apply_perturbed_coin",
    "apply_shift", "evolve", "project_even_parity",
    "success_probability",
    "LocalLayer", "ResourceReport", "best_pauli_basis", "coherence_fraction",
    "enumerate_pauli_layers", "even_coherence_fraction", "fidelity_coherence",
    "groverian_entanglement", "hadamard_layer", "identity_layer",
    "optimize_local_layer_detailed", "pauli_layer",
    "RunResult", "predicted_probability", "run_oskw", "run_oskw1", "run_skw",
    "run_skw1", "run_skw2", "run_skw3",
    "DenseOperator", "build_dense_evolution", "enumerate_pauli_layers",
    "evolve_dense",
    "grid_product_overlap", "verify_theorem_identities",
    "xor_covariance_deviation",
    "__version__",
]
