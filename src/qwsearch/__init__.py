"""Quantum-walk search on the n-dimensional hypercube, matrix free.

The package simulates the coined discrete-time walk that amplifies a
marked vertex, in the original form and in variants that start from an
arbitrary node state, optionally preceded by an optimizing local layer.
Resource measures (coherence fraction, best product overlap, largest
basis weight) predict each variant's success probability in closed form;
an independent oracle module re-derives everything densely for cross
checks at small sizes.
"""

from .config import InvariantViolation
from .states import (MixedEnsemble, NodeState, apply_local_layer,
                     make_basis_node_state, make_even_uniform_node_state,
                     make_ghz_node_state, make_interpolated_node_state,
                     make_random_node_state, make_tilted_node_state,
                     make_uniform_node_state, make_w_node_state, overlap)
from .walk import (OSKW, SKW, IterationPlan, WalkSpec, project_even_parity,
                   walsh_average, walsh_weights)
from .measures import (LocalLayer, ResourceReport, best_pauli_basis,
                       coherence_fraction, even_coherence_fraction,
                       fidelity_coherence, groverian_entanglement,
                       hadamard_layer, optimize_local_layer_detailed,
                       pauli_layer)
from .runners import (PreparedRow, RunResult, predicted_probability,
                      prepare_oskw1, prepare_skw1, prepare_skw2_rows,
                      prepare_skw3, walk_rows)
from .oracle import (DenseOperator, WalkerState, build_dense_evolution,
                     compose_walker, enumerate_pauli_layers, evolve,
                     evolve_dense, grid_product_overlap, success_probability,
                     uniform_coin, verify_theorem_identities,
                     xor_covariance_deviation)

__version__ = "0.1.0"

__all__ = [
    "InvariantViolation",
    "MixedEnsemble", "NodeState", "apply_local_layer", "make_basis_node_state",
    "make_even_uniform_node_state", "make_ghz_node_state",
    "make_interpolated_node_state", "make_random_node_state",
    "make_tilted_node_state", "make_uniform_node_state", "make_w_node_state",
    "overlap",
    "OSKW", "SKW", "IterationPlan", "WalkSpec", "project_even_parity",
    "walsh_average", "walsh_weights",
    "LocalLayer", "ResourceReport", "best_pauli_basis", "coherence_fraction",
    "enumerate_pauli_layers", "even_coherence_fraction", "fidelity_coherence",
    "groverian_entanglement", "hadamard_layer", "optimize_local_layer_detailed",
    "pauli_layer",
    "PreparedRow", "RunResult", "predicted_probability", "prepare_oskw1",
    "prepare_skw1", "prepare_skw2_rows", "prepare_skw3", "walk_rows",
    "DenseOperator", "WalkerState", "build_dense_evolution", "compose_walker",
    "evolve", "evolve_dense", "grid_product_overlap", "success_probability",
    "uniform_coin", "verify_theorem_identities", "xor_covariance_deviation",
    "__version__",
]
