"""Every tolerance and size guard of the package, as module constants."""

from __future__ import annotations


class InvariantViolation(RuntimeError):
    """A runtime invariant (norm conservation, probability range, ...) broke.

    Carries the invariant name so harness layers can report it verbatim.
    """

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        self.detail = detail
        msg = invariant if not detail else f"{invariant}: {detail}"
        super().__init__(msg)


# tolerances
NORM_TOL = 1e-10          # state normalization at construction
CONSERVATION_TOL = 1e-10  # walker norm drift allowed per evolution step
UNITARY_TOL = 1e-12       # 2x2 factors and dense operators
STRICT_TOL = 1e-12        # exact-identity comparisons
OVERLAP_TOL = 1e-12       # optimizer convergence threshold per sweep
# optimizer
HOPM_RESTARTS = 32
HOPM_SWEEP_CAP = 500
HOPM_BATCH_ENTRIES = 1 << 18  # pool slots x 2^(n-1); a pool holds >= 1 slot
# size guards
PAULI_GUARD_N = 12          # 3^n layer enumeration
DENSE_GUARD_N = 5           # dense operator dimension n * 2^n
GRID_GUARD_N = 3            # exhaustive Bloch-angle grid
GRID_GUARD_RESOLUTION = 64  # subdivisions per angle
IDENTITY_CHECK_GUARD_N = 6  # verify_theorem_identities trial size
WALK_GUARD_N = 20           # walk directions: an (n, 2^n) float64 grid is 168 MB
