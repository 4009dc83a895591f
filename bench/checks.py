"""Output checks made apart from the program.

The reference walk is written here from the walk's definition and imports
nothing from `qwsearch.walk`. One plain step is U = S C: the coin C is the
Grover diffusion (2/n)J - I on the direction register at every vertex
except the marked one, where it is -I, and the shift S sends amplitude
(d, x) to (d, x XOR 2^d). The two-shift step is U = S C0 S C with C0 the
unmarked Grover coin. The plain walk applies U tau times, the two-shift
walk floor(tau/2) times.

Every operator above is real and symmetric, so U^dagger = C S (plain) and
C S C0 S (two-shift). Relabeling vertices by x -> x XOR t commutes with S
and C0 and moves the mark from 0 to t, so U_t = X_t U_0 X_t and

    <d, t| U_t^s |c (x) psi>  =  sum_y K_d(y) psi(y XOR t),
    K_d(y) = sum_d' c_d' [(U_0^dagger)^s |d, 0>](d', y).

One kernel K per (n, s, walk type) therefore gives the amplitudes for every
marked vertex at once; the XOR correlation is a plain gather and matrix
product.

`check_row` compares one CSV row of the program against these
recomputations and against properties the method must have. It returns the
names of the checks the row failed; an empty list means the row passed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional

import numpy as np

PLAIN = "skw"
TWO_SHIFT = "oskw"

# Absolute tolerances. The recomputations use a different summation order
# from the program, so exact identities hold to a few ulps of the
# quantities involved; the optimizer-backed ones (E_g) converge to the
# program's overlap tolerance of 1e-12 on the product overlap.
TOL_EXACT = 1e-12
TOL_PRED = 1e-14
TOL_OPT = 1e-9


# ---------------------------------------------------------------------------
# reference walk

def _shift(a: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """S on a batch (..., n, N): out[d, y] = a[d, y XOR 2^d]."""
    return np.take_along_axis(a, np.broadcast_to(flip, a.shape), axis=-1)


def _grover(a: np.ndarray) -> np.ndarray:
    n = a.shape[-2]
    return (2.0 / n) * a.sum(axis=-2, keepdims=True) - a


def _marked_coin(a: np.ndarray, target: int) -> np.ndarray:
    out = _grover(a)
    out[..., target] = -a[..., target]
    return out


def _flip_table(n: int) -> np.ndarray:
    x = np.arange(1 << n)
    return x[None, :] ^ (1 << np.arange(n))[:, None]


def walk_steps(tau: int, walk: str) -> int:
    """Applications of the step operator for a budget of tau shift rounds."""
    return tau if walk == PLAIN else tau // 2


@lru_cache(maxsize=8)
def _kernel(n: int, tau: int, walk: str) -> np.ndarray:
    """K[d, y] for the mark at 0 and the uniform coin; shape (n, N), real."""
    N = 1 << n
    flip = _flip_table(n)
    k = np.zeros((n, n, N))
    k[np.arange(n), np.arange(n), 0] = 1.0          # batch b holds |b, 0>
    for _ in range(walk_steps(tau, walk)):
        if walk == TWO_SHIFT:
            k = _grover(_shift(k, flip))
            k = _shift(k, flip)
        else:
            k = _shift(k, flip)
        k = _marked_coin(k, 0)
    K = k.sum(axis=1) / math.sqrt(n)
    K.flags.writeable = False
    return K


def target_amplitudes(psi: np.ndarray, tau: int, walk: str,
                      targets: np.ndarray) -> np.ndarray:
    """Final amplitudes <d, t| U_t^s |c (x) psi> for each t; shape (n, len(targets))."""
    psi = np.asarray(psi, dtype=np.complex128)
    n = int(psi.size).bit_length() - 1
    K = _kernel(n, tau, walk)
    shifted = psi[np.arange(psi.size)[:, None] ^ np.asarray(targets)[None, :]]
    return K @ shifted


def target_probabilities(psi: np.ndarray, tau: int, walk: str,
                         targets: np.ndarray) -> np.ndarray:
    """Vertex success probability for each marked vertex in `targets`."""
    amp = target_amplitudes(psi, tau, walk, targets)
    return np.sum(np.abs(amp) ** 2, axis=0)


# ---------------------------------------------------------------------------
# closed forms

def optimal_tau(n: int, walk: str) -> int:
    """Step budget of the 'optimal' rule for a walk on n directions."""
    if walk == PLAIN:
        return round((math.pi / 2.0) * math.sqrt(2.0 ** (n - 1)))
    return round((math.pi / (2.0 * math.sqrt(2.0))) * math.sqrt(2.0 ** n))


def parity(N: int) -> np.ndarray:
    return np.array([bin(x).count("1") & 1 for x in range(N)])


def coherence(psi: np.ndarray) -> float:
    return float(abs(np.sum(psi)) ** 2 / psi.size)


def even_coherence(psi: np.ndarray) -> float:
    even = parity(psi.size) == 0
    return float(abs(np.sum(psi[even])) ** 2 / np.count_nonzero(even))


def peak_weight(psi: np.ndarray) -> float:
    return float(np.max(np.abs(psi) ** 2))


def product_layer(psi: np.ndarray, factors) -> np.ndarray:
    """Apply U_0 (x) ... (x) U_{n-1}; factor j acts on bit j of the vertex."""
    n = len(factors)
    t = np.asarray(psi, dtype=np.complex128).reshape((2,) * n)
    for j, U in enumerate(factors):
        ax = n - 1 - j                      # C order: the last axis is bit 0
        t = np.moveaxis(np.tensordot(U, t, axes=([1], [ax])), 0, ax)
    return t.ravel()


HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
PAULI_X = np.array([[0, 1], [1, 0]])
PAULI_Z = np.array([[1, 0], [0, -1]])


def pauli_frame_state(psi: np.ndarray) -> np.ndarray:
    """The state the skw3 walk runs: H^n P psi, with P sending the largest
    basis weight to |0...0> (X on its set bits, Z elsewhere)."""
    n = int(psi.size).bit_length() - 1
    i = int(np.argmax(np.abs(psi) ** 2))
    letters = [PAULI_X if (i >> j) & 1 else PAULI_Z for j in range(n)]
    return product_layer(product_layer(psi, letters), [HADAMARD] * n)


def ghz_frame_state(n: int, alpha: float) -> np.ndarray:
    """The state the skw2 walk runs for cos(alpha)|0..0> + sin(alpha)|1..1>.

    The best product state is the heavier branch, which the layer sends to
    |+...+>; the lighter branch goes to |-...->. The relative phase the
    optimizer leaves is immaterial: |+...+> gives every target the same
    amplitudes and |-...-> flips them by (-1)^|t|, so the cross term
    averages to zero over targets.
    """
    N = 1 << n
    big, small = sorted((abs(math.cos(alpha)), abs(math.sin(alpha))), reverse=True)
    plus = np.full(N, 1.0 / math.sqrt(N))
    return big * plus + small * plus * (1 - 2 * parity(N))


def envelope(variant: str, n: int) -> float:
    scale = 6.0 if variant.startswith("oskw") else 3.0
    return scale / math.sqrt(2.0 ** n)


def predict(variant: str, f_c: Optional[float], E_g: Optional[float],
            C_f: Optional[float]) -> float:
    """The paper's prediction from a row's measure cells."""
    if variant in ("skw", "skw1"):
        return f_c / 2.0
    if variant == "skw2":
        return (1.0 - E_g * E_g) / 2.0
    if variant == "skw3":
        return (1.0 - C_f * C_f) / 2.0
    if variant in ("oskw", "oskw1"):
        return f_c
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# row checks

@dataclass
class Expect:
    """What the benchmark knows about one row before the program runs.

    `psi` is the input state; `walked`, when set, is the state the walk
    actually starts from, recomputed here, and switches on the reference
    p_avg. `alpha` marks a GHZ row, `tilt` a tilted row. `known_fault`
    names the one check this row is known to fail because of a fault in
    the program.
    """

    experiment_id: str
    variant: str
    n: int
    psi: np.ndarray
    seed: int = 0
    walked: Optional[np.ndarray] = None
    alpha: Optional[float] = None
    tilt: Optional[float] = None
    known_fault: Optional[str] = None


def _cell(row: Mapping[str, str], key: str) -> Optional[float]:
    text = row.get(key, "")
    return float(text) if text not in ("", None) else None


def check_row(row: Mapping[str, str], exp: Expect) -> List[str]:
    """Names of the checks this CSV row fails."""
    bad: List[str] = []
    try:
        variant, n, tau = row["variant"], int(row["n"]), int(row["tau"])
        f_c, E_g, C_f = _cell(row, "f_c"), _cell(row, "E_g"), _cell(row, "C_f")
        p_avg, p_pred = float(row["p_avg"]), float(row["p_pred"])
        abs_dev, leaked = float(row["abs_dev"]), _cell(row, "leaked_weight")
    except (KeyError, TypeError, ValueError):
        return ["row format"]
    if (row.get("experiment_id") != exp.experiment_id or variant != exp.variant
            or n != exp.n):
        return ["row identity"]
    two_shift = variant.startswith("oskw")
    walk = TWO_SHIFT if two_shift else PLAIN
    if tau != optimal_tau(n, walk):
        bad.append("tau")

    psi = np.asarray(exp.psi, dtype=np.complex128)
    if two_shift:
        even = parity(psi.size) == 0
        kept = float(np.sum(np.abs(psi[even]) ** 2))
        walked = np.where(even, psi, 0) / math.sqrt(kept)
        if leaked is None or abs(leaked - (1.0 - kept)) > TOL_EXACT:
            bad.append("leaked_weight")
        if f_c is None or abs(f_c - even_coherence(walked)) > TOL_EXACT:
            bad.append("f_c")
    else:
        walked = exp.walked
        if f_c is None or abs(f_c - coherence(psi)) > TOL_EXACT:
            bad.append("f_c")
    if C_f is not None and abs(C_f * C_f - (1.0 - peak_weight(psi))) > TOL_EXACT:
        bad.append("C_f")
    if variant in ("skw2", "skw3") and C_f is None:
        bad.append("C_f")
    if variant == "skw2" and E_g is None:
        bad.append("E_g")
    if E_g is not None and C_f is not None and E_g * E_g > C_f * C_f + TOL_EXACT:
        bad.append("E_g <= C_f")
    if exp.alpha is not None and (
            E_g is None or abs(E_g * E_g - min(math.cos(exp.alpha) ** 2,
                                               math.sin(exp.alpha) ** 2)) > TOL_OPT):
        bad.append("E_g closed form")
    if exp.tilt is not None and (
            C_f is None or abs(C_f * C_f - (1.0 - exp.tilt)) > TOL_EXACT):
        bad.append("C_f closed form")

    try:
        if abs(p_pred - predict(variant, f_c, E_g, C_f)) > TOL_PRED:
            bad.append("p_pred")
    except TypeError:
        bad.append("p_pred")
    if abs(abs_dev - abs(p_avg - p_pred)) > TOL_PRED:
        bad.append("abs_dev")
    if walked is not None and abs(np.vdot(walked, walked).real - 1.0) > TOL_EXACT:
        bad.append("walked norm")
    if variant == "skw2" and walked is not None and E_g is not None and \
            abs(coherence(walked) - (1.0 - E_g * E_g)) > TOL_OPT:
        bad.append("layer overlap")
    if walked is not None:
        targets = np.nonzero(parity(psi.size) == 0)[0] if two_shift \
            else np.arange(psi.size)
        ref = float(np.mean(target_probabilities(walked, tau, walk, targets)))
        if abs(p_avg - ref) > TOL_EXACT:
            bad.append("p_avg")
    if abs_dev > envelope(variant, n):
        bad.append("envelope")
    return bad


def read_rows(path) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
