"""Built-in demonstration channels and chains with exactly known answers.

These small instances back the self-test and the golden regression tests:
a unital qubit channel built from two triangular Kraus operators, a
one-parameter channel on M_4 with a two-dimensional arrival subspace whose
hitting times have closed forms, and a couple of elementary chains.  The
golden values of the two channels are defined here once, next to them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .hitting import ArrivalSubspace, subspace_from_indices, subspace_from_vectors
from .maps import SuperOperator, from_kraus

__all__ = [
    "qubit_demo_kraus",
    "qubit_demo_channel",
    "qubit_demo_states",
    "qubit_demo_subspace",
    "qudit_demo_kraus",
    "qudit_demo_channel",
    "qudit_demo_states",
    "qudit_demo_subspace",
    "QUBIT_PHI",
    "QUBIT_OMEGA",
    "QUBIT_Z",
    "QUBIT_PP",
    "QUBIT_QQ",
    "QUBIT_K",
    "QUBIT_K12",
    "qudit_tau_phi",
    "qudit_tau_chi",
    "qudit_psi_term",
    "qudit_phi_term",
    "symmetric_two_state_chain",
    "cycle_chain",
]


def qubit_demo_kraus() -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair (L, R) of the unital qubit demo channel; L*L + R*R = I."""
    s = 1.0 / math.sqrt(3.0)
    left = s * np.array([[1, 1], [0, 1]], dtype=complex)
    right = s * np.array([[1, 0], [-1, 1]], dtype=complex)
    return left, right


def qubit_demo_channel() -> SuperOperator:
    """The qubit demo channel; its unique invariant state is I/2."""
    return from_kraus(qubit_demo_kraus())


def qubit_demo_states() -> dict[str, np.ndarray]:
    """Named pure states: phi, psi (an orthonormal pair) and chi = e_2."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return {
        "phi": np.array([inv_sqrt2, -inv_sqrt2], dtype=complex),
        "psi": np.array([inv_sqrt2, inv_sqrt2], dtype=complex),
        "chi": np.array([0.0, 1.0], dtype=complex),
    }


def qubit_demo_subspace() -> ArrivalSubspace:
    """One-dimensional arrival subspace spanned by psi."""
    return subspace_from_vectors([qubit_demo_states()["psi"]])


# Exact golden matrices of the qubit demo with its subspace: the map
# representation, Omega, the fundamental map Z, the lifted projectors PP and
# QQ, the time map K and its off-diagonal block K12.
QUBIT_PHI = np.array(
    [[2, 1, 1, 1], [-1, 2, 0, 1], [-1, 0, 2, 1], [1, -1, -1, 2]], dtype=float
) / 3.0
QUBIT_OMEGA = np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=float
) / 2.0
QUBIT_Z = np.array(
    [[3, 2, 2, 1], [-2, 8, -4, 2], [-2, -4, 8, 2], [1, -2, -2, 3]], dtype=float
) / 4.0
QUBIT_PP = np.full((4, 4), 0.25)
QUBIT_QQ = np.array(
    [[1, -1, -1, 1], [-1, 1, 1, -1], [-1, 1, 1, -1], [1, -1, -1, 1]], dtype=float
) / 4.0
QUBIT_K = np.array(
    [[39, -12, -12, 9], [-72, 32, 28, -12], [-72, 28, 32, -12], [177, -72, -72, 39]],
    dtype=float,
) / 6.0
QUBIT_K12 = np.array(
    [[-3, 3, 3, -3], [1, -1, -1, 1], [1, -1, -1, 1], [5, -5, -5, 5]], dtype=float
) * 1.5


def qudit_demo_kraus(a: float) -> list[np.ndarray]:
    """Four Kraus operators of the one-parameter demo channel on M_4.

    Requires 0 < a < 1; with b = sqrt(1 - a^2) the mean time from e_1 to
    span{e_3, e_4} is 1 + 1/b^2.
    """
    if not 0.0 < a < 1.0:
        raise ValidationError("parameter a must lie strictly between 0 and 1")
    b = math.sqrt(1.0 - a * a)
    s = 1.0 / math.sqrt(2.0)
    v1 = np.zeros((4, 4), dtype=complex)
    v1[0, 0] = a
    v1[0, 3] = b
    v2 = np.zeros((4, 4), dtype=complex)
    v2[1, 0] = -b
    v2[1, 3] = a
    v3 = np.zeros((4, 4), dtype=complex)
    v3[2, 1] = s
    v3[2, 2] = s
    v4 = np.zeros((4, 4), dtype=complex)
    v4[3, 1] = s
    v4[3, 2] = -s
    return [v1, v2, v3, v4]


def qudit_demo_channel(a: float) -> SuperOperator:
    """The M_4 demo channel; its unique invariant state is I/4."""
    return from_kraus(qudit_demo_kraus(a))


def qudit_demo_states() -> dict[str, np.ndarray]:
    """Named pure states: the subspace basis psi1, psi2, the start phi = e_1
    and the non-orthogonal start chi = (e_1 + e_4) / sqrt(2)."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    eye = np.eye(4, dtype=complex)
    return {
        "psi1": eye[:, 2].copy(),
        "psi2": eye[:, 3].copy(),
        "phi": eye[:, 0].copy(),
        "chi": np.array([inv_sqrt2, 0.0, 0.0, inv_sqrt2], dtype=complex),
    }


def qudit_demo_subspace() -> ArrivalSubspace:
    """Two-dimensional arrival subspace span{e_3, e_4}."""
    return subspace_from_indices(4, [2, 3])


def qudit_tau_phi(a: float) -> float:
    """Mean time from e_1 to span{e_3, e_4}: 1 + 1/b^2."""
    b2 = 1.0 - a * a
    return 1.0 + 1.0 / b2


def qudit_tau_chi(a: float) -> float:
    """Mean time from (e_1 + e_4)/sqrt(2): 2 (1 + a/(2b) + 1/(4b^2))."""
    b = math.sqrt(1.0 - a * a)
    return 2.0 * (1.0 + a / (2 * b) + 1.0 / (4 * b * b))


def qudit_psi_term(a: float) -> float:
    """Return-side summand of the hitting-time formula: (1 + 6b^2) / (4b^2)."""
    b2 = 1.0 - a * a
    return (1.0 + 6.0 * b2) / (4.0 * b2)


def qudit_phi_term(a: float) -> float:
    """Start-side summand of the hitting-time formula: (2b^2 - 3) / (4b^2)."""
    b2 = 1.0 - a * a
    return (2.0 * b2 - 3.0) / (4.0 * b2)


def symmetric_two_state_chain(p: float) -> np.ndarray:
    """Column-stochastic 2-state chain that switches state with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError("switch probability must lie in [0, 1]")
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def cycle_chain(n: int) -> np.ndarray:
    """Deterministic cycle on n states, j -> j + 1 (mod n), column-stochastic."""
    if n < 1:
        raise ValidationError("cycle length must be positive")
    p = np.zeros((n, n))
    for j in range(n):
        p[(j + 1) % n, j] = 1.0
    return p
