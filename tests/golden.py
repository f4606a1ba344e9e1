"""Frozen golden data for the demo channels.

The qubit matrices are exact rationals; the M4 time-map quadrants and
hitting times are closed forms in the channel parameter.  Expected values
were verified independently before being frozen, and the tests compare the
library output against them rather than against anything the library
computes.  The values the embedded self-test also checks are defined once in
``hittime.examples``; the rest are test-only and defined here.
"""

import numpy as np

from hittime.examples import (  # noqa: F401  (re-exported golden values)
    QUBIT_K,
    QUBIT_K12,
    QUBIT_OMEGA,
    QUBIT_PHI,
    QUBIT_PP,
    QUBIT_QQ,
    QUBIT_Z,
    qudit_phi_term,
    qudit_psi_term,
    qudit_tau_chi,
    qudit_tau_phi,
)


def qudit_k_expected(a: float) -> np.ndarray:
    """Expected 16x16 time-map representation of the M4 demo channel."""
    b = np.sqrt(1.0 - a * a)
    a1 = np.zeros((8, 8))
    a1[0, 0] = a**2 / b**4
    a1[0, 3] = a / b**3
    a1[5, 0] = 1 / b**2
    a1[5, 3] = a / b
    a2 = np.zeros((8, 8))
    a2[0, 4] = a / b**3
    a2[0, 7] = 1 / b**2
    a2[5, 4] = a / b
    a2[5, 7] = 2.0
    a3 = np.zeros((8, 8))
    a3[2, 0] = (1 + b**2) / (2 * b**2)
    a3[2, 3] = a / (2 * b)
    a3[2, 5] = 0.5
    a3[2, 6] = 0.5
    a3[7, 0] = (1 + b**2) / (2 * b**2)
    a3[7, 3] = a / (2 * b)
    a3[7, 5] = 0.5
    a3[7, 6] = -0.5
    a4 = np.zeros((8, 8))
    a4[2, 1] = 0.5
    a4[2, 2] = 0.5
    a4[2, 4] = a / (2 * b)
    a4[2, 7] = 1.5
    a4[7, 1] = -0.5
    a4[7, 2] = 0.5
    a4[7, 4] = a / (2 * b)
    a4[7, 7] = 1.5
    return np.block([[a1, a2], [a3, a4]])


def two_state_z(p: float) -> np.ndarray:
    """Hand-derived fundamental matrix of the symmetric 2-state chain."""
    return np.array([[p + 0.5, p - 0.5], [p - 0.5, p + 0.5]]) / (2.0 * p)
