import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hittime import invariant_state, pure_density, solve_hitting
from hittime.examples import (
    qubit_demo_channel,
    qubit_demo_states,
    qubit_demo_subspace,
    qudit_demo_channel,
    qudit_demo_states,
    qudit_demo_subspace,
)


@pytest.fixture(scope="session")
def qubit_channel():
    return qubit_demo_channel()


@pytest.fixture(scope="session")
def qubit_pi(qubit_channel):
    return invariant_state(qubit_channel).fundamental_pi()


@pytest.fixture(scope="session")
def qubit_solution(qubit_channel):
    return solve_hitting(qubit_channel, qubit_demo_subspace())


@pytest.fixture(scope="session")
def qubit_states():
    states = qubit_demo_states()
    return {name: pure_density(vec) for name, vec in states.items()}


@pytest.fixture(scope="session")
def qudit_solution_06():
    return solve_hitting(qudit_demo_channel(0.6), qudit_demo_subspace())


@pytest.fixture(scope="session")
def qudit_states():
    states = qudit_demo_states()
    return {name: pure_density(vec) for name, vec in states.items()}


def complement_basis(projector_q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of a Hermitian projector."""
    eigval, eigvec = np.linalg.eigh(projector_q)
    return eigvec[:, eigval > 0.5]
