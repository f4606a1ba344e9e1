import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hittime import invariant_state, pure_density, solve_hitting
from hittime.maps import frame_form
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


_DECOMPOSITIONS = ("svd", "cond", "eigvalsh", "eigvals", "cholesky", "solve", "inv", "norm")


@pytest.fixture()
def linalg_calls(monkeypatch):
    """(name, shape) of every call of the numpy.linalg decompositions above, in order.

    The name reads "complex NAME" for a complex matrix.  An ``svd`` call
    records (name, shape, compute_uv); ``norm`` is recorded only for the
    SVD-backed matrix norms (ord 2, -2 or "nuc").  Calls numpy makes inside
    its own functions (the SVD of ``cond`` or ``norm``) are not seen.
    """
    calls = []
    for name in _DECOMPOSITIONS:
        def recorder(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            shape = np.shape(a)
            order = kwargs.get("ord", args[0] if args else None)
            label = f"complex {_name}" if np.iscomplexobj(a) else _name
            if _name == "svd":
                calls.append((label, shape, kwargs.get("compute_uv", True)))
            elif _name != "norm" or (len(shape) == 2 and order in (2, -2, "nuc")):
                calls.append((label, shape))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorder)
    return calls


def survival_matrix(t, sub) -> np.ndarray:
    """M = I - QT in the frame form of ``sub``, built as ``solve_hitting`` builds it."""
    h = frame_form(t, sub.frame)
    return np.eye(h.shape[0]) - sub.mask(h)


def complement_basis(projector_q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of a Hermitian projector."""
    eigval, eigvec = np.linalg.eigh(projector_q)
    return eigvec[:, eigval > 0.5]
