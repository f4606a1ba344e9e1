"""The paper's block matrices of operators, built densely as the paper states them.

Every answer of the library is a covector solve (:mod:`hittime.hitting`,
:mod:`hittime.fundamental`); this module is the dense reference route that
``selftest`` and the tests check those answers and the printed golden
matrices against.  Each object is a d x d matrix, d = n^2, acting on
row-stacked vecs:

- ``lift(P)`` = kron(P, conj(P)), the map X -> P X P*; PP and QQ are the lifts
  of the subspace projectors and RR = I - PP - QQ;
- ``omega(pi)`` = |pi><I|, the map rho -> Tr(rho) pi;
- ``fundamental(fd)`` = Z = (I - T + Omega)^{-1};
- ``hitting_maps`` = H = T (I - QT)^{-1} and K = T (I - QT)^{-2};
- ``block(X, subspace, i, j)`` = X_ij for the pair I - QQ (index 1), QQ (2);
- ``dnl`` = D = K_11 + K_22, N = K - D and L = K - N T.

Nothing on the answer path imports this module.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .fundamental import FundamentalData
from .hitting import ArrivalSubspace, _survival_resolvent
from .linalg import frobenius, vec
from .maps import SuperOperator, as_density

__all__ = [
    "lift", "omega", "fundamental", "hitting_maps", "block", "dnl", "fundamental_identities",
]


def lift(p: np.ndarray) -> np.ndarray:
    """kron(P, conj(P)), the representation of X -> P X P*."""
    return np.kron(p, p.conj())


def omega(pi) -> np.ndarray:
    """vec(pi) vec(I)^T, the representation of rho -> Tr(rho) pi."""
    state = as_density(pi)
    return np.outer(vec(state.matrix), vec(np.eye(state.dim)))


def fundamental(fd: FundamentalData) -> np.ndarray:
    """The dense Z; column j of the solve against the identity is row j of Z."""
    return fd.z_covector(np.eye(fd.a_rep.shape[0])).T


def hitting_maps(
    t: SuperOperator, subspace: ArrivalSubspace
) -> tuple[np.ndarray, np.ndarray]:
    """H = T (I - QT)^{-1} and K = T (I - QT)^{-2}, by two successive solves.

    I - QT comes from the answer path, with its refusals: the monitored
    evolution must contract and the resolvent be well conditioned.
    """
    m, _, _ = _survival_resolvent(t, subspace)
    h = np.linalg.solve(m.T, t.rep.T).T
    k = np.linalg.solve(m.T, h.T).T
    return h, k


def block(rep: np.ndarray, subspace: ArrivalSubspace, i: int, j: int) -> np.ndarray:
    """Full-size block of the decomposition induced by I - QQ (index 1) and QQ (2)."""
    if i not in (1, 2) or j not in (1, 2):
        raise ValidationError("block indices must be 1 or 2")
    qq = lift(subspace.projector_q)
    eye = np.eye(rep.shape[0])
    left = eye - qq if i == 1 else qq
    right = eye - qq if j == 1 else qq
    return left @ rep @ right


def dnl(
    k: np.ndarray, t: SuperOperator, subspace: ArrivalSubspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal part D of K, off-diagonal part N = K - D, and L = K - N T."""
    d = block(k, subspace, 1, 1) + block(k, subspace, 2, 2)
    n = k - d
    return d, n, k - n @ t.rep


def fundamental_identities(fd: FundamentalData, t: SuperOperator) -> dict[str, float]:
    """Frobenius residuals of the algebraic identities of Z and Omega."""
    om, z, rep = omega(fd.pi), fundamental(fd), t.rep
    eye = np.eye(rep.shape[0])
    vec_eye = vec(np.eye(fd.pi.dim))
    return {
        "omega_idempotent": frobenius(om @ om - om),
        "phi_omega": frobenius(rep @ om - om),
        "omega_phi": frobenius(om @ rep - om),
        "z_omega": frobenius(z @ om - om),
        "omega_z": frobenius(om @ z - om),
        "z_one_minus_phi": frobenius(z @ (eye - rep) - (eye - om)),
        "one_minus_phi_z": frobenius((eye - rep) @ z - (eye - om)),
        "z_inverse": frobenius(z @ (eye - rep + om) - eye),
        "z_trace_preserving": frobenius(z.conj().T @ vec_eye - vec_eye),
        "omega_trace_preserving": frobenius(om.conj().T @ vec_eye - vec_eye),
    }
