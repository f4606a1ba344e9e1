"""Expected answers, computed with numpy formulas the package does not use.

Quantum mean hitting time: the walk survives step r with the compressed state
(QQ T)^r rho, so the time of the first visit is the sum of the survival
probabilities,

    tau = sum_{r >= 0} Tr((QQ T)^r rho) = <vec(I), (I - QQ T)^{-1} vec(rho)>.

Classical times come from the first-step system on the complement C of the
target: h_c = 1 + sum_{k in C} P(c -> k) h_k, that is (I - P_CC^T) h = 1 for a
column-stochastic P.  Return times and starts drawn from a distribution take
one explicit step before entering h.

Vectorization is row-stacking, vec(A X B^T) = kron(A, B) vec(X), the
convention of the map files.
"""

from __future__ import annotations

import numpy as np


def kraus_rep(kraus) -> np.ndarray:
    """Representation matrix of X -> sum_i V_i X V_i*."""
    return sum(np.kron(v, v.conj()) for v in kraus)


def stochastic_rep(p: np.ndarray) -> np.ndarray:
    """Representation of the diagonal embedding diag(x) -> diag(P x)."""
    n = p.shape[0]
    rep = np.zeros((n * n, n * n), dtype=complex)
    diag = np.arange(n) * (n + 1)
    rep[np.ix_(diag, diag)] = p
    return rep


def projector(vectors) -> np.ndarray:
    """Orthogonal projector onto the span of the given vectors (full column rank)."""
    q, _ = np.linalg.qr(np.column_stack(vectors))
    return q @ q.conj().T


def mean_hitting_time(rep: np.ndarray, p_proj: np.ndarray, rho: np.ndarray) -> float:
    """Sum of survival probabilities of the walk monitored for range(p_proj)."""
    n = p_proj.shape[0]
    q = np.eye(n) - p_proj
    survival = np.kron(q, q.conj()) @ rep
    x = np.linalg.solve(np.eye(n * n) - survival, rho.reshape(-1))
    return float(np.real(np.eye(n).reshape(-1) @ x))


def invariant_state(rep: np.ndarray) -> np.ndarray:
    """Unit-trace fixed point of the map, by least squares on (T - I) x = 0, Tr x = 1."""
    d = rep.shape[0]
    n = int(round(d**0.5))
    system = np.vstack([rep - np.eye(d), np.eye(n).reshape(1, -1)])
    rhs = np.zeros(d + 1, dtype=complex)
    rhs[-1] = 1.0
    x = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return x.reshape(n, n)


def stationary(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of a column-stochastic P: (P - I) pi = 0, sum pi = 1."""
    n = p.shape[0]
    system = np.vstack([p - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    return np.linalg.lstsq(system, rhs, rcond=None)[0]


def first_step_times(p: np.ndarray, target) -> tuple[np.ndarray, np.ndarray]:
    """Mean hitting times h of the target from every state of the complement C.

    Returns (complement indices, h).  ``p`` is column-stochastic.
    """
    comp = np.setdiff1d(np.arange(p.shape[0]), np.asarray(target))
    p_cc = p[np.ix_(comp, comp)]
    h = np.linalg.solve(np.eye(comp.size) - p_cc.T, np.ones(comp.size))
    return comp, h


def classical_time(p: np.ndarray, start, target) -> float:
    """Mean time of the first visit to ``target`` at a step r >= 1.

    ``start`` is a state index or a distribution; a start inside the target
    gives the return time.
    """
    comp, h = first_step_times(p, target)
    if np.isscalar(start):
        if start in comp:
            return float(h[np.flatnonzero(comp == start)[0]])
        x = np.eye(p.shape[0])[start]
    else:
        x = np.asarray(start, dtype=float)
    return float(1.0 + (p @ x)[comp] @ h)
