r"""Classical irreducible Markov chains and their hitting-time formulas.

Everything is phrased in the column-stochastic convention: ``p[i, j]`` is the
probability of the transition j -> i, so one step maps a distribution x to
``p @ x``.  The fundamental matrix

    Z = (I - P + Omega)^{-1},    Omega[:, j] = pi,

turns mean hitting times into matrix lookups:

    E_i T_j = (Z[j, j] - Z[j, i]) / pi[j]            (i != j)
    tau(j -> j) = 1 / pi[j]                          (mean return time)
    tau(x -> j) = 1 + (Z[j, j] - (Z P x)[j]) / pi[j] (distribution start)
    tau(i -> S) = sum_{k in S} (Z[k, j] - Z[k, i]) tau(k -> S),  any j in S.

Everything works on the n x n chain.  The subset return times tau(k -> S)
come from a first-step solve on the complement C of S,

    h = (I - P[C, C]^T)^{-1} 1,    tau(k -> S) = 1 + P[C, k] . h,

which never touches Z, so the anchor independence of the last formula
cross-checks Z against an independent solve.  State indices are 0-based
here; the command-line layer converts from the 1-based indices used in files
and messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, PreconditionError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    bordered,
    bordered_solve,
    fixed_space,
    singular_bounds,
    start_distribution,
)
from .maps import validate_column_stochastic

__all__ = [
    "MarkovChain",
    "SubsetHitting",
    "build_chain",
    "classical_mhtf",
    "kac_return_time",
    "classical_mhtf_distribution",
    "classical_mhtf_subset",
]

# Relative to the largest summand |Z[k, j] tau(k -> S)| of the anchor sums.
_J_INDEPENDENCE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Validated irreducible chain with stationary distribution and fundamental matrix."""

    n: int
    p: np.ndarray
    pi: np.ndarray
    z: np.ndarray


@dataclass(frozen=True, eq=False)
class SubsetHitting:
    """Mean time to reach a subset, with the per-state return times used."""

    tau: float
    return_times: dict[int, float]
    j_independence_residual: float


def build_chain(p, tol: Tolerance = DEFAULT_TOL) -> MarkovChain:
    """Validate a column-stochastic matrix and build its fundamental matrix.

    The chain must be irreducible: the eigenvalue-1 eigenspace of P must be
    one-dimensional with a strictly positive stationary vector.  pi comes
    from one bordered solve (:func:`~hittime.linalg.bordered_solve`), and
    :func:`~hittime.linalg.singular_bounds` of A = I - P + pi 1^T certify
    the dimension, as for maps; otherwise
    :func:`~hittime.linalg.fixed_space` decides.  Z is the inverse of A.
    """
    # A C-ordered copy: the chain owns its matrix, and a transposed view (a
    # row-oriented file) gives bit for bit the products a column file gives.
    arr = validate_column_stochastic(p, tol).copy()
    n = arr.shape[0]
    e = np.ones(n)
    try:
        pi = bordered_solve(arr, e)
        a = bordered(arr, pi, e)
        certified = singular_bounds(a, arr, tol, True) is not None
    except np.linalg.LinAlgError:
        certified = False
    if not certified:
        basis = fixed_space(arr, tol)
        if len(basis) != 1:
            raise ValidationError(
                f"chain is not irreducible: stationary space has dimension {len(basis)}"
            )
        pi = basis[0] / basis[0].sum()
        a = bordered(arr, pi, e)
    if pi.min() <= tol.atol:
        raise ValidationError(
            f"chain is not irreducible: stationary distribution has a "
            f"non-positive entry ({pi.min():.3e})"
        )
    z = np.linalg.solve(a, np.eye(n))
    return MarkovChain(n, arr, pi, z)


def _check_state(mc: MarkovChain, label: str, idx: int) -> int:
    i = int(idx)
    if i < 0 or i >= mc.n:
        raise ValidationError(f"{label} must lie in [0, {mc.n - 1}], got {i}")
    return i


def classical_mhtf(mc: MarkovChain, i: int, j: int) -> float:
    """Mean time of first visit to state j starting from state i (i != j)."""
    i = _check_state(mc, "initial state", i)
    j = _check_state(mc, "target state", j)
    if i == j:
        raise PreconditionError(
            "initial and target state coincide; use kac_return_time for "
            "mean return times"
        )
    return float((mc.z[j, j] - mc.z[j, i]) / mc.pi[j])


def kac_return_time(mc: MarkovChain, j: int) -> float:
    """Mean return time of state j, 1 / pi_j."""
    j = _check_state(mc, "state", j)
    return float(1.0 / mc.pi[j])


def classical_mhtf_distribution(
    mc: MarkovChain, x, j: int, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Mean time to reach state j when the start is drawn from distribution x, judged under ``tol``."""
    j = _check_state(mc, "target state", j)
    dist = start_distribution(x, mc.n, tol)
    reached = mc.z @ (mc.p @ dist)
    return float(1.0 + (mc.z[j, j] - reached[j]) / mc.pi[j])


def _first_step_return_times(p: np.ndarray, states: list[int]) -> dict[int, float]:
    """Return times tau(k -> S) for k in S from the first-step system on C."""
    rest = np.setdiff1d(np.arange(p.shape[0]), states)
    try:
        h = np.linalg.solve(
            np.eye(rest.size) - p[np.ix_(rest, rest)].T, np.ones(rest.size)
        )
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"first-step system on the complement of the subset is singular ({exc})"
        ) from exc
    taus = 1.0 + p[np.ix_(rest, states)].T @ h
    if not np.all(np.isfinite(taus)):
        raise NumericError(
            "first-step system on the complement of the subset gave non-finite "
            "return times"
        )
    return {k: float(t) for k, t in zip(states, taus)}


def classical_mhtf_subset(
    mc: MarkovChain,
    i: int,
    subset,
) -> SubsetHitting:
    """Mean time to reach a subset of states from outside it.

    The per-state return times tau(k -> S) come from the first-step system on
    the complement of S.  The defining sum is evaluated for every anchor
    state j in S; its independence of j is verified to ``_J_INDEPENDENCE_TOL`` relative to
    the largest summand |Z[k, j] tau(k -> S)|, since the sums grow with the
    return times, and the (absolute) spread of the sums is reported.
    """
    i = _check_state(mc, "initial state", i)
    states = sorted(set(_check_state(mc, "subset state", k) for k in subset))
    if not states:
        raise PreconditionError("subset must be nonempty")
    if len(states) >= mc.n:
        raise PreconditionError("subset must be a proper subset of the states")
    if i in states:
        raise PreconditionError("initial state must lie outside the subset")

    return_times = _first_step_return_times(mc.p, states)
    sums = [sum(mc.z[k, j] * return_times[k] for k in states) for j in states]
    residual = float(max(sums) - min(sums))
    bound = _J_INDEPENDENCE_TOL * max(abs(mc.z[k, j] * return_times[k]) for k in states for j in states)
    if not residual <= bound:  # a NaN residual fails too
        raise NumericError(
            f"anchor-state independence violated: sums over the subset spread "
            f"by {residual:.3e} (tolerance {_J_INDEPENDENCE_TOL:.1e} relative to the largest "
            f"summand, {bound:.3e})"
        )
    j0 = states[0]
    tau = float(
        sum((mc.z[k, j0] - mc.z[k, i]) * return_times[k] for k in states)
    )
    return SubsetHitting(tau, return_times, residual)
