"""Independent ground truth for hitting quantities.

The monitored-evolution series evaluates first-visit probabilities directly
from their definition,

    pi_r = Tr(P T (Q T)^{r-1} rho),    tau = sum_r r pi_r,

by iterating the survival map, without touching the resolvent solves used by
the hitting module.  A Monte-Carlo trajectory estimator provides a second,
statistical oracle for classical chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ValidationError
from .hitting import ArrivalSubspace
from .linalg import DEFAULT_TOL, MIN_SPECTRAL_GAP, Tolerance, survival_radius, vec
from .maps import SuperOperator, as_density, validate_column_stochastic

__all__ = [
    "FirstVisitDistribution",
    "MonteCarloEstimate",
    "first_visit_series",
    "tau_series",
    "classical_monte_carlo",
]

_MAX_SERIES_TERMS = 1_000_000
# Gathered cumulative entries per Monte-Carlo block, so one step needs
# O(trials) memory whatever the number of states.
_MC_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class FirstVisitDistribution:
    """First-visit probabilities pi_1 .. pi_{r_max} with a geometric tail bound."""

    probabilities: np.ndarray
    tail_bound: float
    r_max: int


@dataclass(frozen=True, eq=False)
class MonteCarloEstimate:
    """Sample mean and standard error of a trajectory simulation."""

    mean: float
    std_error: float
    trials: int
    seed: int


def _survival_data(t: SuperOperator, subspace: ArrivalSubspace, rho, tol: Tolerance | None):
    """vec(rho), QT, the arrival covector e PP T = vec(conj(P))^T T and the radius of QT."""
    sigma = vec(as_density(rho, tol).matrix)
    radius = survival_radius(t.rep, subspace.complement_basis)
    if radius >= 1.0 - MIN_SPECTRAL_GAP:
        raise NonConvergenceError(
            f"monitored series does not converge: spectral radius of the "
            f"survival map is {radius:.12g} (map not irreducible)"
        )
    return sigma, subspace.compress(t.rep), vec(subspace.projector_p.conj()) @ t.rep, radius


def first_visit_series(
    t: SuperOperator,
    subspace: ArrivalSubspace,
    rho,
    r_max: int,
    tol: Tolerance | None = None,
) -> FirstVisitDistribution:
    """First r_max terms of the first-visit distribution of ``rho``.

    The tail bound dominates the probability mass beyond r_max and decreases
    geometrically in r_max while the survival map contracts.
    """
    if r_max < 1:
        raise ValidationError("r_max must be at least 1")
    sigma, qphi, arrival, radius = _survival_data(t, subspace, rho, tol)
    probs = np.empty(r_max)
    for r in range(r_max):
        probs[r] = (arrival @ sigma).real
        sigma = qphi @ sigma
    tail = float(np.linalg.norm(sigma, 1)) / (1.0 - radius)
    return FirstVisitDistribution(probs, tail, r_max)


def tau_series(
    t: SuperOperator,
    subspace: ArrivalSubspace,
    rho,
    tol: Tolerance | None = None,
    max_terms: int = _MAX_SERIES_TERMS,
) -> float:
    """Mean hitting time by direct summation of r * pi_r.

    Truncates once the geometric tail estimate of the remaining sum drops
    below atol / 10, so the series error is dominated by any comparison
    tolerance down to atol.
    """
    if tol is None:
        tol = DEFAULT_TOL
    sigma, qphi, arrival, radius = _survival_data(t, subspace, rho, tol)
    gap = 1.0 - radius
    target = tol.atol / 10.0
    total = 0.0
    r = 0
    while True:
        r += 1
        if r > max_terms:
            raise NonConvergenceError(
                f"series did not reach the target accuracy in {max_terms} terms "
                f"(spectral radius {radius:.12g})"
            )
        total += r * (arrival @ sigma).real
        sigma = qphi @ sigma
        # np.abs(sigma).sum() is the 1-norm of sigma, without norm's dispatch.
        tail = np.abs(sigma).sum() * ((r + 1) * gap + radius) / (gap * gap)
        if tail < target:
            return float(total)


def classical_monte_carlo(
    p,
    start,
    target,
    trials: int,
    seed: int,
    step_cap: int = 10_000_000,
    tol: Tolerance | None = None,
) -> MonteCarloEstimate:
    """Trajectory estimate of the mean first-visit time of a classical chain.

    ``p`` is column-stochastic (column j is the outgoing distribution of
    state j).  ``start`` is a 0-based state index or an initial distribution;
    ``target`` a set of 0-based state indices.  The first visit is counted at
    step r >= 1, so a start inside the target records the return time.  The
    RNG is numpy PCG64 seeded with ``seed``; results are deterministic.
    """
    arr = validate_column_stochastic(p, tol)
    n = arr.shape[0]
    target_set = sorted(set(int(i) for i in target))
    if not target_set:
        raise ValidationError("target set must be nonempty")
    if target_set[0] < 0 or target_set[-1] >= n:
        raise ValidationError(f"target indices must lie in [0, {n - 1}]")
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    rng = np.random.default_rng(int(seed))
    if np.isscalar(start):
        s0 = int(start)
        if s0 < 0 or s0 >= n:
            raise ValidationError(f"start index must lie in [0, {n - 1}]")
        states = np.full(trials, s0, dtype=np.int64)
    else:
        dist = np.asarray(start, dtype=float).reshape(-1)
        if dist.size != n:
            raise ValidationError("start distribution length does not match the chain")
        if not (dist.min() >= 0 and abs(dist.sum() - 1.0) <= 1e-9):  # NaN, inf fail too
            raise ValidationError("start distribution must be non-negative and sum to 1")
        states = rng.choice(n, size=trials, p=dist / dist.sum()).astype(np.int64)

    # Row s holds the cumulative outgoing distribution of state s.  Clipping
    # the entries validation lets through in [-atol, 0) keeps every row
    # monotone, so a state of negative weight is never drawn.
    cum = np.cumsum(np.maximum(arr, 0.0), axis=0).T.copy()
    cum[:, -1] = 1.0  # guard against float round-off at the top
    block = max(1, _MC_BLOCK_ENTRIES // n)
    in_target = np.zeros(n, dtype=bool)
    in_target[target_set] = True

    times = np.zeros(trials, dtype=np.int64)
    alive = np.ones(trials, dtype=bool)
    step = 0
    while alive.any():
        step += 1
        if step > step_cap:
            raise NonConvergenceError(
                f"{int(alive.sum())} trajectories exceeded the step cap {step_cap}"
            )
        idx = np.flatnonzero(alive)
        cur = states[idx]
        draws = rng.random(idx.size)
        # The count of cumulative entries <= the draw is what
        # searchsorted(side="right") returns on a monotone row.
        nxt = np.empty_like(cur)
        for lo in range(0, idx.size, block):
            rows = slice(lo, lo + block)
            nxt[rows] = (cum[cur[rows]] <= draws[rows, None]).sum(axis=1)
        states[idx] = nxt
        hit = in_target[nxt]
        times[idx[hit]] = step
        alive[idx[hit]] = False

    mean = float(times.mean())
    if trials > 1:
        std_error = float(times.std(ddof=1) / np.sqrt(trials))
    else:
        std_error = 0.0
    return MonteCarloEstimate(mean, std_error, trials, int(seed))
