"""Independent ground truth for hitting quantities.

The monitored-evolution series evaluates first-visit probabilities directly
from their definition,

    pi_r = Tr(P T (Q T)^{r-1} rho),    tau = sum_r r pi_r,

by iterating the survival map, b terms per step, without touching the
resolvent solves used by the hitting module: the series builds its own frame
form of the map (:func:`~hittime.hitting.frame_form`), in whose Hermitian
basis QT of a positive map is real and Q a coordinate mask.  A Monte-Carlo
trajectory estimator provides a second, statistical oracle for classical chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ValidationError
from .hitting import ArrivalSubspace, frame_form
from .linalg import DEFAULT_TOL, MIN_SPECTRAL_GAP, Tolerance, start_distribution, survival_radius
from .linalg import _EPS, _to_hermitian_coords
from .maps import SuperOperator, as_density, validate_column_stochastic

__all__ = ["MonteCarloEstimate", "tau_series", "classical_monte_carlo"]

_MAX_SERIES_TERMS = 1_000_000
_MC_STEP_CAP = 10_000_000
# Gathered cumulative entries per Monte-Carlo block, so one step needs
# O(trials) memory whatever the number of states.
_MC_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class MonteCarloEstimate:
    """Sample mean and standard error of a trajectory simulation."""

    mean: float
    std_error: float
    trials: int
    seed: int


def _survival_data(t: SuperOperator, subspace: ArrivalSubspace, rho, tol: Tolerance):
    """Frame coordinates of rho, QT and e PP T = coords(P) h; the radius of QT."""
    sigma = subspace.coords(as_density(rho, tol).matrix)
    h = frame_form(t, subspace)
    radius = survival_radius(h[np.ix_(subspace.kept, subspace.kept)], t.provenance == "kraus")
    if radius >= 1.0 - MIN_SPECTRAL_GAP:
        raise NonConvergenceError(
            f"monitored series does not converge: spectral radius of the "
            f"survival map is {radius:.12g} (map not irreducible)"
        )
    e = _to_hermitian_coords(np.eye(t.dim))
    return sigma, subspace.mask(h), (e - subspace.mask(e)) @ h, radius


def _block_size(d: int, terms: float) -> int:
    """The power of two b = 2^k that minimizes a cost model of ``terms`` terms.

    In matvec multiply-adds, a matmul doing four per one of a matvec and each
    Python step paying an overhead worth a 160 x 160 matvec: the k squarings
    and the row doubling cost (k d + b) d^2 / 4 plus k overheads, and each of
    the terms / b + 1 steps d^2 + b d plus one overhead.
    """
    o = 160**2
    return 2 ** min(range(16), key=lambda k: (k * d + 2**k) * d * d / 4 + k * o
                    + (terms / 2**k + 1) * (d * d + 2**k * d + o))


def _blocks(sigma, step, arrival, b: int, terms: int):
    """Yield (r, p, bound) per block of at most b terms, up to ``terms`` terms.

    p holds the block's probabilities from the rows a M^k, k < b, r the terms
    taken so far and bound an upper bound on ||vec W* X W||_1, X = (QT)^r rho
    in the frame W, which bounds the survival mass Tr X of a positive X.
    A full block advances by M^b, a partial last one by single steps.
    """
    power, rows = step, arrival[None, :]
    while rows.shape[0] < b:
        rows = np.concatenate([rows, rows @ power])
        power = power @ power
    # In the Hermitian basis (diagonal first) x_ij, x_ji = (s +- i a) / sqrt(2),
    # so |x_ij| + |x_ji| <= sqrt(2) (|s| + |a|), complex s, a too: |c| @ weights
    # bounds ||vec X||_1, on real coordinates by at most sqrt(2) times it.
    weights = np.full(sigma.size, math.sqrt(2))
    weights[: math.isqrt(sigma.size)] = 1.0
    for r in range(0, terms, b):
        k = min(b, terms - r)
        p = (rows[:k] @ sigma).real
        if k == b:
            sigma = power @ sigma
        else:
            for _ in range(k):
                sigma = step @ sigma
        yield r + k, p, np.abs(sigma) @ weights


def tau_series(
    t: SuperOperator,
    subspace: ArrivalSubspace,
    rho,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Mean hitting time by direct summation of r * pi_r.

    Truncates at the first block end where the geometric tail estimate of the
    remaining sum drops below atol / 10, so the series error is dominated by
    any comparison tolerance down to atol.  The target is floored at
    4 eps times the running total, its rounding level, so atol = 0 ends too.
    """
    sigma, step, arrival, radius = _survival_data(t, subspace, rho, tol)
    gap = 1.0 - radius
    target = tol.atol / 10.0
    terms = math.log(max(target, _EPS)) / math.log(radius) if radius > 0 else 1.0
    b = _block_size(sigma.size, min(terms, _MAX_SERIES_TERMS))
    total = 0.0
    for r, p, norm in _blocks(sigma, step, arrival, b, _MAX_SERIES_TERMS):
        total += np.arange(r - p.size + 1.0, r + 1.0) @ p
        tail = norm * ((r + 1) * gap + radius) / (gap * gap)
        if tail < max(target, 4 * _EPS * abs(total)):
            return float(total)
    raise NonConvergenceError(
        f"series did not reach the target accuracy in {_MAX_SERIES_TERMS} terms "
        f"(spectral radius {radius:.12g})"
    )


def classical_monte_carlo(
    p,
    start,
    target,
    trials: int,
    seed: int,
    tol: Tolerance = DEFAULT_TOL,
) -> MonteCarloEstimate:
    """Trajectory estimate of the mean first-visit time of a classical chain.

    ``p`` is column-stochastic (column j is the outgoing distribution of
    state j).  ``start`` is a 0-based state index or an initial distribution;
    ``target`` a set of 0-based state indices.  The first visit is counted at
    step r >= 1, so a start inside the target records the return time.  The
    RNG is numpy PCG64 seeded with ``seed`` >= 0; results are deterministic.
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
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    rng = np.random.default_rng(int(seed))
    if np.isscalar(start):
        s0 = int(start)
        if s0 < 0 or s0 >= n:
            raise ValidationError(f"start index must lie in [0, {n - 1}]")
        states = np.full(trials, s0, dtype=np.int64)
    else:
        # The tolerated entries in [-atol, 0) are clipped, as the chain's are below.
        dist = np.maximum(start_distribution(start, n), 0.0)
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
        if step > _MC_STEP_CAP:
            raise NonConvergenceError(
                f"{int(alive.sum())} trajectories exceeded the step cap {_MC_STEP_CAP}"
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
