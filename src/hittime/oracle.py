"""Independent ground truth for hitting quantities.

The monitored-evolution series evaluates first-visit probabilities directly
from their definition,

    pi_r = Tr(P T (Q T)^{r-1} rho),    tau = sum_r r pi_r,

by iterating the survival map, b terms per step, without touching the
resolvent solves used by the hitting module: the series builds its own frame
form of the map (:func:`~hittime.maps.frame_form`), in whose Hermitian
basis QT of a positive map is real and Q a coordinate mask.  A Monte-Carlo
trajectory estimator provides a second, statistical oracle for classical chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ValidationError
from .hitting import ArrivalSubspace
from .linalg import DEFAULT_TOL, EPS, Tolerance, hermitian_coords, hermitian_matrix
from .linalg import l1_bound, start_distribution
from .maps import SuperOperator, as_density, frame_form, validate_column_stochastic

__all__ = ["MonteCarloEstimate", "tau_series", "classical_monte_carlo"]

_MAX_SERIES_TERMS = 1_000_000
# The largest B whose c_B the tail rule of a positive map tries: B row
# products of d^2 each, about 3 ms at d = 400 (one BLAS thread).
_MAX_TAIL_POWER = 128
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
    """Frame coordinates of rho, QT, e PP T = coords(P) h, and e = coords(I)."""
    sigma = subspace.coords(as_density(rho, tol).matrix)
    h = frame_form(t, subspace.frame)
    e = hermitian_coords(np.eye(t.dim))
    return sigma, subspace.mask(h), (e - subspace.mask(e)) @ h, e


def _contraction(step: np.ndarray, e: np.ndarray) -> tuple[int, float] | None:
    """(B, c_B) with the least B / (1 - c_B) over B = 1, 2, 4, ... up to ``_MAX_TAIL_POWER``.

    c_B = lambda_max(((QT)^B)*(I)) is the top eigenvalue of the matrix of the
    row e (QT)^B, taken by row products.  For a positive map and a positive
    X it gives Tr (QT)^B X <= c_B Tr X.  Every B' has B' / (1 - c_B') >= B',
    so the search stops once the best ratio is at most the next B.  Each
    c_B is widened by B d eps for the rounding of its B row products, so a
    c_B within rounding of 1 proves nothing.  None when no c_B is below 1.
    """
    best, row, steps = None, e, 0
    b = 1
    while b <= _MAX_TAIL_POWER:
        for _ in range(b - steps):
            row = row @ step
        steps = b
        c = float(np.linalg.eigvalsh(hermitian_matrix(row))[-1]) + b * e.size * EPS
        if c < 1.0 and (best is None or b / (1.0 - c) < best[0] / (1.0 - best[1])):
            best = (b, c)
        if best is not None and best[0] / (1.0 - best[1]) <= 2 * b:
            break
        b *= 2
    return best


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
    """Yield (r, p, sigma) per block of at most b terms, up to ``terms`` terms.

    p holds the block's probabilities from the rows a M^k, k < b, r the terms
    taken so far and sigma the coordinates of (QT)^r rho in the frame.  A
    full block advances by M^b, a partial last one by single steps.
    """
    power, rows = step, arrival[None, :]
    while rows.shape[0] < b:
        rows = np.concatenate([rows, rows @ power])
        power = power @ power
    for r in range(0, terms, b):
        k = min(b, terms - r)
        p = (rows[:k] @ sigma).real
        if k == b:
            sigma = power @ sigma
        else:
            for _ in range(k):
                sigma = step @ sigma
        yield r + k, p, sigma


def tau_series(
    t: SuperOperator,
    subspace: ArrivalSubspace,
    rho,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Mean hitting time by direct summation of r * pi_r.

    Truncates at the first block end where a bound on the remaining sum
    drops below atol / 10, so the series error is dominated by any
    comparison tolerance down to atol.  The target is floored at 4 eps times
    the running total, its rounding level, so atol = 0 ends too.

    For a :attr:`~hittime.maps.SuperOperator.positive` map the survival
    mass m_r = Tr (QT)^r rho = e x_r is non-increasing and sums the
    remaining probabilities, so the rest of the sum after r terms is
    (r + 1) m_r + sum_{k > r} m_k <= m_r (r + 1 + B / (1 - c_B)), with
    (B, c_B) from :func:`_contraction`.  A ``raw`` map, or a positive one
    with no c_B below 1, takes the geometric estimate
    ||x_r||_1 ((r + 1) g + rho) / g^2 from the spectral radius rho = 1 - g.
    """
    sigma, step, arrival, e = _survival_data(t, subspace, rho, tol)
    target = tol.atol / 10.0
    rate = _contraction(step, e) if t.positive else None
    if rate is None:
        radius = subspace.radius(step)
        if not radius < 1.0:
            raise NonConvergenceError(
                f"monitored series does not converge: spectral radius of the "
                f"survival map is {radius:.12g} (map not irreducible)"
            )
        gap = 1.0 - radius
        terms = math.log(max(target, EPS)) / math.log(radius) if radius > 0 else 1.0

        def tail(r, x):
            return l1_bound(x) * ((r + 1) * gap + radius) / (gap * gap)
    else:
        power, c = rate
        terms = power * math.log(max(target, EPS)) / math.log(c) if c > 0 else power

        def tail(r, x):
            return float(np.real(e @ x)) * (r + 1 + power / (1.0 - c))
    b = _block_size(sigma.size, min(terms, _MAX_SERIES_TERMS))
    total = 0.0
    for r, p, x in _blocks(sigma, step, arrival, b, _MAX_SERIES_TERMS):
        total += np.arange(r - p.size + 1.0, r + 1.0) @ p
        if tail(r, x) < max(target, 4 * EPS * abs(total)):
            return float(total)
    raise NonConvergenceError(
        f"series did not reach the target accuracy in {_MAX_SERIES_TERMS} terms "
        f"(spectral radius {subspace.radius(step):.12g})"
    )


def _mean_first_visit(chain: np.ndarray, in_target: np.ndarray, start: np.ndarray) -> float:
    """Mean first-visit time of the target from the distribution ``start``, counted from step 1.

    The mean times h from the states of the complement C solve the first-step
    system (I - P_CC^T) h = 1, so from the start it is 1 + (P_C start) h.  A
    singular system, and a value below 1 (a failed solve), count as inf.
    """
    rest = np.flatnonzero(~in_target)
    try:
        h = np.linalg.solve(np.eye(rest.size) - chain[np.ix_(rest, rest)].T, np.ones(rest.size))
    except np.linalg.LinAlgError:
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(1.0 + chain[rest] @ start @ h)
    return mean if mean >= 1.0 else math.inf


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
    if np.isscalar(start):
        s0 = int(start)
        if s0 < 0 or s0 >= n:
            raise ValidationError(f"start index must lie in [0, {n - 1}]")
        dist = np.eye(n)[s0]
    else:
        # The tolerated entries in [-atol, 0) are clipped, as the chain's are below.
        dist = np.maximum(start_distribution(start, n, tol), 0.0)
        dist = dist / dist.sum()
    # Clipping the entries validation lets through in [-atol, 0) keeps every
    # cumulative row monotone, so a state of negative weight is never drawn.
    chain = np.maximum(arr, 0.0)
    in_target = np.zeros(n, dtype=bool)
    in_target[target_set] = True
    # Refused before the first draw, when the mean walk alone outruns the cap.
    mean_time = _mean_first_visit(chain, in_target, dist)
    if mean_time > _MC_STEP_CAP:
        raise NonConvergenceError(
            f"mean first-visit time {mean_time:.3e} exceeds the step cap {_MC_STEP_CAP}"
        )
    rng = np.random.default_rng(int(seed))
    states = (np.full(trials, s0, dtype=np.int64) if np.isscalar(start)
              else rng.choice(n, size=trials, p=dist).astype(np.int64))

    # Row s holds the cumulative outgoing distribution of state s.
    cum = np.cumsum(chain, axis=0).T.copy()
    cum[:, -1] = 1.0  # guard against float round-off at the top
    block = max(1, _MC_BLOCK_ENTRIES // n)

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
