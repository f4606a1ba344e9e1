import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hittime import (
    DEFAULT_TOL,
    NonConvergenceError,
    SuperOperator,
    Tolerance,
    ValidationError,
    classical_monte_carlo,
    from_stochastic,
    pure_density,
    subspace_from_indices,
    tau_series,
)
import hittime.oracle
from hittime.blocks import lift
from hittime.examples import cycle_chain, symmetric_two_state_chain
from hittime.linalg import l1_bound
from hittime.sampling import random_column_stochastic, random_cptp_map, random_density, random_subspace
from test_bordered import block_map
from test_real_kernels import non_hermiticity_preserving_rep


def chain_setup(p_matrix, target_indices):
    channel = from_stochastic(p_matrix)
    sp = subspace_from_indices(p_matrix.shape[0], target_indices)
    return channel, sp


# ---------------------------------------------------------------- series terms

def block_terms(t, sp, rho, r_max):
    """pi_1 .. pi_r_max from the series' block kernel, the term count it reached, its
    bound on ||vec W* X W||_1 for X = (QT)^r_max rho, and the spectral radius of QT."""
    sigma, step, arrival, _ = hittime.oracle._survival_data(t, sp, rho, DEFAULT_TOL)
    b = hittime.oracle._block_size(sigma.size, r_max)
    blocks = list(hittime.oracle._blocks(sigma, step, arrival, b, r_max))
    bound = l1_bound(blocks[-1][2])
    return np.concatenate([p for _, p, _ in blocks]), blocks[-1][0], bound, sp.radius(step)


def test_series_sums_to_one(qubit_channel, qubit_solution, qubit_states):
    probs, r, norm, radius = block_terms(
        qubit_channel, qubit_solution.subspace, qubit_states["phi"], 200
    )
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert r == 200
    assert np.all(np.cumsum(probs) <= 1.0 + 1e-12)
    assert np.all(probs >= -1e-12)
    assert probs.sum() + norm / (1.0 - radius) >= 1.0 - 1e-10


def test_series_tail_bound_decreases_geometrically(
    qubit_channel, qubit_solution, qubit_states
):
    sp = qubit_solution.subspace
    short = block_terms(qubit_channel, sp, qubit_states["phi"], 30)[2]
    long = block_terms(qubit_channel, sp, qubit_states["phi"], 60)[2]
    assert long < short
    assert long <= short * (5.0 / 6.0) ** 25


def test_series_matches_geometric_law():
    p = 0.3
    channel, sp = chain_setup(symmetric_two_state_chain(p), [1])
    probs = block_terms(channel, sp, pure_density([1.0, 0.0]), 40)[0]
    expected = [(1 - p) ** (r - 1) * p for r in range(1, 41)]
    assert_allclose(probs, expected, atol=1e-12)


def test_series_absorbed_in_one_step():
    channel, sp = chain_setup(np.array([[0.0, 1.0], [1.0, 0.0]]), [1])
    assert tau_series(channel, sp, pure_density([1.0, 0.0])) == pytest.approx(1.0, abs=1e-14)


def test_series_detects_non_contracting_survival():
    channel, sp = chain_setup(np.eye(2), [1])
    with pytest.raises(NonConvergenceError, match="spectral radius"):
        tau_series(channel, sp, pure_density([1.0, 0.0]))


# ----------------------------------------------------------------- mean times

def test_tau_series_demo_values(qubit_channel, qubit_solution, qubit_states):
    sp = qubit_solution.subspace
    assert tau_series(qubit_channel, sp, qubit_states["phi"]) == pytest.approx(
        6.0, abs=1e-8
    )
    assert tau_series(qubit_channel, sp, qubit_states["chi"]) == pytest.approx(
        2.0, abs=1e-8
    )


def test_tau_series_geometric_mean():
    channel, sp = chain_setup(symmetric_two_state_chain(0.5), [1])
    assert tau_series(channel, sp, pure_density([1.0, 0.0])) == pytest.approx(
        2.0, abs=1e-8
    )


def test_tau_series_at_zero_tolerance_stops_at_rounding():
    """atol = 0 floors the target at the rounding level of the running total."""
    channel, sp = chain_setup(symmetric_two_state_chain(0.3), [1])
    tau = tau_series(channel, sp, pure_density([1.0, 0.0]), Tolerance(0.0, 0.0))
    assert tau == pytest.approx(10 / 3, abs=1e-12)


# ------------------------------------------------------- block kernel vs loop

def per_term_series(t, sp, rho, r_max):
    """pi_1 .. pi_r_max and ||vec(W* X W)||_1 for X = (QT)^r_max rho and W the
    target's frame (the identity for an index target), one complex matvec per term."""
    sigma = rho.matrix.reshape(-1).astype(complex)
    qt = lift(sp.projector_q) @ t.rep
    arrival = sp.projector_p.conj().reshape(-1) @ t.rep
    probs = np.empty(r_max)
    for r in range(r_max):
        probs[r] = (arrival @ sigma).real
        sigma = qt @ sigma
    x = sigma.reshape(rho.dim, rho.dim)
    if sp.frame is not None:
        x = sp.frame.conj().T @ x @ sp.frame
    return probs, np.abs(x).sum()


def per_term_tau(t, sp, rho):
    """sum r pi_r, one term at a time, until the tail bound is below rounding."""
    sigma = rho.matrix.reshape(-1).astype(complex)
    qt = lift(sp.projector_q) @ t.rep
    arrival = sp.projector_p.conj().reshape(-1) @ t.rep
    radius = np.abs(np.linalg.eigvals(qt)).max()
    gap = 1.0 - radius
    total, r = 0.0, 0
    while True:
        r += 1
        total += r * (arrival @ sigma).real
        sigma = qt @ sigma
        if np.abs(sigma).sum() * ((r + 1) * gap + radius) / gap**2 < 1e-17 * total:
            return total, radius


def _start(kind, n, rng):
    if kind == "index":
        return pure_density(np.eye(n)[n - 1])
    if kind == "vector":
        return pure_density(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return random_density(n, rng)


def _series_cases():
    rng = np.random.default_rng(31)
    for n in (2, 3, 5, 8):
        t = random_cptp_map(n, 2, rng)
        for kind in ("index", "vector", "density"):
            yield f"kraus-{n}-{kind}", t, subspace_from_indices(n, [0]), _start(kind, n, rng)
        yield f"kraus-{n}-subspace", t, random_subspace(n, 1, rng), _start("density", n, rng)
    gap = block_map(rng, 8, 1e-2)
    for kind in ("index", "vector", "density"):
        yield f"gap-{kind}", gap, subspace_from_indices(8, [0]), _start(kind, 8, rng)
    raw = SuperOperator(4, non_hermiticity_preserving_rep())
    yield "raw-index", raw, subspace_from_indices(4, [0]), _start("index", 4, rng)
    yield "raw-subspace", raw, random_subspace(4, 2, rng), _start("vector", 4, rng)


SERIES_CASES = list(_series_cases())
_ids = [case[0] for case in SERIES_CASES]


@pytest.mark.parametrize("label,t,sp,rho", SERIES_CASES, ids=_ids)
def test_block_tau_series_matches_the_per_term_loop(label, t, sp, rho):
    reference, _ = per_term_tau(t, sp, rho)
    assert tau_series(t, sp, rho, Tolerance(0.0, 0.0)) == pytest.approx(reference, rel=1e-12)
    # The default target bounds the truncation: atol / 10 = 1e-11.
    assert tau_series(t, sp, rho) == pytest.approx(reference, rel=1e-12, abs=1e-11)


FIRST_VISIT_LABELS = ("kraus-5-vector", "gap-index", "gap-density", "raw-index", "raw-subspace")
FIRST_VISIT_CASES = [case for case in SERIES_CASES if case[0] in FIRST_VISIT_LABELS]


@pytest.mark.parametrize("b", [1, 8, 64])
@pytest.mark.parametrize("label,t,sp,rho", FIRST_VISIT_CASES, ids=[case[0] for case in FIRST_VISIT_CASES])
def test_block_first_visit_series_keeps_r_max_exact(monkeypatch, label, t, sp, rho, b):
    """At a forced block size the series' sum and its first r_max terms, which
    end on a partial block unless b divides r_max, match the per-term loop."""
    monkeypatch.setattr(hittime.oracle, "_block_size", lambda d, terms: b)
    reference, _ = per_term_tau(t, sp, rho)
    assert tau_series(t, sp, rho, Tolerance(0.0, 0.0)) == pytest.approx(reference, rel=1e-12)
    for r_max in sorted({1, max(b - 1, 1), b, b + 1, 3 * b + 5}):
        probs, r, bound, _ = block_terms(t, sp, rho, r_max)
        expected, norm = per_term_series(t, sp, rho, r_max)
        assert r == r_max
        assert_allclose(probs, expected, rtol=1e-12, atol=1e-15)
        # The coordinate bound on ||vec W* sigma W||_1 exceeds it by at most sqrt(2).
        assert norm * (1 - 1e-12) <= bound <= np.sqrt(2) * norm * (1 + 1e-12)


def test_block_size_is_a_power_of_two_that_grows_with_the_term_count():
    block_size = hittime.oracle._block_size
    assert block_size(400, 1) == 1 and block_size(64, 1) == 1
    sizes = [block_size(64, terms) for terms in (10, 100, 1_000, 10_000)]
    assert sizes == sorted(sizes) and sizes[-1] > 1
    assert all(b & (b - 1) == 0 for b in sizes)
    # A step at d = 400 is arithmetic, so a few hundred terms use small blocks.
    assert block_size(400, 200) <= 2


# ---------------------------------------------------------------- monte carlo

def test_monte_carlo_two_state_chain():
    estimate = classical_monte_carlo(
        symmetric_two_state_chain(0.5), 0, [1], trials=100_000, seed=123
    )
    assert estimate.trials == 100_000
    assert estimate.seed == 123
    assert abs(estimate.mean - 2.0) <= 3.0 * estimate.std_error


def test_monte_carlo_return_time_counts_first_step():
    estimate = classical_monte_carlo(
        symmetric_two_state_chain(0.5), 0, [0], trials=100_000, seed=7
    )
    assert abs(estimate.mean - 2.0) <= 3.0 * estimate.std_error


def test_monte_carlo_deterministic_cycle():
    estimate = classical_monte_carlo(cycle_chain(4), 0, [2], trials=500, seed=11)
    assert estimate.mean == 2.0
    assert estimate.std_error == 0.0


def test_monte_carlo_is_reproducible():
    first = classical_monte_carlo(
        symmetric_two_state_chain(0.3), 0, [1], trials=5_000, seed=99
    )
    second = classical_monte_carlo(
        symmetric_two_state_chain(0.3), 0, [1], trials=5_000, seed=99
    )
    assert first.mean == second.mean
    assert first.std_error == second.std_error


def test_monte_carlo_distribution_start():
    estimate = classical_monte_carlo(
        symmetric_two_state_chain(0.5), [0.5, 0.5], [1], trials=50_000, seed=21
    )
    # every step is uniform, so the first visit is Geometric(1/2) with mean 2
    assert abs(estimate.mean - 2.0) <= 4.0 * estimate.std_error


def test_monte_carlo_step_cap(monkeypatch):
    monkeypatch.setattr(hittime.oracle, "_MC_STEP_CAP", 100)
    with pytest.raises(NonConvergenceError, match="step cap 100"):
        classical_monte_carlo(np.eye(2), 0, [1], trials=10, seed=0)


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"the generator was asked for {name}")


def _harmonic(n: int) -> float:
    return math.fsum(1.0 / k for k in range(1, n + 1))


@pytest.mark.parametrize("start", [0, [1.0, 0.0]])
def test_monte_carlo_refuses_a_walk_beyond_the_cap_before_its_first_draw(monkeypatch, start):
    """From state 1 the chain's mean first visit to state 2 is 6.27e8 steps,
    so the slowest of 30 trials is expected to take 6.27e8 H_30 = 2.51e9:
    the walk is refused before the generator is asked for anything, where
    stepping up to the cap took about two minutes."""
    chain = np.array([[0.9999999984059049, 0.9984290128293385],
                      [1.594095064128074e-09, 0.001570987170661532]])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _NoDraws())
    message = ("mean first-visit time 6.273e+08 times H_30 = 3.9950 gives the slowest of 30 "
               "trials 2.506e+09 expected steps, above the step cap 10000000")
    with pytest.raises(NonConvergenceError, match=f"^{re.escape(message)}$"):
        classical_monte_carlo(chain, start, [1], trials=30, seed=1)


@pytest.mark.parametrize("trials,refused", [(30, True), (10, False)])
def test_monte_carlo_judges_its_slowest_trial_not_its_mean(monkeypatch, trials, refused):
    """The mean first visit is 3.0e6 steps, below the 1e7 cap, but the slowest
    of 30 trials is expected to take 3.0e6 H_30 = 1.198e7 steps: refused before
    any draw.  Of 10 trials it is 3.0e6 H_10 = 8.79e6, so sampling starts."""
    chain = np.array([[0.9999996666666667, 0.5], [3.333333333e-07, 0.5]])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _NoDraws())
    if refused:
        message = ("mean first-visit time 3.000e+06 times H_30 = 3.9950 gives the slowest of 30 "
                   "trials 1.198e+07 expected steps, above the step cap 10000000")
        with pytest.raises(NonConvergenceError, match=f"^{re.escape(message)}$"):
            classical_monte_carlo(chain, 0, [1], trials=trials, seed=1)
    else:
        with pytest.raises(AssertionError, match="the generator was asked for random"):
            classical_monte_carlo(chain, 0, [1], trials=trials, seed=1)


@pytest.mark.parametrize("start,mean", [(0, 4), ([0.5, 0.5], 3)])
def test_monte_carlo_refusal_is_judged_on_the_first_visit_mean(monkeypatch, start, mean):
    """At p = 1/4 the first visit to state 2 takes 4 steps from state 1 and
    2 from state 2 (a return), so 3 from the uniform start.  Of 10 trials the
    slowest is expected to take that mean times H_10.  A cap one below that
    gate refuses before any draw; at the gate, sampling starts."""
    chain = symmetric_two_state_chain(0.25)
    gate = mean * _harmonic(10)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _NoDraws())
    monkeypatch.setattr(hittime.oracle, "_MC_STEP_CAP", math.ceil(gate) - 1)
    message = (f"mean first-visit time {float(mean):.3e} times H_10 = {_harmonic(10):.4f} gives the "
               f"slowest of 10 trials {gate:.3e} expected steps, above the step cap {math.ceil(gate) - 1}")
    with pytest.raises(NonConvergenceError, match=f"^{re.escape(message)}$"):
        classical_monte_carlo(chain, start, [1], trials=10, seed=0)
    monkeypatch.setattr(hittime.oracle, "_MC_STEP_CAP", math.ceil(gate))
    with pytest.raises(AssertionError, match="the generator was asked for"):
        classical_monte_carlo(chain, start, [1], trials=10, seed=0)


def test_monte_carlo_step_loop_refuses_a_trial_the_gate_let_through(monkeypatch):
    """The gate judges the expected slowest trial, 4 H_100 = 20.7 steps from
    state 1 at p = 1/4; with seed 2 one of the 100 trials takes longer than a
    cap of 21, and the step loop refuses it."""
    monkeypatch.setattr(hittime.oracle, "_MC_STEP_CAP", math.ceil(4 * _harmonic(100)))
    with pytest.raises(NonConvergenceError, match=r"^1 trajectories exceeded the step cap 21$"):
        classical_monte_carlo(symmetric_two_state_chain(0.25), 0, [1], trials=100, seed=2)


def test_monte_carlo_validations():
    chain = symmetric_two_state_chain(0.5)
    with pytest.raises(ValidationError):
        classical_monte_carlo(chain, 0, [], trials=10, seed=0)
    with pytest.raises(ValidationError):
        classical_monte_carlo(chain, 0, [5], trials=10, seed=0)
    with pytest.raises(ValidationError):
        classical_monte_carlo(chain, 9, [1], trials=10, seed=0)
    with pytest.raises(ValidationError):
        classical_monte_carlo(chain, 0, [1], trials=0, seed=0)
    with pytest.raises(ValidationError):
        classical_monte_carlo(chain, [0.7, 0.7], [1], trials=10, seed=0)
    with pytest.raises(ValidationError, match="seed must be non-negative"):
        classical_monte_carlo(chain, 0, [1], trials=10, seed=-1)


def _sparse_chain():
    p = random_column_stochastic(12, rng=75)
    p[p < 0.08] = 0.0  # exact zeros give ties in the cumulative columns
    return p / p.sum(axis=0)


_RAMP = np.linspace(1.0, 2.0, 12) / np.linspace(1.0, 2.0, 12).sum()

# (chain, start, target, trials, seed) -> (mean, std_error) as the earlier
# per-state searchsorted step gave them; the vectorized step must match
# them bit for bit.
PINNED_MONTE_CARLO = [
    (lambda: random_column_stochastic(6, rng=70), 0, [3], 2000, 71,
     6.685, 0.1219869989546303),
    (lambda: random_column_stochastic(9, rng=72), np.full(9, 1 / 9), [2, 5], 1500, 73,
     5.550666666666666, 0.13986102783993354),
    (_sparse_chain, 4, [0, 7, 11], 1200, 76, 3.0458333333333334, 0.08321988037411479),
    (_sparse_chain, _RAMP, [5], 800, 77, 22.8975, 0.840342690206638),
    (lambda: random_column_stochastic(5, rng=78), 1, [1], 1000, 79,
     5.834, 0.14921363445981975),
    (lambda: cycle_chain(5), 2, [2], 300, 74, 5.0, 0.0),
]


@pytest.mark.parametrize("block_entries", [None, 40])
@pytest.mark.parametrize("case", range(len(PINNED_MONTE_CARLO)))
def test_monte_carlo_pinned_output(monkeypatch, case, block_entries):
    make, start, target, trials, seed, mean, std_error = PINNED_MONTE_CARLO[case]
    if block_entries is not None:
        # a few rows per block, so one step crosses many blocks
        monkeypatch.setattr(hittime.oracle, "_MC_BLOCK_ENTRIES", block_entries)
    estimate = classical_monte_carlo(make(), start, target, trials, seed)
    assert (estimate.mean, estimate.std_error) == (mean, std_error)


# ------------------------------------------------ the tail bound of a positive map

def drift_chain(n, a):
    """A walk on a path of n states that steps towards state 0 with probability
    a and away with 1 - a, held at both ends."""
    p = np.zeros((n, n))
    for k in range(n):
        p[max(k - 1, 0), k] += a
        p[min(k + 1, n - 1), k] += 1 - a
    return p


@pytest.mark.parametrize("b", [1, 16])
def test_tail_bound_covers_the_true_tail_of_a_far_from_normal_survival(b):
    """Target {0}, start at the far end of a 12-state path with drift 0.8 towards
    the target: the survival block is far from normal, and its mass stays near
    1 for about 12 steps before it decays.  At every block end r the rest of
    the sum, sum_{j > r} j pi_j from a long sum, is at most m_r (r + 1 + B / (1 - c_B))."""
    n = 12
    p = drift_chain(n, 0.8)
    kept = p[1:, 1:]
    departure = np.linalg.norm(kept @ kept.T - kept.T @ kept)
    assert departure > 0.5 * np.linalg.norm(kept, 2) ** 2
    # The true first-visit probabilities, one step at a time, until the mass is negligible.
    x = np.zeros(n - 1)
    x[-1] = 1.0
    probs = []
    while x.sum() > 1e-30:
        probs.append(p[0, 1:] @ x)
        x = kept @ x
    probs = np.array(probs)
    weighted = np.arange(1, probs.size + 1) * probs
    rest = np.concatenate([np.cumsum(weighted[::-1])[::-1], [0.0]])  # rest[r] = sum_{j > r} j pi_j
    t = from_stochastic(p)
    sp = subspace_from_indices(n, [0])
    sigma, step, arrival, e = hittime.oracle._survival_data(t, sp, pure_density(np.eye(n)[-1]), DEFAULT_TOL)
    power, c = hittime.oracle._contraction(step, e)
    assert power > 1 and 0.0 < c < 1.0  # no single step contracts every start
    ends = 0
    for r, _, x in hittime.oracle._blocks(sigma, step, arrival, b, 50 * b):
        mass = e @ x
        assert mass == pytest.approx(probs[r:].sum(), rel=1e-10, abs=1e-15)
        assert rest[min(r, rest.size - 1)] <= mass * (r + 1 + power / (1.0 - c)) * (1 + 1e-12)
        ends += 1
    assert ends == 50
    tau = tau_series(t, sp, pure_density(np.eye(n)[-1]))
    assert tau == pytest.approx(weighted.sum(), rel=1e-12, abs=1e-11)
