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
    sigma, step, arrival, radius = hittime.oracle._survival_data(t, sp, rho, DEFAULT_TOL)
    b = hittime.oracle._block_size(sigma.size, r_max)
    blocks = list(hittime.oracle._blocks(sigma, step, arrival, b, r_max))
    return np.concatenate([p for _, p, _ in blocks]), blocks[-1][0], blocks[-1][2], radius


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
    raw = SuperOperator(4, non_hermiticity_preserving_rep(), "raw")
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
