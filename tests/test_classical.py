import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import golden
from hittime import (
    NumericError,
    PreconditionError,
    Tolerance,
    ValidationError,
    build_chain,
    classical_mhtf,
    classical_mhtf_distribution,
    classical_mhtf_subset,
    classical_monte_carlo,
    from_stochastic,
    kac_return_time,
    mean_hitting_time_direct,
    mhtf_general,
    mhtf_orthogonal,
    pure_density,
    solve_hitting,
    subspace_from_indices,
    tau_series,
)
from hittime.classical import MarkovChain
from hittime.examples import cycle_chain, symmetric_two_state_chain
from hittime.sampling import random_column_stochastic


def absorbing_mean_times(p: np.ndarray, target: list[int]) -> dict[int, float]:
    """Independent oracle: absorbing-chain solve for mean times into target.

    Returns the mean first-visit time for every state, including the return
    times of target states (one step plus the absorbed expectation).
    """
    n = p.shape[0]
    rest = [k for k in range(n) if k not in target]
    sub = p[np.ix_(rest, rest)]
    m = np.linalg.solve(np.eye(len(rest)) - sub.T, np.ones(len(rest)))
    times = {k: float(v) for k, v in zip(rest, m)}
    for k in range(n):
        if k in target:
            times[k] = 1.0 + float(
                sum(p[l, k] * times[l] for l in rest)
            )
    return times


def embedded_solution(chain, target: list[int]):
    channel = from_stochastic(chain.p)
    return channel, solve_hitting(channel, subspace_from_indices(chain.n, target))


# --------------------------------------------------------------- build_chain

@pytest.mark.parametrize("p", [0.5, 0.3])
def test_build_chain_two_state_fundamental_matrix(p):
    chain = build_chain(symmetric_two_state_chain(p))
    assert_allclose(chain.pi, [0.5, 0.5], atol=1e-12)
    assert_allclose(chain.z, golden.two_state_z(p), atol=1e-12)


def test_build_chain_cycle_uniform_stationary():
    chain = build_chain(cycle_chain(3))
    assert_allclose(chain.pi, np.full(3, 1 / 3), atol=1e-12)


def test_build_chain_random_column_sums():
    chain = build_chain(random_column_stochastic(6, rng=50))
    assert_allclose(chain.z.sum(axis=0), np.ones(6), atol=1e-10)
    residual = chain.z @ (np.eye(6) - chain.p + np.outer(chain.pi, np.ones(6)))
    assert_allclose(residual, np.eye(6), atol=1e-10)
    assert_allclose(chain.p @ chain.pi, chain.pi, atol=1e-10)


def test_build_chain_rejects_reducible():
    block = np.block(
        [
            [symmetric_two_state_chain(0.3), np.zeros((2, 2))],
            [np.zeros((2, 2)), symmetric_two_state_chain(0.4)],
        ]
    )
    with pytest.raises(ValidationError, match="not irreducible"):
        build_chain(block)


def test_build_chain_rejects_non_stochastic():
    with pytest.raises(ValidationError):
        build_chain(np.array([[0.9, 0.1], [0.5, 0.5]]))


# ------------------------------------------------------------- classical_mhtf

def test_classical_mhtf_geometric_values():
    assert classical_mhtf(
        build_chain(symmetric_two_state_chain(0.5)), 0, 1
    ) == pytest.approx(2.0, abs=1e-12)
    assert classical_mhtf(
        build_chain(symmetric_two_state_chain(0.25)), 0, 1
    ) == pytest.approx(4.0, abs=1e-12)


def test_classical_mhtf_matches_quantum_embedding():
    chain = build_chain(random_column_stochastic(5, rng=51))
    channel, hs = embedded_solution(chain, [3])
    unit = np.eye(5)
    for i in (0, 1, 2, 4):
        classical = classical_mhtf(chain, i, 3)
        quantum = mean_hitting_time_direct(hs, pure_density(unit[:, i]))
        assert classical == pytest.approx(quantum, abs=1e-8)
        series = tau_series(channel, hs.subspace, pure_density(unit[:, i]))
        assert classical == pytest.approx(series, abs=1e-8)


def test_classical_mhtf_rejects_equal_states():
    chain = build_chain(symmetric_two_state_chain(0.5))
    with pytest.raises(PreconditionError, match="kac_return_time"):
        classical_mhtf(chain, 1, 1)


def test_classical_mhtf_validates_indices():
    chain = build_chain(symmetric_two_state_chain(0.5))
    with pytest.raises(ValidationError):
        classical_mhtf(chain, 0, 5)


# ------------------------------------------------------------ kac_return_time

def test_kac_symmetric_chain():
    chain = build_chain(symmetric_two_state_chain(0.5))
    assert kac_return_time(chain, 0) == pytest.approx(2.0)
    assert kac_return_time(chain, 1) == pytest.approx(2.0)


def test_kac_cycle():
    chain = build_chain(cycle_chain(3))
    assert kac_return_time(chain, 2) == pytest.approx(3.0)


def test_kac_matches_quantum_return_time():
    chain = build_chain(random_column_stochastic(6, rng=52))
    j = 4
    _, hs = embedded_solution(chain, [j])
    quantum = mean_hitting_time_direct(hs, pure_density(np.eye(6)[:, j]))
    assert kac_return_time(chain, j) == pytest.approx(quantum, abs=1e-8)


def test_return_summand_equals_scaled_return_time():
    # embedded picture: the reference-independent summand equals Z_jj / pi_j
    chain = build_chain(random_column_stochastic(4, rng=53))
    j, i = 2, 0
    _, hs = embedded_solution(chain, [j])
    result = mhtf_orthogonal(hs, pure_density(np.eye(4)[:, i]))
    expected = chain.z[j, j] * kac_return_time(chain, j)
    assert result.psi_term == pytest.approx(expected, abs=1e-8)


# ------------------------------------------------- classical_mhtf_distribution

def test_distribution_point_mass_reduces_to_pairwise():
    chain = build_chain(random_column_stochastic(5, rng=54))
    unit = np.eye(5)
    for i in range(5):
        if i == 3:
            continue
        via_dist = classical_mhtf_distribution(chain, unit[:, i], 3)
        assert via_dist == pytest.approx(classical_mhtf(chain, i, 3), abs=1e-10)


def test_distribution_mass_on_target_is_kac_consistent():
    chain = build_chain(random_column_stochastic(4, rng=55))
    j = 1
    value = classical_mhtf_distribution(chain, np.eye(4)[:, j], j)
    assert value == pytest.approx(kac_return_time(chain, j), abs=1e-10)
    _, hs = embedded_solution(chain, [j])
    quantum = mhtf_general(hs, pure_density(np.eye(4)[:, j]))
    assert value == pytest.approx(quantum, abs=1e-8)


def test_distribution_mixed_start_matches_quantum_embedding():
    chain = build_chain(random_column_stochastic(5, rng=56))
    rng = np.random.default_rng(57)
    x = rng.dirichlet(np.ones(5))
    j = 2
    classical = classical_mhtf_distribution(chain, x, j)
    from hittime import DensityMatrix

    _, hs = embedded_solution(chain, [j])
    quantum = mhtf_general(hs, DensityMatrix(np.diag(x).astype(complex)))
    assert classical == pytest.approx(quantum, abs=1e-8)


def test_distribution_stationary_start_matches_monte_carlo():
    chain = build_chain(random_column_stochastic(4, rng=58))
    j = 0
    analytic = classical_mhtf_distribution(chain, chain.pi, j)
    estimate = classical_monte_carlo(chain.p, chain.pi, [j], trials=100_000, seed=59)
    assert abs(estimate.mean - analytic) <= 4.0 * estimate.std_error


def test_distribution_validates_input():
    chain = build_chain(symmetric_two_state_chain(0.5))
    with pytest.raises(ValidationError):
        classical_mhtf_distribution(chain, [0.7, 0.7], 1)
    with pytest.raises(ValidationError):
        classical_mhtf_distribution(chain, [0.5, 0.5, 0.0], 1)


def test_distribution_entries_are_judged_under_the_given_tolerance():
    chain = build_chain([[0.2, 0.5, 0.3], [0.3, 0.1, 0.6], [0.5, 0.4, 0.1]])
    x = [-1e-6, 0.500001, 0.5]
    with pytest.raises(ValidationError, match="non-negative and sum to 1"):
        classical_mhtf_distribution(chain, x, 0)
    loose = Tolerance(1e-3, 1e-3)
    tau = classical_mhtf_distribution(chain, x, 0, loose)
    assert tau == pytest.approx(classical_mhtf_distribution(chain, [0, 0.5, 0.5], 0), abs=1e-5)
    estimate = classical_monte_carlo(chain.p, x, [0], trials=200, seed=1, tol=loose)
    assert math.isfinite(estimate.mean)


# ------------------------------------------------------- classical_mhtf_subset

def test_subset_singleton_reduces_to_pairwise():
    chain = build_chain(random_column_stochastic(5, rng=60))
    result = classical_mhtf_subset(chain, 0, [3])
    assert result.tau == pytest.approx(classical_mhtf(chain, 0, 3), abs=1e-9)
    assert result.return_times[3] == pytest.approx(kac_return_time(chain, 3), abs=1e-9)


def test_subset_cycle_one_step():
    chain = build_chain(cycle_chain(3))
    result = classical_mhtf_subset(chain, 0, [1, 2])
    assert result.tau == pytest.approx(1.0, abs=1e-10)
    assert result.j_independence_residual <= 1e-9


def test_subset_matches_series_and_monte_carlo():
    chain = build_chain(random_column_stochastic(6, rng=61))
    subset = [1, 4]
    result = classical_mhtf_subset(chain, 0, subset)
    channel, hs = embedded_solution(chain, subset)
    series = tau_series(channel, hs.subspace, pure_density(np.eye(6)[:, 0]))
    assert result.tau == pytest.approx(series, abs=1e-8)
    estimate = classical_monte_carlo(chain.p, 0, subset, trials=100_000, seed=62)
    assert abs(estimate.mean - result.tau) <= 4.0 * estimate.std_error


def test_subset_matches_absorbing_chain_oracle():
    chain = build_chain(random_column_stochastic(7, rng=63))
    subset = [2, 5, 6]
    result = classical_mhtf_subset(chain, 1, subset)
    oracle = absorbing_mean_times(chain.p, subset)
    assert result.tau == pytest.approx(oracle[1], abs=1e-8)
    for k in subset:
        assert result.return_times[k] == pytest.approx(oracle[k], abs=1e-8)


def test_subset_preconditions():
    chain = build_chain(random_column_stochastic(4, rng=64))
    with pytest.raises(PreconditionError):
        classical_mhtf_subset(chain, 1, [1, 2])
    with pytest.raises(PreconditionError):
        classical_mhtf_subset(chain, 0, [])
    with pytest.raises(PreconditionError):
        classical_mhtf_subset(chain, 0, [0, 1, 2, 3])


def test_subset_reports_j_independence_residual():
    chain = build_chain(random_column_stochastic(6, rng=65))
    result = classical_mhtf_subset(chain, 2, [0, 3, 5])
    assert 0.0 <= result.j_independence_residual <= 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_subset_return_times_match_embedding(seed):
    """The first-step return times against the matrix-map embedding route."""
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(4, 10))
    subset = sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist())
    start = next(k for k in range(n) if k not in subset)
    chain = build_chain(random_column_stochastic(n, rng=rng))
    result = classical_mhtf_subset(chain, start, subset)
    _, hs = embedded_solution(chain, subset)
    for k in subset:
        embedded = mean_hitting_time_direct(hs, pure_density(np.eye(n)[:, k]))
        assert result.return_times[k] == pytest.approx(embedded, rel=1e-9)
    embedded = mean_hitting_time_direct(hs, pure_density(np.eye(n)[:, start]))
    assert result.tau == pytest.approx(embedded, rel=1e-9)


def test_subset_singular_first_step_system_raises_numeric_error():
    # States 0 and 1 never leave {0, 1}, so the complement of {2} is closed.
    # build_chain refuses such a chain; a hand-built one reaches the solve.
    p = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.0], [0.0, 0.0, 0.5]])
    chain = MarkovChain(3, p, np.full(3, 1 / 3), np.eye(3))
    with pytest.raises(NumericError, match="singular"):
        classical_mhtf_subset(chain, 0, [2])


def test_subset_refuses_non_finite_first_step_return_times(monkeypatch):
    """The first-step solve is patched to overflow, as no finite chain makes it."""
    chain = build_chain(random_column_stochastic(4, rng=66))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(b.shape, np.inf))
    with pytest.raises(NumericError) as refused:
        classical_mhtf_subset(chain, 0, [1, 2])
    assert str(refused.value) == (
        "first-step system on the complement of the subset gave non-finite return times"
    )


def test_subset_refuses_a_fundamental_matrix_that_breaks_anchor_independence():
    """A hand-built chain whose Z is off by 1e-6 in one entry of the subset's rows:
    the sums over the subset then depend on the anchor state."""
    chain = build_chain(random_column_stochastic(5, rng=67))
    tau = classical_mhtf_subset(chain, 0, [1, 3]).return_times[1]
    z = chain.z.copy()
    z[1, 3] += 1e-6
    with pytest.raises(NumericError) as refused:
        classical_mhtf_subset(MarkovChain(chain.n, chain.p, chain.pi, z), 0, [1, 3])
    assert str(refused.value).startswith(
        f"anchor-state independence violated: sums over the subset spread by {1e-6 * tau:.3e} "
        "(tolerance 1.0e-09 relative to the largest summand, "
    )
