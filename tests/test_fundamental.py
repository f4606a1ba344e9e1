import numpy as np
import pytest
from numpy.testing import assert_allclose

import golden
from hittime import (
    FundamentalData,
    NumericError,
    PreconditionError,
    apply,
    condition_first_step,
    density,
    first_visit_series,
    from_kraus,
    from_raw,
    fundamental_map,
    hitting_probability,
    invariant_state,
    mean_hitting_time_direct,
    mhtf_general,
    mhtf_orthogonal,
    solve_hitting,
    subspace_from_indices,
    tau_series,
    unvec,
    vec,
)
from hittime.blocks import fundamental, fundamental_identities, omega
from hittime.examples import qudit_demo_channel
from hittime.sampling import (
    random_density,
    random_density_supported,
    random_irreducible_cptp,
    random_subspace,
)


@pytest.fixture(scope="module")
def qubit_fd(qubit_channel):
    cert = invariant_state(qubit_channel)
    return fundamental_map(qubit_channel, cert)


def test_build_omega_matches_printed():
    om = omega(density(np.eye(2) / 2))
    assert_allclose(om, golden.QUBIT_OMEGA, atol=1e-15)


def test_omega_sends_every_density_to_pi():
    pi = density(np.eye(2) / 2)
    omega_map = from_raw(omega(pi))
    rho = random_density(2, rng=0)
    assert_allclose(apply(omega_map, rho.matrix), pi.matrix, atol=1e-14)


def test_omega_is_idempotent():
    om = omega(density(np.eye(2) / 2))
    assert_allclose(om @ om, om, atol=1e-15)


def test_omega_has_rank_one_with_unit_eigenvalue():
    om = omega(density(np.eye(3) / 3))
    assert np.linalg.matrix_rank(om) == 1
    eigenvalues = np.sort(np.abs(np.linalg.eigvals(om)))
    assert eigenvalues[-1] == pytest.approx(1.0, abs=1e-12)
    assert_allclose(eigenvalues[:-1], 0.0, atol=1e-12)


def test_fundamental_map_matches_printed(qubit_fd):
    assert_allclose(fundamental(qubit_fd), golden.QUBIT_Z, atol=1e-13)


def test_fundamental_map_of_projection_map_is_identity():
    # a map that already projects onto pi: I - Omega + Omega = I
    pi = density(np.eye(2) / 2)
    omega_map = from_raw(omega(pi))
    cert = invariant_state(omega_map)
    fd = fundamental_map(omega_map, cert)
    assert_allclose(fundamental(fd), np.eye(4), atol=1e-13)


def test_fundamental_solve_residual_on_random_map():
    channel, cert = random_irreducible_cptp(3, rng=13)
    fd = fundamental_map(channel, cert)
    lhs = (np.eye(9) - channel.rep + omega(fd.pi)) @ fundamental(fd)
    assert np.max(np.abs(lhs - np.eye(9))) <= 1e-10
    assert fd.condition_estimate >= 1.0


def test_fundamental_map_rejects_reducible_map():
    identity_channel = from_kraus([np.eye(2)])
    cert = invariant_state(identity_channel)
    assert cert.fixed_space_dim == 4
    with pytest.raises(PreconditionError):
        fundamental_map(identity_channel, cert)


def test_identities_demo_channel(qubit_channel, qubit_fd):
    residuals = fundamental_identities(qubit_fd, qubit_channel)
    assert max(residuals.values()) <= 1e-12


def test_identities_qudit_demo():
    channel = qudit_demo_channel(0.6)
    fd = fundamental_map(channel, invariant_state(channel))
    residuals = fundamental_identities(fd, channel)
    assert max(residuals.values()) <= 1e-10
    expected = {
        "omega_idempotent",
        "phi_omega",
        "omega_phi",
        "z_omega",
        "omega_z",
        "z_one_minus_phi",
        "one_minus_phi_z",
        "z_inverse",
        "z_trace_preserving",
        "omega_trace_preserving",
    }
    assert set(residuals) == expected


def test_fundamental_map_preserves_trace_on_random_inputs(qubit_fd):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    out = unvec(fundamental(qubit_fd) @ vec(x))
    assert np.trace(out) == pytest.approx(np.trace(x), abs=1e-12)


def _relative(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_z_covector_applies_z(n):
    rng = np.random.default_rng(40 + n)
    t, cert = random_irreducible_cptp(n, 2, rng)
    fd = fundamental_map(t, cert)
    covector = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    assert _relative(fd.z_covector(covector), covector @ fundamental(fd)) <= 1e-12


def test_z_covector_refuses_a_singular_matrix():
    fd = FundamentalData(density(np.eye(2) / 2), np.zeros((4, 4)), 1.0)
    with pytest.raises(NumericError, match="fundamental solve failed"):
        fd.z_covector(np.ones(4))


def test_z_covector_matches_printed(qubit_fd):
    for row, covector in zip(golden.QUBIT_Z, np.eye(4)):
        assert _relative(qubit_fd.z_covector(covector), row) <= 1e-12


def test_answer_path_builds_no_dense_omega_or_z(monkeypatch):
    """The fundamental map, the solves, the queries and the series build no lift
    and apply Z by vector solves, never against a d x d identity."""
    n = 4
    rng = np.random.default_rng(12)
    t, cert = random_irreducible_cptp(n, 2, rng)
    rhs_columns = []
    kron_calls = []
    solve = np.linalg.solve

    def recording(a, b):
        rhs_columns.append(1 if np.ndim(b) == 1 else np.shape(b)[1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    monkeypatch.setattr(np, "kron", lambda *args: kron_calls.append(args))
    fd = fundamental_map(t, cert)
    rho = random_density(n, rng)
    for sub in (subspace_from_indices(n, [1]), random_subspace(n, 2, rng)):
        hs = solve_hitting(t, sub, cert, fd=fd)
        hitting_probability(hs, rho)
        mean_hitting_time_direct(hs, rho)
        mhtf_general(hs, rho)
        mhtf_orthogonal(hs, random_density_supported(sub.complement_basis, rng))
        tau_series(t, sub, rho)
        first_visit_series(t, sub, rho, 10)
        condition_first_step(t, sub, rho)
    assert kron_calls == []
    assert rhs_columns and max(rhs_columns) < n * n
