import numpy as np
import pytest
from numpy.testing import assert_allclose

import golden
import hittime.maps
from hittime import (
    CERTIFIED_IRREDUCIBLE,
    DensityMatrix,
    IrreducibilityCertificate,
    NumericError,
    PreconditionError,
    SuperOperator,
    apply,
    condition_first_step,
    density,
    from_kraus,
    from_raw,
    from_stochastic,
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
from test_real_kernels import hermitian_basis_matrix


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


def test_fundamental_map_matches_printed(monkeypatch, qubit_channel, qubit_pi):
    # The dense Z inverts I - T + Omega itself, without the answer path's solve.
    monkeypatch.setattr(np.linalg, "solve", lambda *args: pytest.fail("solve called"))
    assert_allclose(fundamental(qubit_channel, qubit_pi), golden.QUBIT_Z, atol=1e-13)


def test_fundamental_map_of_projection_map_is_identity():
    # a map that already projects onto pi: I - Omega + Omega = I
    pi = density(np.eye(2) / 2)
    omega_map = from_raw(omega(pi))
    pi = invariant_state(omega_map).fundamental_pi()
    assert_allclose(fundamental(omega_map, pi), np.eye(4), atol=1e-13)


def test_fundamental_solve_residual_on_random_map():
    channel, cert = random_irreducible_cptp(3, rng=13)
    pi = cert.fundamental_pi()
    lhs = (np.eye(9) - channel.rep + omega(pi)) @ fundamental(channel, pi)
    assert np.max(np.abs(lhs - np.eye(9))) <= 1e-10
    assert cert.condition_estimate >= 1.0


def test_fundamental_map_rejects_reducible_map():
    identity_channel = from_kraus([np.eye(2)])
    cert = invariant_state(identity_channel)
    assert cert.fixed_space_dim == 4
    with pytest.raises(PreconditionError) as refused:
        cert.fundamental_pi()
    assert str(refused.value) == (
        "map is not certified irreducible (verdict: not_irreducible under atol 1e-10 and "
        "rtol 1e-10); a smaller tolerance (--tol) may certify a nearly reducible map"
    )
    with pytest.raises(PreconditionError, match="not certified irreducible"):
        solve_hitting(identity_channel, subspace_from_indices(2, [0]))


def test_fundamental_map_refuses_a_condition_beyond_the_ceiling(monkeypatch, qubit_channel):
    cert = invariant_state(qubit_channel)
    monkeypatch.setattr(hittime.maps, "COND_CEIL", cert.condition_estimate / 2)
    message = (
        f"fundamental solve is singular to working precision "
        f"(condition estimate {cert.condition_estimate:.3e})"
    )
    with pytest.raises(NumericError) as refused:
        cert.fundamental_pi()
    assert str(refused.value) == message
    with pytest.raises(NumericError) as refused:
        solve_hitting(qubit_channel, subspace_from_indices(2, [0]))
    assert str(refused.value) == message


def test_fundamental_map_refuses_a_map_that_is_not_trace_preserving(qubit_channel):
    scaled = SuperOperator(2, 0.5 * qubit_channel.rep, "raw")  # T*(I) = I / 2
    with pytest.raises(PreconditionError) as refused:
        solve_hitting(scaled, subspace_from_indices(2, [0]))
    assert str(refused.value) == "map is not trace preserving (residual 7.071e-01)"


def test_identities_demo_channel(qubit_channel, qubit_pi):
    residuals = fundamental_identities(qubit_pi, qubit_channel)
    assert max(residuals.values()) <= 1e-12


def test_identities_qudit_demo():
    channel = qudit_demo_channel(0.6)
    residuals = fundamental_identities(invariant_state(channel).fundamental_pi(), channel)
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


def test_fundamental_map_preserves_trace_on_random_inputs(qubit_channel, qubit_pi):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    out = unvec(fundamental(qubit_channel, qubit_pi) @ vec(x))
    assert np.trace(out) == pytest.approx(np.trace(x), abs=1e-12)


def _relative(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


def _frame_basis(sub) -> np.ndarray:
    """U_W = kron(W, conj(W)) U: the Hermitian basis of the frame W, in row-stacked vecs.

    Frame coordinates are c = U_W* vec(X), so a covector l on them is l U_W* on vecs.
    """
    n = sub.dim_ambient
    w = np.eye(n) if sub.frame is None else sub.frame
    return np.kron(w, w.conj()) @ hermitian_basis_matrix(n)


def _z_rows(hs):
    """The row e K11 of a solution and the row e K11 Z it carried through Z."""
    return hs.time_covector - hs.subspace.mask(hs.time_covector), hs.return_covector + hs.start_covector


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_z_covector_applies_z(n):
    """solve_hitting applies Z in the frame, for an index and a vector target."""
    rng = np.random.default_rng(40 + n)
    t, cert = random_irreducible_cptp(n, 2, rng)
    z = fundamental(t, cert.fundamental_pi())
    for sub in (subspace_from_indices(n, [n - 1]), random_subspace(n, 1, rng)):
        basis = _frame_basis(sub)
        k11_row, kz = _z_rows(solve_hitting(t, sub, cert))
        assert _relative(kz, k11_row @ basis.conj().T @ z @ basis) <= 1e-12


def test_z_covector_refuses_a_singular_matrix():
    # A pi of trace 0 leaves A = I - T + Omega exactly as singular as I - T.
    t = from_stochastic(np.full((2, 2), 0.5))
    cert = IrreducibilityCertificate(
        DensityMatrix(np.zeros((2, 2))), 1, 0.5, CERTIFIED_IRREDUCIBLE, 1.0
    )
    with pytest.raises(NumericError) as refused:
        solve_hitting(t, subspace_from_indices(2, [0]), cert)
    assert str(refused.value) == "fundamental solve failed (condition estimate 1.000e+00)"


def test_z_covector_matches_printed(qubit_solution):
    basis = _frame_basis(qubit_solution.subspace)
    k11_row, kz = _z_rows(qubit_solution)
    assert _relative(kz, k11_row @ basis.conj().T @ golden.QUBIT_Z @ basis) <= 1e-12


def test_answer_path_builds_no_dense_omega_or_z(monkeypatch):
    """The gate, the solves, the queries and the series build no lift and
    apply Z by vector solves, never against a d x d identity."""
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
    cert.fundamental_pi()
    rho = random_density(n, rng)
    for sub in (subspace_from_indices(n, [1]), random_subspace(n, 2, rng)):
        hs = solve_hitting(t, sub, cert)
        hitting_probability(hs, rho)
        mean_hitting_time_direct(hs, rho)
        mhtf_general(hs, rho)
        mhtf_orthogonal(hs, random_density_supported(sub.complement_basis, rng))
        tau_series(t, sub, rho)
        condition_first_step(t, sub, rho)
    assert kron_calls == []
    assert rhs_columns and max(rhs_columns) < n * n
