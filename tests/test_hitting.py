import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import golden
import hittime
from conftest import complement_basis, survival_matrix
from hittime import (
    DEFAULT_TOL,
    DimensionError,
    NumericError,
    SuperOperator,
    OrthogonalityError,
    PreconditionError,
    Tolerance,
    ValidationError,
    condition_first_step,
    from_kraus,
    from_raw,
    from_stochastic,
    hitting_probability,
    invariant_state,
    is_psd,
    mean_hitting_time_direct,
    mhtf_general,
    mhtf_orthogonal,
    pure_density,
    solve_hitting,
    subspace_from_indices,
    subspace_from_vectors,
    tau_series,
    unvec,
    vec,
)
from hittime.blocks import block, dnl, fundamental, hitting_maps, lift
from hittime.hitting import survival_rows
from hittime.linalg import hermitian_coords, hermitian_matrix, spectral_radius
from hittime.maps import frame_form
from hittime.examples import qudit_demo_channel, symmetric_two_state_chain
from hittime.sampling import (
    random_column_stochastic,
    random_cptp_map,
    random_density,
    random_density_supported,
    random_irreducible_cptp,
    random_subspace,
)
from test_real_kernels import hermitian_basis_matrix


def apply_rep(rep, matrix):
    return unvec(rep @ vec(matrix))


def dense_maps(t, hs):
    """H and K of (t, the solution's subspace), from the dense reference route."""
    return hitting_maps(t, hs.subspace)


# ------------------------------------------------------------------ subspaces

def test_subspace_from_vectors_demo_projector():
    sub = subspace_from_vectors([np.array([1.0, 1.0]) / np.sqrt(2)])
    assert_allclose(sub.projector_p, np.full((2, 2), 0.5), atol=1e-14)
    assert sub.rank == 1


def test_subspace_from_indices_matches_diagonal_projector():
    sub = subspace_from_indices(4, [2, 3])
    assert_allclose(sub.projector_p, np.diag([0.0, 0.0, 1.0, 1.0]))
    assert sub.rank == 2


def test_subspace_collapses_linear_dependence():
    v = np.array([1.0, 2.0, 0.0])
    sub_single = subspace_from_vectors([v])
    sub_double = subspace_from_vectors([v, 2.0 * v])
    assert sub_double.rank == 1
    assert_allclose(sub_double.projector_p, sub_single.projector_p, atol=1e-12)


def test_subspace_rejects_zero_span():
    with pytest.raises(ValidationError):
        subspace_from_vectors([np.zeros(3)])


@pytest.mark.parametrize("scale", [2.0**-1000, 1e-12, 1.0, 1e12, 2.0**1000])
def test_subspace_rank_does_not_depend_on_the_scale_of_the_vectors(scale):
    rng = np.random.default_rng(90)
    vectors = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    unit = subspace_from_vectors(vectors)
    sub = subspace_from_vectors(vectors * scale)
    assert sub.rank == 2
    assert_allclose(sub.projector_p, unit.projector_p, rtol=0, atol=1e-15)


def test_subspace_rejects_full_space():
    with pytest.raises(ValidationError):
        subspace_from_vectors([e for e in np.eye(2)])
    with pytest.raises(ValidationError):
        subspace_from_indices(3, [0, 1, 2])


# ------------------------------------------------------------ super projectors

def test_super_projectors_demo_printed(qubit_solution):
    assert_allclose(lift(qubit_solution.subspace.projector_p), golden.QUBIT_PP, atol=1e-14)
    assert_allclose(lift(qubit_solution.subspace.projector_q), golden.QUBIT_QQ, atol=1e-14)


def test_super_projectors_resolution_of_identity():
    sp = random_subspace(4, 2, rng=3)
    eye = np.eye(16)
    pp, qq = lift(sp.projector_p), lift(sp.projector_q)
    rr = eye - pp - qq
    assert_allclose(pp + qq + rr, eye, atol=1e-14)
    for rep in (pp, qq, rr):
        assert_allclose(rep @ rep, rep, atol=1e-12)


def test_remainder_projects_onto_traceless_matrices():
    sub = random_subspace(3, 1, rng=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rr = np.eye(9) - lift(sub.projector_p) - lift(sub.projector_q)
    assert np.trace(apply_rep(rr, x)) == pytest.approx(0.0, abs=1e-12)


def test_subspace_projector_action():
    sub = random_subspace(3, 2, rng=6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = sub.projector_p
    assert_allclose(apply_rep(lift(p), x), p @ x @ p, atol=1e-12)


# ----------------------------------------------------------------- compression

def _index_and_vector_subspaces(n, rank, rng):
    indices = rng.choice(n, size=rank, replace=False)
    return subspace_from_indices(n, indices), random_subspace(n, rank, rng=rng)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_compression_matches_dense_lift(n):
    """In the Hermitian basis of the frame, QQ = kron(Q, conj(Q)) masks the kept coordinates."""
    rng = np.random.default_rng(200 + n)
    d = n * n
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x += x.conj().T
    for rank in range(1, n):
        for sub in _index_and_vector_subspaces(n, rank, rng):
            q = sub.projector_q
            qq = np.kron(q, q.conj())
            w = np.eye(n) if sub.frame is None else sub.frame
            basis = np.kron(w, w.conj()) @ hermitian_basis_matrix(n)
            mask = np.zeros(d)
            mask[sub.kept] = 1.0
            assert sub.kept.size == (n - rank) ** 2
            assert_allclose(basis.conj().T @ qq @ basis, np.diag(mask), rtol=0, atol=1e-13)
            assert_allclose(sub.coords(x), basis.conj().T @ vec(x), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_first_row_is_conjugate_projector(n):
    """e (I - QQ) = vec(conj(P)) for e = vec(I), the row solve_hitting starts from."""
    rng = np.random.default_rng(300 + n)
    e = vec(np.eye(n))
    for rank in range(1, n):
        for sub in _index_and_vector_subspaces(n, rank, rng):
            q = sub.projector_q
            first_row = e - e @ np.kron(q, q.conj())
            assert_allclose(first_row, vec(sub.projector_p.conj()), rtol=0, atol=1e-15)


def test_queries_and_series_never_build_dense_lift(monkeypatch):
    rng = np.random.default_rng(400)
    channel, cert = random_irreducible_cptp(4, rng=rng)
    sub = random_subspace(4, 2, rng=rng)
    kron_calls = []
    monkeypatch.setattr(np, "kron", lambda *args: kron_calls.append(args))
    hs = solve_hitting(channel, sub, cert)
    rho = random_density(4, rng=rng)
    phi = random_density_supported(sub.complement_basis, rng=rng)
    hitting_probability(hs, rho)
    mean_hitting_time_direct(hs, rho)
    mhtf_orthogonal(hs, phi)
    mhtf_general(hs, rho)
    tau_series(channel, sub, rho)
    condition_first_step(channel, sub, rho)
    assert kron_calls == []


def test_importing_the_library_leaves_out_the_dense_reference_route():
    src = str(Path(hittime.__file__).resolve().parents[1])
    probe = "import sys, hittime; print('hittime.blocks' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


# ----------------------------------------------------------------- hitting maps

def test_hitting_maps_demo_printed(qubit_channel, qubit_solution):
    assert_allclose(dense_maps(qubit_channel, qubit_solution)[1], golden.QUBIT_K, atol=1e-12)


def test_hitting_maps_qudit_quadrants_match_closed_forms(qudit_solution_06):
    k = dense_maps(qudit_demo_channel(0.6), qudit_solution_06)[1]
    assert_allclose(k, golden.qudit_k_expected(0.6), atol=1e-12)


def test_time_map_is_probability_map_times_resolvent():
    channel, cert = random_irreducible_cptp(3, rng=8)
    sub = random_subspace(3, 1, rng=9)
    h, k = hitting_maps(channel, sub)
    resolvent = np.linalg.inv(np.eye(9) - lift(sub.projector_q) @ channel.rep)
    assert_allclose(k, h @ resolvent, atol=1e-10)


def test_hitting_maps_reject_reducible_survival():
    # identity channel never leaves any state, so monitoring never absorbs
    channel = from_kraus([np.eye(2)])
    sp = subspace_from_indices(2, [0])
    with pytest.raises(NumericError, match="spectral radius"):
        hitting_maps(channel, sp)


# ---------------------------------------------------------------------- blocks

def test_block_demo_printed(qubit_channel, qubit_solution):
    recomputed = block(dense_maps(qubit_channel, qubit_solution)[1], qubit_solution.subspace, 1, 2)
    assert_allclose(recomputed, golden.QUBIT_K12, atol=1e-12)


def test_blocks_resolve_identity(qubit_solution):
    sp = qubit_solution.subspace
    eye = np.eye(4)
    total = sum(block(eye, sp, i, j) for i in (1, 2) for j in (1, 2))
    assert_allclose(total, eye, atol=1e-14)


def test_block_rejects_bad_indices(qubit_channel, qubit_solution):
    with pytest.raises(ValidationError):
        block(dense_maps(qubit_channel, qubit_solution)[1], qubit_solution.subspace, 0, 1)


def test_off_diagonal_part_has_zero_diagonal_blocks(qubit_channel, qubit_solution):
    sp = qubit_solution.subspace
    _, n_rep, _ = dnl(dense_maps(qubit_channel, qubit_solution)[1], qubit_channel, sp)
    assert np.max(np.abs(block(n_rep, sp, 1, 1))) <= 1e-12
    assert np.max(np.abs(block(n_rep, sp, 2, 2))) <= 1e-12


# ------------------------------------------------------------- probabilities

def test_hitting_probability_is_one(qubit_solution, qubit_states):
    assert hitting_probability(qubit_solution, qubit_states["phi"]) == pytest.approx(
        1.0, abs=1e-12
    )
    # state already inside the arrival subspace
    assert hitting_probability(qubit_solution, qubit_states["psi"]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_hitting_probability_random_map():
    channel, cert = random_irreducible_cptp(3, rng=10)
    hs = solve_hitting(channel, random_subspace(3, 2, rng=11), cert)
    rho = random_density(3, rng=12)
    assert hitting_probability(hs, rho) == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------------- direct

def test_direct_demo_values(qubit_solution, qubit_states):
    assert mean_hitting_time_direct(
        qubit_solution, qubit_states["phi"]
    ) == pytest.approx(6.0, abs=1e-9)
    assert mean_hitting_time_direct(
        qubit_solution, qubit_states["chi"]
    ) == pytest.approx(2.0, abs=1e-9)


def test_direct_qudit_closed_form(qudit_solution_06, qudit_states):
    assert mean_hitting_time_direct(
        qudit_solution_06, qudit_states["phi"]
    ) == pytest.approx(golden.qudit_tau_phi(0.6), abs=1e-10)


# ------------------------------------------------------------- formula routes

def test_formula_demo_summands(qubit_solution, qubit_states):
    result = mhtf_orthogonal(
        qubit_solution, qubit_states["phi"], qubit_states["psi"]
    )
    assert result.psi_term == pytest.approx(4.0, abs=1e-9)
    assert result.phi_term == pytest.approx(-2.0, abs=1e-9)
    assert result.tau == pytest.approx(6.0, abs=1e-9)


def test_formula_qudit_summands_and_route_equality(qudit_solution_06, qudit_states):
    result = mhtf_orthogonal(qudit_solution_06, qudit_states["phi"])
    assert result.psi_term == pytest.approx(golden.qudit_psi_term(0.6), abs=1e-9)
    assert result.phi_term == pytest.approx(golden.qudit_phi_term(0.6), abs=1e-9)
    direct = mean_hitting_time_direct(qudit_solution_06, qudit_states["phi"])
    assert result.tau == pytest.approx(direct, abs=1e-9)


def test_formula_matches_series_oracle_on_random_instance():
    channel, cert = random_irreducible_cptp(4, rng=14)
    sub = random_subspace(4, 2, rng=15)
    hs = solve_hitting(channel, sub, cert)
    rho_phi = random_density_supported(complement_basis(sub.projector_q), rng=16)
    rho_psi = random_density_supported(sub.basis, rng=17)
    formula = mhtf_orthogonal(hs, rho_phi, rho_psi).tau
    series = tau_series(channel, hs.subspace, rho_phi)
    assert formula == pytest.approx(series, abs=1e-8)


def test_formula_rejects_unsupported_start(qubit_solution, qubit_states):
    with pytest.raises(OrthogonalityError, match="residual"):
        mhtf_orthogonal(qubit_solution, qubit_states["psi"], qubit_states["psi"])
    with pytest.raises(OrthogonalityError, match="residual"):
        mhtf_orthogonal(qubit_solution, qubit_states["phi"], qubit_states["phi"])


def _random_target(target, n, rng):
    if target == "index":
        return subspace_from_indices(n, rng.choice(n, size=2, replace=False))
    return random_subspace(n, 2, rng=rng)


@pytest.mark.parametrize("target", ["index", "vector"])
def test_psi_term_is_the_return_covector_paired_with_the_normalized_projector(target):
    """The arrival-side term is a number of the solution: every default
    mhtf reads it, bit for bit the pairing with coords(W* P W / rank)."""
    rng = np.random.default_rng(61)
    channel, cert = random_irreducible_cptp(4, rng=rng)
    sub = _random_target(target, 4, rng)
    hs = solve_hitting(channel, sub, cert)
    p = sub.projector_p / sub.rank
    if sub.frame is not None:
        p = sub.frame.conj().T @ p @ sub.frame
    reference = float(np.real(hs.return_covector @ hermitian_coords(p)))
    rho_phi = random_density_supported(complement_basis(sub.projector_q), rng=rng)
    assert hs.psi_term == reference
    assert mhtf_orthogonal(hs, rho_phi).psi_term == reference
    rho = random_density(4, rng=rng)
    w = sub.coords(rho.matrix)
    expected = 1.0 + reference * float(np.real(hs.survival_covector @ w)) - float(
        np.real(hs.first_step_covector @ w))
    assert mhtf_general(hs, rho) == expected


@pytest.mark.parametrize("target", ["index", "vector"])
@pytest.mark.parametrize("seed", [62, 63, 64])
def test_start_support_residual_is_read_in_frame_coordinates(target, seed):
    """mhtf_orthogonal refuses a start exactly when ||Q rho Q - rho||_F,
    computed here from the projector, exceeds atol + rtol (to 1e-14), and
    reads no projector to decide."""
    rng = np.random.default_rng(seed)
    channel, cert = random_irreducible_cptp(4, rng=rng)
    sub = _random_target(target, 4, rng)
    hs = solve_hitting(channel, sub, cert)
    rho = random_density(4, rng=rng)
    q = sub.projector_q
    residual = np.linalg.norm(q @ rho.matrix @ q - rho.matrix)
    blind = dataclasses.replace(hs, subspace=dataclasses.replace(sub, projector_q=None))
    below = dataclasses.replace(blind, tol=Tolerance(residual / 2 - 1e-14, residual / 2))
    above = dataclasses.replace(blind, tol=Tolerance(residual / 2 + 1e-14, residual / 2))
    with pytest.raises(OrthogonalityError):
        mhtf_orthogonal(below, rho)
    assert mhtf_orthogonal(above, rho).psi_term == hs.psi_term


def test_start_support_is_judged_under_the_solution_tolerance():
    """A start about 1e-9 off the complement is refused at the default
    tolerance, which allows 2e-10, and accepted under 1e-7."""
    channel = qudit_demo_channel(0.6)
    sub = subspace_from_indices(4, [2, 3])
    delta = 1e-9 / np.sqrt(2)
    rho = pure_density([1.0, 0.0, delta, 0.0])
    assert np.linalg.norm(sub.projector_q @ rho.matrix @ sub.projector_q - rho.matrix) == (
        pytest.approx(1e-9, rel=1e-6))
    with pytest.raises(OrthogonalityError, match="initial state"):
        mhtf_orthogonal(solve_hitting(channel, sub), rho)
    loose = solve_hitting(channel, sub, tol=Tolerance(1e-7, 1e-7))
    assert mhtf_orthogonal(loose, rho).tau == pytest.approx(mhtf_general(loose, rho), rel=1e-12)


# ------------------------------------------------------------------ D / N / L

def test_first_block_row_of_l_equals_h(qubit_channel, qubit_solution):
    sp = qubit_solution.subspace
    h, k = dense_maps(qubit_channel, qubit_solution)
    _, _, l_rep = dnl(k, qubit_channel, sp)
    eye = np.eye(4)
    lhs = (eye - lift(sp.projector_q)) @ l_rep
    rhs = (eye - lift(sp.projector_q)) @ h
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_first_block_row_of_l_equals_h_random():
    channel, cert = random_irreducible_cptp(3, rng=18)
    hs = solve_hitting(channel, random_subspace(3, 1, rng=19), cert)
    h, k = dense_maps(channel, hs)
    _, _, l_rep = dnl(k, channel, hs.subspace)
    eye = np.eye(9)
    lhs = (eye - lift(hs.subspace.projector_q)) @ l_rep
    rhs = (eye - lift(hs.subspace.projector_q)) @ h
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_vector_identities_on_demo_states(qubit_channel, qubit_pi, qubit_solution, qubit_states):
    sp = qubit_solution.subspace
    d_rep, n_rep, l_rep = dnl(dense_maps(qubit_channel, qubit_solution)[1], qubit_channel, sp)
    z = fundamental(qubit_channel, qubit_pi)
    dz, lz = d_rep @ z, l_rep @ z
    rho_phi = qubit_states["phi"].matrix
    rho_psi = qubit_states["psi"].matrix

    lhs = apply_rep(block(n_rep, sp, 1, 2), rho_phi)
    rhs = (
        apply_rep(block(dz, sp, 1, 1), rho_psi)
        - apply_rep(block(dz, sp, 1, 2), rho_phi)
        + apply_rep(block(lz, sp, 1, 2), rho_phi)
        - apply_rep(block(lz, sp, 1, 1), rho_psi)
    )
    assert_allclose(lhs, rhs, atol=1e-10)

    lhs2 = apply_rep(block(n_rep, sp, 2, 1), rho_psi)
    rhs2 = (
        apply_rep(block(dz, sp, 2, 2), rho_phi)
        - apply_rep(block(dz, sp, 2, 1), rho_psi)
        + apply_rep(block(lz, sp, 2, 1), rho_psi)
        - apply_rep(block(lz, sp, 2, 2), rho_phi)
    )
    assert_allclose(lhs2, rhs2, atol=1e-10)


# --------------------------------------------------------- first-step analysis

def test_first_step_demo(qubit_channel, qubit_solution, qubit_states):
    step = condition_first_step(
        qubit_channel, qubit_solution.subspace, qubit_states["chi"]
    )
    assert not step.absorbed
    assert step.weight == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert_allclose(step.next_state.matrix, qubit_states["phi"].matrix, atol=1e-12)


def test_first_step_qudit(qudit_solution_06, qudit_states):
    """A Kraus map takes its step from the family, without building its rep."""
    a, b = 0.6, 0.8
    channel = qudit_demo_channel(0.6)
    step = condition_first_step(channel, qudit_solution_06.subspace, qudit_states["chi"])
    assert "rep" not in channel.__dict__
    assert not step.absorbed
    assert step.weight == pytest.approx(1.0, abs=1e-12)
    expected = np.diag([0.5 + a * b, 0.5 - a * b, 0.0, 0.0])
    assert_allclose(step.next_state.matrix, expected, atol=1e-12)


def test_first_step_absorbed():
    # two-state swap chain: the first step always lands in the target
    channel = from_stochastic(np.array([[0.0, 1.0], [1.0, 0.0]]))
    sp = subspace_from_indices(2, [1])
    step = condition_first_step(channel, sp, pure_density([1.0, 0.0]))
    assert step.absorbed
    assert step.next_state is None


# -------------------------------------------------------------- general route

def test_general_demo(qubit_solution, qubit_states):
    tau = mhtf_general(qubit_solution, qubit_states["chi"], qubit_states["psi"])
    assert tau == pytest.approx(2.0, abs=1e-9)


def test_general_qudit(qudit_solution_06, qudit_states):
    tau = mhtf_general(qudit_solution_06, qudit_states["chi"])
    assert tau == pytest.approx(golden.qudit_tau_chi(0.6), abs=1e-9)


def test_general_agrees_with_orthogonal_route_for_orthogonal_start():
    channel, cert = random_irreducible_cptp(3, rng=20)
    sub = random_subspace(3, 1, rng=21)
    hs = solve_hitting(channel, sub, cert)
    rho_phi = random_density_supported(complement_basis(sub.projector_q), rng=22)
    assert mhtf_general(hs, rho_phi) == pytest.approx(
        mhtf_orthogonal(hs, rho_phi).tau, abs=1e-10
    )


def test_general_default_reference_state(qudit_solution_06, qudit_states):
    from hittime import DensityMatrix

    uniform = DensityMatrix(qudit_solution_06.subspace.projector_p / 2)
    explicit = mhtf_general(qudit_solution_06, qudit_states["chi"], uniform)
    default = mhtf_general(qudit_solution_06, qudit_states["chi"])
    assert default == pytest.approx(explicit, abs=1e-12)


def test_general_rejects_reference_state_outside_subspace(
    qubit_solution, qubit_states
):
    with pytest.raises(OrthogonalityError):
        mhtf_general(qubit_solution, qubit_states["chi"], qubit_states["phi"])


@pytest.mark.parametrize("target", ["index", "vector"])
def test_hitting_solution_holds_no_matrix(target):
    channel, cert = random_irreducible_cptp(4, rng=37)
    if target == "index":
        sub = subspace_from_indices(4, [0, 2])
    else:
        sub = random_subspace(4, 2, rng=38)
    hs = solve_hitting(channel, sub, cert)
    for field in dataclasses.fields(hs):
        value = getattr(hs, field.name)
        assert not (isinstance(value, np.ndarray) and value.ndim >= 2), field.name


def test_general_absorbed_branch_returns_one():
    channel = from_stochastic(np.array([[0.0, 1.0], [1.0, 0.0]]))
    hs = solve_hitting(channel, subspace_from_indices(2, [1]))
    assert mhtf_general(hs, pure_density([1.0, 0.0])) == pytest.approx(1.0)


# ------------------------------------------------------------------ properties

@pytest.mark.parametrize("seed,n", [(30, 2), (31, 3), (32, 4)])
def test_route_equivalence_property(seed, n):
    rng = np.random.default_rng(seed)
    channel, cert = random_irreducible_cptp(n, rng=rng)
    rank = int(rng.integers(1, n))
    sub = random_subspace(n, rank, rng=rng)
    hs = solve_hitting(channel, sub, cert)
    rho_phi = random_density_supported(complement_basis(sub.projector_q), rng=rng)
    rho_psi = random_density_supported(sub.basis, rng=rng)
    direct = mean_hitting_time_direct(hs, rho_phi)
    formula = mhtf_orthogonal(hs, rho_phi, rho_psi).tau
    series = tau_series(channel, hs.subspace, rho_phi)
    assert abs(direct - formula) <= 1e-9
    assert abs(direct - series) <= 1e-8
    assert hitting_probability(hs, rho_phi) == pytest.approx(1.0, abs=1e-10)


def test_return_summand_is_reference_independent():
    channel, cert = random_irreducible_cptp(4, rng=33)
    sub = random_subspace(4, 2, rng=34)
    hs = solve_hitting(channel, sub, cert)
    rho_phi = random_density_supported(complement_basis(sub.projector_q), rng=35)
    rng = np.random.default_rng(36)
    values = [
        mhtf_orthogonal(hs, rho_phi, random_density_supported(sub.basis, rng=rng)).psi_term
        for _ in range(20)
    ]
    assert max(values) - min(values) <= 1e-10


def test_resolvent_shortcut_on_random_densities(qubit_channel, qubit_solution):
    # Tr((I - Q) K rho) must equal Tr(H rho)
    h, _ = dense_maps(qubit_channel, qubit_solution)
    rng = np.random.default_rng(37)
    for _ in range(5):
        rho = random_density(2, rng=rng)
        tau = mean_hitting_time_direct(qubit_solution, rho)
        cross = np.trace(apply_rep(h, rho.matrix)).real
        assert tau == pytest.approx(cross, abs=1e-10)


def test_first_step_recursion():
    channel, cert = random_irreducible_cptp(3, rng=38)
    sub = random_subspace(3, 1, rng=39)
    hs = solve_hitting(channel, sub, cert)
    rho = random_density(3, rng=40)
    step = condition_first_step(channel, hs.subspace, rho)
    assert not step.absorbed
    tau = mean_hitting_time_direct(hs, rho)
    tau_next = mean_hitting_time_direct(hs, step.next_state)
    assert tau == pytest.approx(1.0 + step.weight * tau_next, abs=1e-9)


def test_hitting_maps_are_positive(qubit_channel, qubit_solution):
    rng = np.random.default_rng(41)
    for _ in range(5):
        rho = random_density(2, rng=rng)
        for rep in dense_maps(qubit_channel, qubit_solution):
            out = apply_rep(rep, rho.matrix)
            assert is_psd(out).ok


def test_projector_substitution_leaves_traces_unchanged(qubit_channel, qubit_solution, qubit_states):
    # replacing the subspace projector by I - Q only adds traceless terms
    sp = qubit_solution.subspace
    eye = np.eye(4)
    rho = qubit_states["chi"].matrix
    for rep in dense_maps(qubit_channel, qubit_solution):
        via_p = np.trace(apply_rep(lift(sp.projector_p) @ rep, rho)).real
        via_q = np.trace(apply_rep((eye - lift(sp.projector_q)) @ rep, rho)).real
        assert via_p == pytest.approx(via_q, abs=1e-12)


def test_solve_hitting_rejects_reducible_map():
    with pytest.raises(PreconditionError, match="certified"):
        solve_hitting(from_kraus([np.eye(2)]), subspace_from_indices(2, [0]))


def test_solve_hitting_refuses_an_ill_conditioned_resolvent(monkeypatch, qubit_channel):
    sub = subspace_from_indices(2, [0])
    _, _, _, radius, cond = survival_rows(qubit_channel, sub)
    monkeypatch.setattr(hittime.hitting, "COND_CEIL", cond / 2)
    with pytest.raises(NumericError) as refused:
        solve_hitting(qubit_channel, sub)
    assert str(refused.value) == (
        f"survival resolvent is singular to working precision "
        f"(condition estimate {cond:.3e}, spectral radius {radius:.12g})"
    )


def test_raw_map_refuses_on_the_2_norm_condition_before_solving(monkeypatch, qubit_channel):
    raw = from_raw(qubit_channel.rep)
    sub = subspace_from_indices(2, [0])
    radius = survival_rows(raw, sub)[3]
    cond = np.linalg.cond(survival_matrix(raw, sub))
    cert = invariant_state(raw)
    assert solve_hitting(raw, sub, cert).condition_estimate == cond
    monkeypatch.setattr(hittime.hitting, "COND_CEIL", cond / 2)
    solves = []
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args))
    with pytest.raises(NumericError) as refused:
        solve_hitting(raw, sub, cert)
    assert str(refused.value) == (
        f"survival resolvent is singular to working precision "
        f"(condition estimate {cond:.3e}, spectral radius {radius:.12g})"
    )
    assert not solves


@pytest.mark.parametrize("failure", ["singular", "non-finite"])
def test_a_failed_survival_solve_is_refused_on_its_condition(monkeypatch, qubit_channel, failure):
    sub = subspace_from_indices(2, [0])
    # Without a time row the radius is the kept block's own.
    radius = spectral_radius(frame_form(qubit_channel, sub.frame)[np.ix_(sub.kept, sub.kept)])
    solve = np.linalg.solve

    def failing(a, b):
        if failure == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b) * np.nan

    cert = invariant_state(qubit_channel)
    monkeypatch.setattr(np.linalg, "solve", failing)
    with pytest.raises(NumericError) as refused:
        solve_hitting(qubit_channel, sub, cert)
    assert str(refused.value) == (
        f"survival resolvent is singular to working precision "
        f"(condition estimate inf, spectral radius {radius:.12g})"
    )


def test_solve_hitting_rejects_dimension_mismatch(qubit_channel):
    with pytest.raises(DimensionError):
        solve_hitting(qubit_channel, subspace_from_indices(3, [0]))


def test_raw_rep_gives_same_hitting_results(qubit_solution, qubit_states):
    from hittime import from_raw

    raw = from_raw(golden.QUBIT_PHI)
    hs = solve_hitting(raw, qubit_solution.subspace)
    assert mean_hitting_time_direct(hs, qubit_states["phi"]) == pytest.approx(
        6.0, abs=1e-9
    )


# ------------------------------------------------------------------ covectors

# A rank gives a random vector target, a list of indices an index target.
COVECTOR_CASES = [
    (n, kraus_rank, rank)
    for n in (2, 3, 4)
    for kraus_rank in (2, 3)
    for rank in range(1, n)
] + [
    pytest.param(5, 2, [1, 3], id="5-2-indices-1-3"),
    (6, 2, 3),
]


@pytest.mark.parametrize("n,kraus_rank,rank", COVECTOR_CASES)
def test_covector_queries_match_dense_formulas(n, kraus_rank, rank):
    rng = np.random.default_rng([n, kraus_rank, len(rank) if isinstance(rank, list) else rank])
    channel, cert = random_irreducible_cptp(n, kraus_rank, rng=rng)
    if isinstance(rank, list):
        sub = subspace_from_indices(n, rank)
    else:
        sub = random_subspace(n, rank, rng=rng)
    hs = solve_hitting(channel, sub, cert)
    rho_psi = random_density_supported(sub.basis, rng=rng)
    starts = {
        "pure": random_density(n, rng=rng, rank=1),
        "mixed": random_density(n, rng=rng),
        "complement": random_density_supported(complement_basis(sub.projector_q), rng=rng),
    }
    answers = {
        label: (
            hitting_probability(hs, rho),
            mean_hitting_time_direct(hs, rho),
            mhtf_general(hs, rho, rho_psi),
        )
        for label, rho in starts.items()
    }
    ortho = mhtf_orthogonal(hs, starts["complement"], rho_psi)

    h, k = hitting_maps(channel, sub)
    qq = lift(sub.projector_q)
    z = fundamental(channel, cert.fundamental_pi())
    k11 = block(k, sub, 1, 1)
    dz = (k11 + block(k, sub, 2, 2)) @ z
    z11 = block(z, sub, 1, 1)
    z12 = block(z, sub, 1, 2)

    def tr(rep, rho):
        return np.trace(apply_rep(rep, rho.matrix)).real

    return_term = tr(k11 @ z11, rho_psi)
    for label, rho in starts.items():
        sigma = unvec(qq @ channel.rep @ vec(rho.matrix))
        expected = (
            tr(h - qq @ h, rho),
            tr(k - qq @ k, rho),
            1.0 + return_term * np.trace(sigma).real
            - np.trace(apply_rep(k11 @ z12, sigma)).real,
        )
        assert answers[label] == pytest.approx(expected, rel=1e-10, abs=1e-10), label
    assert ortho.psi_term == pytest.approx(tr(block(dz, sub, 1, 1), rho_psi), rel=1e-10, abs=1e-10)
    assert ortho.phi_term == pytest.approx(
        tr(block(dz, sub, 1, 2), starts["complement"]), rel=1e-10, abs=1e-10
    )


def test_unitary_channel_is_refused():
    # one Kraus operator with V* V = I is a unitary conjugation, which fixes
    # every function of V: never irreducible
    channel = random_cptp_map(3, 1, rng=50)
    with pytest.raises(PreconditionError, match="certified"):
        solve_hitting(channel, random_subspace(3, 1, rng=51))


def test_direct_cross_check_rejects_deviation_beyond_conditioning():
    channel = from_stochastic(symmetric_two_state_chain(1e-7))
    hs = solve_hitting(channel, subspace_from_indices(2, [1]))
    start = pure_density([1.0, 0.0])
    assert mean_hitting_time_direct(hs, start) == pytest.approx(1e7, rel=1e-6)
    # the allowed relative deviation is about cond x unit roundoff, 1.1e-9 here
    skewed = dataclasses.replace(hs, trace_covector=hs.trace_covector * (1 + 1e-8))
    with pytest.raises(NumericError, match="cross-check"):
        mean_hitting_time_direct(skewed, start)


@pytest.mark.parametrize("p", [
    0.1, 1e-3, 1e-5, 3e-6, 1e-7, 1e-8, 5e-10, 1e-9, 1e-10, 3e-11, 1e-11, 4e-12, 1e-12, 7e-13, 1e-13,
])
def test_direct_time_on_two_state_chains_is_exact_to_a_few_ulps(p):
    """From state 1 the walk stays put with probability s = fl(1 - p) each step,
    so the stored chain's mean time to {2} is exactly 1 / (1 - s).

    The default tolerance certifies the chain down to p = 1e-10, 1e-14 below.
    """
    tol = DEFAULT_TOL if p >= 1e-10 else Tolerance(1e-14, 1e-14)
    chain = from_stochastic(symmetric_two_state_chain(p))
    hs = solve_hitting(chain, subspace_from_indices(2, [1]), tol=tol)
    exact = float(1 / (1 - Fraction(1 - p)))
    start = pure_density([1.0, 0.0])
    assert abs(mean_hitting_time_direct(hs, start) - exact) <= 4 * np.spacing(exact)
    cond = np.linalg.cond(survival_matrix(chain, subspace_from_indices(2, [1])))
    unit = cond * np.finfo(float).eps * exact
    assert abs(mhtf_orthogonal(hs, start).tau - exact) <= 0.5 * unit


def _whitened_kraus(rng, n):
    g = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    w, v = np.linalg.eigh(np.einsum("kji,kjl->il", g.conj(), g))
    return g @ ((v * w**-0.5) @ v.conj().T)


def gap_map(seed, eps):
    """Two channels on the halves of C^8, weight 1 - eps, joined by a channel on C^8 of weight eps."""
    rng = np.random.default_rng(seed)
    halves = np.zeros((2, 8, 8), dtype=complex)
    halves[:, :4, :4] = _whitened_kraus(rng, 4)
    halves[:, 4:, 4:] = _whitened_kraus(rng, 4)
    return from_kraus([*np.sqrt(1 - eps) * halves, *np.sqrt(eps) * _whitened_kraus(rng, 8)])


@pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13])
@pytest.mark.parametrize("seed", range(1, 9))
def test_direct_time_on_gap_maps_is_the_refined_survival_sum(seed, eps):
    """The default tolerance certifies the map down to eps = 1e-9, 1e-14 below."""
    channel = gap_map(seed, eps)
    sub = subspace_from_indices(8, [0])
    hs = solve_hitting(channel, sub, tol=DEFAULT_TOL if eps >= 1e-9 else Tolerance(1e-14, 1e-14))
    start = pure_density(np.eye(8)[7])
    tau = mean_hitting_time_direct(hs, start)
    # e M^-1 for M = I - QT, refined with residuals in extended precision
    m = survival_matrix(channel, sub)
    cond = np.linalg.cond(m)
    e = hermitian_coords(np.eye(8))
    x = np.linalg.solve(m.T, e)
    for _ in range(2):
        residual = e.astype(np.longdouble) - x.astype(np.longdouble) @ m.astype(np.longdouble)
        x = x + np.linalg.solve(m.T, residual.astype(float))
    refined = float(x @ hermitian_coords(start.matrix))
    unit = cond * np.finfo(float).eps * refined
    assert abs(tau - refined) <= 0.5 * unit
    assert abs(tau - mhtf_orthogonal(hs, start).tau) <= 3 * unit


def test_solve_hitting_factors_the_survival_resolvent_once(monkeypatch):
    channel = from_stochastic(symmetric_two_state_chain(0.3))
    sub = subspace_from_indices(2, [1])
    cert = invariant_state(channel)
    resolvent = survival_matrix(channel, sub)
    matrices = []
    solve = np.linalg.solve

    def recorded(a, b):
        matrices.append(np.array(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    solve_hitting(channel, sub, cert)
    assert sum(np.array_equal(a, resolvent.T) for a in matrices) == 1


def kappa_cases():
    rng = np.random.default_rng(41)
    for n in (3, 5, 8):
        channel = random_cptp_map(n, 2, rng=rng)
        yield f"kraus-{n}-index", channel, subspace_from_indices(n, [0])
        yield f"kraus-{n}-vectors", channel, random_subspace(n, 2, rng=rng)
    for p in (0.3, 1e-4):
        yield f"two-state-{p:g}", from_stochastic(symmetric_two_state_chain(p)), subspace_from_indices(2, [1])
    chain = random_column_stochastic(5, rng)
    yield "chain-5-index", from_stochastic(chain), subspace_from_indices(5, [0, 3])
    yield "chain-5-vectors", from_stochastic(chain), random_subspace(5, 1, rng=rng)


@pytest.mark.parametrize(
    "label,channel,sub", list(kappa_cases()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_condition_estimate_is_kappa_1_and_its_eigenvector_the_slowest_start(label, channel, sub):
    """kappa_1 = 2 lambda_max(X), X the matrix of the time row; X's top
    eigenvector, mapped back through W, is the slowest pure start."""
    n = channel.dim
    hs = solve_hitting(channel, sub)
    x = hermitian_matrix(hs.time_covector)
    top = np.linalg.eigvalsh(x)[-1]
    assert hs.condition_estimate == 2 * top
    w = np.eye(n) if sub.frame is None else sub.frame
    slowest = w @ np.linalg.eigh(x)[1][:, -1]
    unit = hs.condition_estimate * np.finfo(float).eps * top
    assert abs(mean_hitting_time_direct(hs, pure_density(slowest)) - top) <= unit
    rng = np.random.default_rng(42)
    for _ in range(20):
        start = pure_density(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert mean_hitting_time_direct(hs, start) <= top + unit


# ------------------------------------- the radius bound the time row proves

def radius_bound_cases():
    rng = np.random.default_rng(43)
    for n in (2, 3, 5, 8):
        channel = random_cptp_map(n, 2, rng=rng)
        yield f"kraus-{n}-index", channel, subspace_from_indices(n, [0])
        yield f"kraus-{n}-vectors", channel, random_subspace(n, max(1, n // 3), rng=rng)
    for k in range(1, 10, 2):
        yield f"gap-1e-{k}-index", gap_map(3, 10.0**-k), subspace_from_indices(8, [0])
        yield f"gap-1e-{k}-vectors", gap_map(3, 10.0**-k), random_subspace(8, 1, rng=rng)


@pytest.mark.parametrize(
    "label,channel,sub", list(radius_bound_cases()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_time_row_bounds_the_survival_radius(label, channel, sub):
    """rho_hat = 1 - (1 - ||R||) / lambda_max(X) lies between the eigvals
    radius of QT and 1, and keeps most of the gap."""
    hs = solve_hitting(channel, sub)
    exact = float(np.max(np.abs(np.linalg.eigvals(lift(sub.projector_q) @ channel.rep))))
    assert exact <= hs.spectral_radius_qphi < 1.0
    assert 1.0 - hs.spectral_radius_qphi >= (1.0 - exact) / 4


def test_an_unproved_radius_is_the_kept_block_radius(monkeypatch, qubit_channel):
    """Where the time row proves no bound, the radius is the eigvals one, and
    the answer does not change."""
    sub = subspace_from_indices(2, [0])
    proved = solve_hitting(qubit_channel, sub)
    bounds = hittime.hitting._time_row_bounds
    monkeypatch.setattr(hittime.hitting, "_time_row_bounds",
                        lambda *args: (bounds(*args)[0], None))
    fallback = solve_hitting(qubit_channel, sub)
    exact = spectral_radius(lift(sub.projector_q) @ qubit_channel.rep)
    assert fallback.spectral_radius_qphi == pytest.approx(exact, abs=1e-14)
    assert proved.spectral_radius_qphi > fallback.spectral_radius_qphi
    np.testing.assert_array_equal(fallback.time_covector, proved.time_covector)
    assert fallback.condition_estimate == proved.condition_estimate


def test_a_time_row_whose_residual_is_not_below_one_proves_no_radius(qubit_channel):
    """Twice the solved row y leaves r = 2 y M - e = e + 2 (y M - e), of norm
    about ||e|| = sqrt(2): kappa_1 is 2 lambda_max(2 X), and no radius is proved."""
    sub = subspace_from_indices(2, [0])
    h, e, rows, radius, cond = survival_rows(qubit_channel, sub)
    resolvent = np.eye(e.size) - sub.mask(h)
    bounds = hittime.hitting._time_row_bounds
    assert bounds(resolvent, e, rows[1]) == (cond, radius)
    doubled, proved = bounds(resolvent, e, 2 * rows[1])
    assert proved is None
    assert doubled == pytest.approx(2 * cond, rel=1e-15)


@pytest.mark.parametrize("scale", [
    1.0,  # M is exactly singular, so the solve fails
    1.5,  # the solve succeeds, but the time row's matrix is not positive definite
])
def test_a_non_contracting_survival_takes_the_fallback_and_keeps_the_message(scale):
    """The stay-put chain, scaled: QT keeps the start with weight ``scale``."""
    t = SuperOperator(2, scale * from_stochastic(np.eye(2)).rep, "stochastic")
    sub = subspace_from_indices(2, [1])
    with pytest.raises(NumericError) as refused:
        survival_rows(t, sub)
    assert str(refused.value) == (
        f"monitored evolution does not contract: spectral radius of the "
        f"survival map is {scale:.12g} (map reducible or subspace trivial)"
    )
