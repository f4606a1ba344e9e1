import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import golden
from hittime import (
    CERTIFIED_IRREDUCIBLE,
    INCONCLUSIVE,
    NOT_IRREDUCIBLE,
    DimensionError,
    PreconditionError,
    Tolerance,
    ValidationError,
    apply,
    check_complete_positivity,
    check_trace_preserving,
    choi_matrix,
    density,
    from_kraus,
    from_raw,
    from_stochastic,
    invariant_state,
    is_psd,
    positivity_sample,
    pure_density,
    unvec,
    validate_column_stochastic,
    vec,
)
from hittime.examples import (
    qudit_demo_channel,
    qudit_demo_kraus,
    symmetric_two_state_chain,
)


def transpose_map(n: int):
    """Representation of X -> X^T: positive but not completely positive."""
    rep = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            rep[i * n + j, j * n + i] = 1.0
    return from_raw(rep)


# ---------------------------------------------------------------- from_kraus

def test_positive_follows_the_constructor_and_is_read_only(qubit_channel):
    assert qubit_channel.positive is True
    assert from_stochastic(symmetric_two_state_chain(0.3)).positive is True
    assert from_raw(qubit_channel.rep).positive is False
    assert transpose_map(2).positive is False  # positive, but nothing asserts it
    with pytest.raises(AttributeError):
        qubit_channel.positive = False


def test_from_kraus_identity():
    assert_allclose(from_kraus([np.eye(2)]).rep, np.eye(4))


def test_from_kraus_demo_channel_matches_printed(qubit_channel):
    assert_allclose(qubit_channel.rep, golden.QUBIT_PHI, atol=1e-14)


def test_from_kraus_qudit_demo_is_trace_preserving():
    ops = qudit_demo_kraus(0.6)
    assert from_kraus(ops).rep.shape == (16, 16)
    assert_allclose(sum(v.conj().T @ v for v in ops), np.eye(4), atol=1e-14)


def test_from_kraus_rejects_mixed_dimensions():
    with pytest.raises(DimensionError):
        from_kraus([np.eye(2), np.eye(3)])


def test_from_kraus_rejects_empty_list():
    with pytest.raises(ValidationError):
        from_kraus([])


def test_from_kraus_leaves_trace_preservation_to_its_check():
    check = check_trace_preserving(from_kraus([0.5 * np.eye(2)]))
    assert not check.ok
    assert check.residual == pytest.approx(0.75 * math.sqrt(2))


# ----------------------------------------------------------- from_stochastic

def test_from_stochastic_identity_chain():
    channel = from_stochastic(np.eye(2))
    assert_allclose(apply(channel, np.diag([0.3, 0.7])), np.diag([0.3, 0.7]))
    off_diagonal = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_allclose(apply(channel, off_diagonal), np.zeros((2, 2)), atol=1e-15)


def test_from_stochastic_one_step():
    channel = from_stochastic(symmetric_two_state_chain(0.5))
    assert_allclose(apply(channel, np.diag([1.0, 0.0])), np.eye(2) / 2)


def test_from_stochastic_diagonal_action_matches_matrix_product():
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(4), size=4).T
    x = rng.dirichlet(np.ones(4))
    channel = from_stochastic(p)
    out = apply(channel, np.diag(x))
    assert_allclose(np.diag(out), p @ x, atol=1e-14)
    assert_allclose(out - np.diag(np.diag(out)), np.zeros((4, 4)), atol=1e-15)


def test_from_stochastic_names_offending_column():
    bad = np.array([[0.9, 0.1], [0.5, 0.5]])  # column 1 sums to 1.4
    with pytest.raises(ValidationError, match="column 1"):
        from_stochastic(bad)
    negative = np.array([[1.2, 0.0], [-0.2, 1.0]])
    with pytest.raises(ValidationError, match="column 1 has a negative entry"):
        from_stochastic(negative)


def _column_by_column(p, tol):
    """The reference check: each column in turn, a negative entry before a bad sum."""
    for j in range(p.shape[1]):
        col = p[:, j]
        if col.min() < -tol.atol:
            raise ValidationError(f"column {j + 1} has a negative entry ({col.min():.3e})")
        colsum = float(col.sum())
        if abs(colsum - 1.0) > tol.atol + tol.rtol:
            raise ValidationError(f"column {j + 1} sums to {colsum!r}, expected 1")


def _refusal(check, p, tol):
    try:
        check(p, tol)
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("order", ["C", "F"])
def test_column_check_matches_the_column_by_column_reference(order):
    """One pass over all columns accepts what the per-column loop accepts and
    names the same first offending column with the same message.  A
    row-oriented file gives the check an F-ordered matrix.  Under a zero
    tolerance a column passes only if its sum is exactly 1, so the messages
    compare the bits of the sums."""
    rng = np.random.default_rng(26)
    for n in [1, 2, 3, 8, 9, 16, 17, 128, 257, *rng.integers(1, 258, 12)]:
        p = rng.random((n, n)) ** rng.uniform(1, 8)
        p = np.asarray(p / p.sum(axis=0), order=order)
        for tol in (Tolerance(), Tolerance(0.0, 0.0), Tolerance(1e-16, 1e-16)):
            assert _refusal(validate_column_stochastic, p, tol) == _refusal(_column_by_column, p, tol)
        for defect in ("negative", "sum", "both"):
            bad = p.copy(order="K")
            for j in rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False):
                if defect != "sum":
                    bad[rng.integers(n), j] = -rng.uniform(1e-9, 1.0)
                if defect != "negative":
                    bad[:, j] *= 1 + rng.uniform(1e-9, 1e-3)
            expected = _refusal(_column_by_column, bad, Tolerance())
            assert expected is not None
            assert _refusal(validate_column_stochastic, bad, Tolerance()) == expected


def test_from_stochastic_rejects_nonsquare():
    with pytest.raises(DimensionError):
        from_stochastic(np.ones((2, 3)) / 2)


# ------------------------------------------------------------------ from_raw

def test_from_raw_identity():
    channel = from_raw(np.eye(4))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert_allclose(apply(channel, x), x)


def test_from_raw_printed_rep_acts_like_kraus_channel(qubit_channel):
    raw = from_raw(golden.QUBIT_PHI)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert_allclose(apply(raw, x), apply(qubit_channel, x), atol=1e-13)


def test_from_raw_omega_sends_states_to_pi():
    omega = from_raw(golden.QUBIT_OMEGA)
    rng = np.random.default_rng(2)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    assert_allclose(apply(omega, rho), np.eye(2) / 2, atol=1e-14)


def test_from_raw_rejects_bad_shape():
    with pytest.raises(DimensionError):
        from_raw(np.eye(5))
    with pytest.raises(DimensionError):
        from_raw(np.ones((4, 3)))


# --------------------------------------------------------------------- apply

def test_apply_demo_fixes_invariant_state(qubit_channel):
    assert_allclose(apply(qubit_channel, np.eye(2) / 2), np.eye(2) / 2, atol=1e-15)


def test_apply_matches_kraus_sum_oracle():
    ops = qudit_demo_kraus(0.6)
    channel = from_kraus(ops)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    direct = sum(v @ x @ v.conj().T for v in ops)
    assert_allclose(apply(channel, x), direct, atol=1e-13)


def test_apply_rejects_dimension_mismatch(qubit_channel):
    with pytest.raises(DimensionError):
        apply(qubit_channel, np.eye(3))


def test_apply_is_linear(qubit_channel):
    rng = np.random.default_rng(4)
    x, y = (
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for _ in range(2)
    )
    lhs = apply(qubit_channel, 2.0 * x + 1j * y)
    rhs = 2.0 * apply(qubit_channel, x) + 1j * apply(qubit_channel, y)
    assert_allclose(lhs, rhs, atol=1e-13)


# ------------------------------------------------------------------- adjoint

def test_adjoint_pairing_identity():
    # The Hilbert-Schmidt adjoint of a map is the conjugate transpose of its
    # representation, which the transposed covector solves rely on.
    # Deliberately non-normalized Kraus family; the pairing identity does not
    # rely on trace preservation.
    rng = np.random.default_rng(6)
    seeds = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
             for _ in range(2)]
    channel = from_kraus(seeds)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = np.vdot(unvec(channel.rep.conj().T @ vec(y)), x)
    rhs = np.vdot(y, apply(channel, x))
    assert lhs == pytest.approx(rhs, abs=1e-11)


# ---------------------------------------------------- trace / positivity

def test_check_trace_preserving_demo(qubit_channel):
    check = check_trace_preserving(qubit_channel)
    assert check.ok
    assert check.residual <= 1e-14


def test_check_trace_preserving_zero_map():
    check = check_trace_preserving(from_raw(np.zeros((4, 4))))
    assert not check.ok
    assert check.residual == pytest.approx(np.sqrt(2.0))


def test_check_trace_preserving_qudit_demo():
    assert check_trace_preserving(qudit_demo_channel(0.6)).ok


def test_check_complete_positivity_identity():
    assert check_complete_positivity(from_kraus([np.eye(2)])).ok


def test_check_complete_positivity_demo(qubit_channel):
    assert check_complete_positivity(qubit_channel).ok


def test_kraus_family_below_n_squared_reports_a_zero_least_choi_eigenvalue(linalg_calls):
    """k < n^2 Kraus operators give a Choi matrix of rank k: its least eigenvalue is 0."""
    channel = qudit_demo_channel(0.6)
    assert 0 < len(channel.kraus) < 16
    assert check_complete_positivity(channel) == (True, 0.0)
    assert not linalg_calls
    # what the skipped eigvalsh gives: 0 to rounding
    assert abs(np.linalg.eigvalsh(choi_matrix(channel))[0]) < 1e-14


def test_kraus_family_of_n_squared_operators_takes_the_choi_eigenvalues(linalg_calls):
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    w, v = np.linalg.eigh(np.einsum("kji,kjl->il", g.conj(), g))
    channel = from_kraus(list(g @ ((v * w**-0.5) @ v.conj().T)))
    del linalg_calls[:]
    check = check_complete_positivity(channel)
    assert linalg_calls == [("complex eigvalsh", (4, 4))]
    assert check == (True, is_psd(choi_matrix(channel)).min_eigenvalue)
    assert check.min_choi_eigenvalue > 1e-3  # four independent operators: full rank


def test_transpose_map_is_not_completely_positive():
    check = check_complete_positivity(transpose_map(2))
    assert not check.ok
    assert check.min_choi_eigenvalue == pytest.approx(-1.0, abs=1e-12)


def test_raw_map_has_no_family_and_takes_the_choi_eigenvalues(linalg_calls):
    """Only a Kraus family vouches for the rank of its Choi matrix; a raw map has none."""
    t = transpose_map(2)
    assert t.kraus is None
    check = check_complete_positivity(t)
    assert linalg_calls == [("complex eigvalsh", (4, 4))]
    assert not check.ok
    assert check.min_choi_eigenvalue == pytest.approx(-1.0, abs=1e-12)


def test_transpose_map_passes_positivity_sampling():
    sample = positivity_sample(transpose_map(2), samples=200, seed=9)
    assert sample.ok
    assert sample.failures == 0
    assert sample.worst_eigenvalue >= -1e-12


def test_positivity_sampling_catches_negative_map():
    sample = positivity_sample(from_raw(-np.eye(4)), samples=50, seed=1)
    assert not sample.ok
    assert sample.failures == 50


def test_choi_of_identity_map_is_maximally_entangled_projector():
    choi = choi_matrix(from_kraus([np.eye(2)]))
    omega = np.zeros(4)
    omega[0] = omega[3] = 1.0
    assert_allclose(choi, np.outer(omega, omega), atol=1e-15)


# ------------------------------------------------------------ invariant_state

def test_invariant_state_demo(qubit_channel):
    cert = invariant_state(qubit_channel)
    assert cert.verdict == CERTIFIED_IRREDUCIBLE
    assert cert.fixed_space_dim == 1
    assert cert.min_eigenvalue_of_pi == pytest.approx(0.5, abs=1e-12)
    assert_allclose(cert.invariant_state.matrix, np.eye(2) / 2, atol=1e-12)


def test_invariant_state_qudit_demo():
    cert = invariant_state(qudit_demo_channel(0.6))
    assert cert.verdict == CERTIFIED_IRREDUCIBLE
    assert_allclose(cert.invariant_state.matrix, np.eye(4) / 4, atol=1e-12)


def test_invariant_state_reducible_block_chain():
    block = np.block(
        [
            [symmetric_two_state_chain(0.3), np.zeros((2, 2))],
            [np.zeros((2, 2)), symmetric_two_state_chain(0.4)],
        ]
    )
    cert = invariant_state(from_stochastic(block))
    assert cert.verdict == NOT_IRREDUCIBLE
    assert cert.fixed_space_dim == 2


def inconclusive_cases():
    """(map, tolerance, fixed_space_dim, min_eigenvalue_of_pi) of each inconclusive verdict."""
    # At tolerance 0 a reducible chain fails the bordered certificate, and
    # fixed_space keeps only exactly zero singular values of T - I: none.
    block = np.block(
        [
            [symmetric_two_state_chain(0.3), np.zeros((2, 2))],
            [np.zeros((2, 2)), symmetric_two_state_chain(0.4)],
        ]
    )
    yield "no-fixed-vector", from_stochastic(block), Tolerance(0.0, 0.0), 0, math.nan
    # A raw map with a Jordan block at 1, T(I/2) = I/2 + Z and T(Z) = Z, off-diagonals
    # halved and swapped: its one fixed vector Z is traceless, so it normalizes to no state.
    rep = np.array([[2.0, 0, 0, 1], [0, 0, 0.5, 0], [0, 0.5, 0, 0], [-1, 0, 0, 0]])
    yield "traceless", from_raw(rep), Tolerance(), 1, math.nan
    # X -> Tr(X) diag(1.5, -0.5): one fixed vector, whose unit-trace matrix is not a state.
    sigma = np.diag([1.5, -0.5])
    yield "not-a-state", from_raw(np.outer(vec(sigma), vec(np.eye(2)))), Tolerance(), 1, -0.5


@pytest.mark.parametrize("label,t,tol,dim,least", list(inconclusive_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_invariant_state_inconclusive_verdicts(label, t, tol, dim, least):
    assert check_trace_preserving(t, tol).ok
    cert = invariant_state(t, tol)
    assert (cert.verdict, cert.fixed_space_dim, cert.invariant_state) == (INCONCLUSIVE, dim, None)
    assert cert.min_eigenvalue_of_pi == pytest.approx(least, abs=1e-14, nan_ok=True)


def test_invariant_state_requires_trace_preservation():
    with pytest.raises(PreconditionError):
        invariant_state(from_raw(np.zeros((4, 4))))


# ------------------------------------------------------- density validation

def test_density_accepts_valid_state():
    state = density(np.diag([0.25, 0.75]))
    assert state.dim == 2


def test_density_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="Hermitian"):
        density(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_density_rejects_wrong_trace():
    with pytest.raises(ValidationError, match="trace"):
        density(np.eye(2))


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(ValidationError, match="positive semidefinite"):
        density(np.diag([1.5, -0.5]))


def test_pure_density_normalizes():
    state = pure_density([2.0, 0.0])
    assert_allclose(state.matrix, np.diag([1.0, 0.0]))
    with pytest.raises(ValidationError):
        pure_density([0.0, 0.0])


# ------------------------------------------------------------ map invariants

def test_trace_preserved_on_random_inputs(qubit_channel):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.trace(apply(qubit_channel, x)) == pytest.approx(np.trace(x), abs=1e-13)


def test_channel_maps_densities_to_densities():
    channel = qudit_demo_channel(0.28)
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    out = apply(channel, rho)
    assert is_psd(out).ok
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_stochastic_embedding_reproduces_chain_exactly():
    rng = np.random.default_rng(10)
    p = rng.dirichlet(np.ones(5), size=5).T
    channel = from_stochastic(p)
    for _ in range(3):
        x = rng.dirichlet(np.ones(5))
        assert_allclose(np.diag(apply(channel, np.diag(x))), p @ x, atol=1e-15)
