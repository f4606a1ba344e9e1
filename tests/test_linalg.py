import math
import numpy as np
import pytest
from numpy.testing import assert_allclose

import golden
from hittime import (
    DimensionError,
    Tolerance,
    fixed_space,
    is_psd,
    spectral_radius,
    unvec,
    vec,
)
from hittime.blocks import lift
from hittime.linalg import hermitian_block, sigma_min_floor
from hittime.examples import qubit_demo_kraus


def test_vec_row_stacking():
    a = np.array([[1 + 2j, 3], [4, 5 - 1j]])
    assert_allclose(vec(a), [1 + 2j, 3, 4, 5 - 1j])


def test_vec_identity():
    assert_allclose(vec(np.eye(2)), [1, 0, 0, 1])


def test_vec_rejects_nonsquare():
    with pytest.raises(DimensionError):
        vec(np.ones((2, 3)))


def test_vec_rejects_a_vector():
    with pytest.raises(DimensionError, match=r"^vec input must be 2-dimensional, got shape \(3,\)$"):
        vec(np.zeros(3))


def test_unvec_identity():
    assert_allclose(unvec([1, 0, 0, 1]), np.eye(2))


def test_unvec_explicit():
    assert_allclose(unvec([1j, 2, 3, 4]), [[1j, 2], [3, 4]])


def test_unvec_zero_vector():
    assert_allclose(unvec(np.zeros(9)), np.zeros((3, 3)))


def test_unvec_rejects_non_square_length():
    with pytest.raises(DimensionError):
        unvec(np.zeros(5))


@pytest.mark.parametrize("n", range(1, 9))
def test_vec_unvec_roundtrip(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert_allclose(unvec(vec(a)), a)
    assert_allclose(vec(unvec(vec(a))), vec(a))


@pytest.mark.parametrize("n", [2, 3])
def test_kron_pins_row_stacking_convention(n):
    rng = np.random.default_rng(42 + n)
    a, b, x = (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for _ in range(3)
    )
    assert_allclose(vec(a @ x @ b.T), np.kron(a, b) @ vec(x), atol=1e-12)


def test_kron_builds_demo_channel():
    left, right = qubit_demo_kraus()
    rep = np.kron(left, left.conj()) + np.kron(right, right.conj())
    assert_allclose(rep, golden.QUBIT_PHI, atol=1e-14)


def test_hs_inner_equals_vec_inner():
    # vec is an isometry: Tr(B* A) = <vec(B), vec(A)>, which the covector
    # pairings <l, vec(rho)> rely on
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.trace(b.conj().T @ a) == pytest.approx(np.vdot(vec(b), vec(a)))


def test_fixed_space_identity():
    basis = fixed_space(np.eye(3))
    assert len(basis) == 3
    gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    assert_allclose(gram, np.eye(3), atol=1e-12)


def test_fixed_space_demo_channel_is_one_dimensional():
    left, right = qubit_demo_kraus()
    rep = np.kron(left, left.conj()) + np.kron(right, right.conj())
    basis = fixed_space(rep)
    assert len(basis) == 1
    overlap = abs(np.vdot(basis[0], vec(np.eye(2)) / np.sqrt(2)))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_fixed_space_rotation_is_empty():
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert fixed_space(rotation) == []


def test_fixed_space_planted_subspace():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    b = q[:, :2]
    m = b @ b.conj().T + 0.3 * (np.eye(5) - b @ b.conj().T)
    basis = fixed_space(m)
    assert len(basis) == 2
    for v in basis:
        assert np.linalg.norm(m @ v - v) <= 1e-10
    gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    assert_allclose(gram, np.eye(2), atol=1e-10)


def test_is_psd_identity():
    check = is_psd(np.eye(4))
    assert check.ok
    assert check.min_eigenvalue == pytest.approx(1.0)


def test_is_psd_indefinite():
    check = is_psd(np.diag([1.0, -1.0]))
    assert not check.ok
    assert check.min_eigenvalue == pytest.approx(-1.0)


def test_is_psd_half_identity_strictly_positive():
    check = is_psd(np.eye(2) / 2)
    assert check.ok
    assert check.min_eigenvalue == pytest.approx(0.5)
    assert check.min_eigenvalue > Tolerance().atol


def test_is_psd_rejects_non_hermitian():
    assert not is_psd(np.array([[0.0, 1.0], [0.0, 0.0]])).ok


def test_is_psd_conjugated_diagonal():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    d = np.diag(rng.uniform(0.0, 2.0, size=4))
    assert is_psd(q.conj().T @ d @ q).ok


def test_spectral_radius_identity():
    assert spectral_radius(np.eye(4)) == pytest.approx(1.0)


def test_spectral_radius_of_an_empty_matrix_is_zero():
    assert spectral_radius(np.zeros((0, 0))) == 0.0


def test_spectral_radius_nilpotent():
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)


def test_spectral_radius_survival_map_contracts(qubit_channel, qubit_solution):
    radius = spectral_radius(lift(qubit_solution.subspace.projector_q) @ qubit_channel.rep)
    assert radius == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert radius < 1.0


@pytest.mark.parametrize("d", [4, 64, 400])
def test_sigma_min_floor_never_exceeds_the_least_singular_value(d):
    """A = diag(1, ..., 1, t), permuted, has sigma_min = t exactly.  The floor
    is 0.0 (no certificate) or at most t, and certifies once t clears the
    shift, about sqrt(8 d u) ||A||_F."""
    rng = np.random.default_rng(d)
    floors = []
    for t in np.logspace(-10, -4, 61):
        a = np.diag(np.r_[np.ones(d - 1), t])[rng.permutation(d)]
        floor = sigma_min_floor(a)
        assert floor == 0.0 or 0.0 < floor <= t
        floors.append(floor)
    assert floors[0] == 0.0 and floors[-1] > 0.0
    edge = np.logspace(-10, -4, 61)[np.flatnonzero(floors)[0]]
    assert edge <= 2 * math.sqrt(8 * d * np.finfo(float).eps / 2 * d)


@pytest.mark.parametrize("n", range(1, 9))
def test_hermitian_block_keeps_the_pairs_of_the_triu_reference(n):
    rng = np.random.default_rng(50 + n)
    i, j = np.triu_indices(n, 1)
    for size in range(n + 1):
        for _ in range(3):
            cols = rng.choice(n, size=size, replace=False)
            inside = np.zeros(n, dtype=bool)
            inside[cols] = True
            pair = inside[i] & inside[j]
            reference = np.flatnonzero(np.concatenate([inside, pair, pair]))
            np.testing.assert_array_equal(hermitian_block(n, cols), reference)


def test_sigma_min_floor_refuses_what_it_cannot_factor():
    assert sigma_min_floor(np.zeros((3, 3))) == 0.0
    assert sigma_min_floor(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0
    assert sigma_min_floor(np.full((2, 2), np.nan)) == 0.0
