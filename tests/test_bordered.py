"""The bordered certificate: pi from one solve, the dimension from one values-only SVD."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hittime
import hittime.linalg
import hittime.maps
from conftest import survival_matrix
from hittime import (
    CERTIFIED_IRREDUCIBLE,
    SuperOperator,
    build_chain,
    from_kraus,
    from_stochastic,
    hermitize,
    invariant_state,
    solve_hitting,
    subspace_from_indices,
    unvec,
)
from hittime.examples import symmetric_two_state_chain
from hittime.linalg import (
    bordered,
    bordered_solve,
    fixed_space,
    hermitian_coords,
    isolates_fixed_vector,
    sigma_min_floor,
)
from hittime.sampling import random_column_stochastic

EPSILONS = [1e-1, 1e-3, 1e-6, 1e-9, 1e-11, 1e-13, 0.0]


def kraus_family(rng, n, rank):
    """Gaussian Kraus family whitened to sum V_i* V_i = I."""
    g = rng.standard_normal((rank, n, n)) + 1j * rng.standard_normal((rank, n, n))
    w, v = np.linalg.eigh(np.einsum("kji,kjl->il", g.conj(), g))
    return list(g @ ((v * w**-0.5) @ v.conj().T))


def block_map(rng, n, eps):
    """A channel that keeps the two halves of C^n apart, mixed with a random one at eps."""
    half = n // 2
    ops = np.zeros((2, n, n), dtype=complex)
    ops[:, :half, :half] = kraus_family(rng, half, 2)
    ops[:, half:, half:] = kraus_family(rng, n - half, 2)
    mixer = from_kraus(kraus_family(rng, n, 2))
    return SuperOperator(n, (1 - eps) * from_kraus(list(ops)).rep + eps * mixer.rep, "raw")


def random_maps():
    rng = np.random.default_rng(8)
    for n in (2, 3, 5, 8, 12, 16):
        for rank in (1, 2, 3):
            yield f"kraus-{n}-{rank}", from_kraus(kraus_family(rng, n, rank))
    for n in (4, 6, 8):
        for eps in EPSILONS:
            yield f"block-{n}-{eps:g}", block_map(rng, n, eps)


@pytest.mark.parametrize("label,t", list(random_maps()), ids=lambda v: v if isinstance(v, str) else "")
def test_bordered_verdict_matches_the_svd_rule(label, t):
    basis = fixed_space(t.rep)
    cert = invariant_state(t)
    assert cert.fixed_space_dim == len(basis)
    if len(basis) != 1:
        return
    assert cert.verdict == CERTIFIED_IRREDUCIBLE
    candidate = hermitize(unvec(basis[0]))
    reference = candidate / np.trace(candidate).real
    # The certificate's estimate is an upper bound; the agreement owed is
    # set by cond_2(A) itself.
    if np.linalg.cond(certified_a(t, cert)) < 1e6:
        assert_allclose(cert.invariant_state.matrix, reference, rtol=0, atol=1e-12)


def test_bordered_solve_gives_the_fixed_point_of_unit_sum():
    p = random_column_stochastic(7, np.random.default_rng(1))
    every = np.ones(7)
    pi = bordered_solve(p, every)
    assert pi.sum() == pytest.approx(1.0, abs=1e-15)
    assert_allclose(p @ pi, pi, atol=1e-15)
    a = bordered(p, pi, every)
    assert_allclose(a, np.eye(7) - p + np.outer(pi, np.ones(7)), atol=0)
    with pytest.raises(np.linalg.LinAlgError):
        bordered_solve(np.eye(3), np.ones(3))


@pytest.fixture()
def fixed_space_calls(monkeypatch):
    """Arguments of every fixed_space call that invariant_state makes."""
    calls = []
    monkeypatch.setattr(
        hittime.maps, "fixed_space",
        lambda *args, **kwargs: calls.append(args) or fixed_space(*args, **kwargs),
    )
    return calls


def certified_a(t, cert):
    """The Hermitian form of A = I - T + vec(pi) vec(I)^T that the certificate took its SVD of."""
    pi = hermitian_coords(cert.invariant_state.matrix)
    return bordered(t.hermitian_form, pi, hermitian_coords(np.eye(t.dim)))


def svd_calls(calls):
    return [c for c in calls if c[0] in ("svd", "cond", "norm")]


def test_certified_map_takes_one_cholesky_and_no_svd(linalg_calls, fixed_space_calls):
    """A rank-2 Kraus map at n = 12: one Cholesky factorization certifies,
    and the gate decomposes nothing."""
    n = 12
    t = from_kraus(kraus_family(np.random.default_rng(2), n, 2))
    cert = invariant_state(t)
    assert svd_calls(linalg_calls) == []
    assert [c for c in linalg_calls if c[0] == "cholesky"] == [("cholesky", (n * n, n * n))]
    del linalg_calls[:]
    assert cert.fundamental_pi() is cert.invariant_state
    assert not linalg_calls
    assert cert.verdict == CERTIFIED_IRREDUCIBLE
    assert not fixed_space_calls
    a = certified_a(t, cert)
    assert cert.condition_estimate == np.linalg.norm(a) / sigma_min_floor(a)
    # An upper bound on cond_2(A), about 1 / sqrt(4 d u) whatever the map.
    assert np.linalg.cond(a) <= cert.condition_estimate < 1e7


def test_nearly_reducible_chain_takes_the_values_only_svd(linalg_calls):
    """At p = 1e-9 sigma_min(A) is about 2e-9, below the Cholesky floor, so
    the values-only SVD certifies, as it did before the floor existed."""
    t = from_stochastic(symmetric_two_state_chain(1e-9))
    cert = invariant_state(t)
    assert cert.verdict == CERTIFIED_IRREDUCIBLE
    assert [c for c in linalg_calls if c[0] == "cholesky"] == [("cholesky", (4, 4))]
    assert svd_calls(linalg_calls) == [("svd", (4, 4), False)]
    assert cert.condition_estimate == pytest.approx(np.linalg.cond(certified_a(t, cert)), rel=1e-10)


def test_reducible_map_still_reports_its_fixed_space_dimension(fixed_space_calls):
    cert = invariant_state(from_kraus([np.eye(3)]))
    assert cert.fixed_space_dim == 9
    assert len(fixed_space_calls) == 1


def test_build_chain_takes_one_cholesky_and_no_svd(linalg_calls):
    p = random_column_stochastic(9, np.random.default_rng(4))
    mc = build_chain(p)
    assert [c for c in linalg_calls if c[0] == "cholesky"] == [("cholesky", (9, 9))]
    assert svd_calls(linalg_calls) == []
    assert_allclose(p @ mc.pi, mc.pi, atol=1e-15)
    assert_allclose(mc.z @ (np.eye(9) - p + np.outer(mc.pi, np.ones(9))), np.eye(9), atol=1e-12)


def test_importing_the_cli_does_not_import_scipy():
    src = str(Path(hittime.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, hittime.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_hoelder_bound_certifies_where_the_frobenius_bound_gave_up(linalg_calls, fixed_space_calls):
    """n = 12 block map mixed at 1e-9: sigma_min(A) lies between the two thresholds.

    With the Frobenius bound the certificate failed and fixed_space ran, for
    four SVDs; the Hoelder bound sqrt(||T||_1 ||T||_inf) certifies with one.
    """
    t = block_map(np.random.default_rng(0), 12, 1e-9)
    basis = fixed_space(t.rep)
    del linalg_calls[:]
    cert = invariant_state(t)
    assert svd_calls(linalg_calls) == [("svd", (144, 144), False)]
    assert not fixed_space_calls
    assert cert.verdict == CERTIFIED_IRREDUCIBLE
    assert cert.fixed_space_dim == len(basis) == 1
    candidate = hermitize(unvec(basis[0]))
    reference = candidate / np.trace(candidate).real
    # cond(A) is about 2.4e9, so the two routes agree to cond * eps, not to 1e-12.
    assert cert.condition_estimate > 1e9
    assert_allclose(
        cert.invariant_state.matrix, reference, rtol=0,
        atol=cert.condition_estimate * np.finfo(float).eps,
    )


# ------------------------------------------ the fixed_space rescue of a certificate

EPS = np.finfo(float).eps


def test_rescued_kraus_certificate_matches_the_bordered_one(monkeypatch):
    """When the bordered certificate fails, fixed_space finds the same pi and A."""
    n = 4
    t = from_kraus(kraus_family(np.random.default_rng(3), n, 2))
    cert = invariant_state(t)
    monkeypatch.setattr(hittime.linalg, "isolates_fixed_vector", lambda *args: False)
    rescued = invariant_state(t)
    bound = cert.condition_estimate * EPS
    assert rescued.verdict == cert.verdict == CERTIFIED_IRREDUCIBLE
    assert rescued.fixed_space_dim == 1
    assert_allclose(rescued.invariant_state.matrix, cert.invariant_state.matrix, rtol=0, atol=bound)
    assert rescued.condition_estimate == pytest.approx(cert.condition_estimate, rel=1e-10)
    assert_allclose(certified_a(t, rescued), certified_a(t, cert), rtol=0, atol=bound)
    sub = subspace_from_indices(n, [0])
    hs, reference = solve_hitting(t, sub, rescued), solve_hitting(t, sub, cert)
    scale = np.abs(reference.return_covector).max()
    cond = np.linalg.cond(survival_matrix(t, sub))
    assert_allclose(
        hs.return_covector, reference.return_covector,
        rtol=0, atol=bound * cond * scale,
    )


def parity_chains():
    rng = np.random.default_rng(23)
    for n in (3, 5, 10, 25, 50, 100):
        yield f"random-{n}", random_column_stochastic(n, rng)
    for k in range(3, 13):
        yield f"two-state-1e-{k}", symmetric_two_state_chain(10.0**-k)
    block = np.zeros((6, 6))
    block[:3, :3] = random_column_stochastic(3, rng)
    block[3:, 3:] = random_column_stochastic(3, rng)
    yield "reducible-block-6", block


PARITY_CHAINS = list(parity_chains())


def _chain_or_refusal(p):
    try:
        return build_chain(p)
    except hittime.ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("label,p", PARITY_CHAINS, ids=[label for label, _ in PARITY_CHAINS])
def test_chain_certificate_matches_the_svd_route(monkeypatch, label, p):
    """The Cholesky floor leaves build_chain's verdict, pi and Z bit for bit
    those of the values-only SVD route."""
    mc = _chain_or_refusal(p)
    with monkeypatch.context() as patched:
        patched.setattr(hittime.linalg, "sigma_min_floor", lambda a: 0.0)
        reference = _chain_or_refusal(p)
    if isinstance(reference, str):
        assert mc == reference
        return
    np.testing.assert_array_equal(mc.pi, reference.pi)
    np.testing.assert_array_equal(mc.z, reference.z)


def test_rescued_chain_matches_the_bordered_one(monkeypatch):
    p = random_column_stochastic(6, np.random.default_rng(5))
    mc = build_chain(p)
    monkeypatch.setattr(hittime.linalg, "isolates_fixed_vector", lambda *args: False)
    rescued = build_chain(p)
    bound = np.linalg.cond(np.eye(6) - p + np.outer(mc.pi, np.ones(6))) * EPS
    assert_allclose(rescued.pi, mc.pi, rtol=0, atol=bound)
    assert_allclose(rescued.z, mc.z, rtol=0, atol=bound * np.abs(mc.z).max())


# ------------------------------------------ the Cholesky floor against the SVD

def parity_maps():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 6, 8, 12, 16):
        yield f"kraus-{n}", from_kraus(kraus_family(rng, n, 2))
    for k in range(1, 14, 2):
        yield f"gap-8-1e-{k}", block_map(rng, 8, 10.0**-k)
    for eps in (1e-9, 0.0):
        yield f"block-12-{eps:g}", block_map(rng, 12, eps)
    for k in range(3, 17):
        yield f"two-state-1e-{k}", from_stochastic(symmetric_two_state_chain(10.0**-k))


PARITY_MAPS = list(parity_maps())
PARITY_TOLS = {"default": hittime.DEFAULT_TOL, "1e-3": hittime.Tolerance(1e-3, 1e-3),
               "1e-14": hittime.Tolerance(1e-14, 1e-14)}


@pytest.mark.parametrize("tol", list(PARITY_TOLS))
@pytest.mark.parametrize("label,t", PARITY_MAPS, ids=[label for label, _ in PARITY_MAPS])
def test_cholesky_certificate_matches_the_svd_route(monkeypatch, label, t, tol):
    """Verdict, dimension and pi are those of the values-only SVD route,
    and wherever the Cholesky floor holds, sigma_min(A) is at least it."""
    tol = PARITY_TOLS[tol]
    cert = invariant_state(t, tol)
    with monkeypatch.context() as patched:
        patched.setattr(hittime.linalg, "sigma_min_floor", lambda a: 0.0)
        reference = invariant_state(t, tol)
    assert (cert.verdict, cert.fixed_space_dim) == (reference.verdict, reference.fixed_space_dim)
    if reference.invariant_state is None:
        assert cert.invariant_state is None
        return
    np.testing.assert_array_equal(cert.invariant_state.matrix, reference.invariant_state.matrix)
    a = certified_a(t, cert)
    floor = sigma_min_floor(a)
    if floor > 0:
        assert np.linalg.svd(a, compute_uv=False)[-1] >= floor
    if floor > 0 and isolates_fixed_vector(floor, np.linalg.norm(a), t.hermitian_form, tol):
        assert cert.condition_estimate == np.linalg.norm(a) / floor
    if cert.verdict == CERTIFIED_IRREDUCIBLE:
        # The SVD's cond_2(A), or the Cholesky bound above it where the
        # floor holds (also when fixed_space decided the dimension).
        bound = np.linalg.norm(a) / floor if floor > 0 else math.nan
        assert cert.condition_estimate in (bound, reference.condition_estimate)
        assert cert.condition_estimate >= reference.condition_estimate * (1 - 1e-12)
