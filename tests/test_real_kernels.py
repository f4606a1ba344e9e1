"""Spectral kernels in real arithmetic: the Hermitian form and the compressed radius."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

from hittime import (
    NonConvergenceError,
    NumericError,
    SuperOperator,
    from_kraus,
    fundamental_map,
    invariant_state,
    solve_hitting,
    subspace_from_indices,
    subspace_from_vectors,
    tau_series,
    unvec,
    vec,
)
from hittime import linalg
from hittime.blocks import hitting_maps, lift
from hittime.hitting import _survival_resolvent
from hittime.cli import main
from hittime.examples import qudit_demo_channel
from hittime.linalg import (
    MIN_SPECTRAL_GAP,
    fixed_space,
    hermitian_form,
    spectral_radius,
    survival_radius,
)
from hittime.sampling import random_cptp_map, random_density
from test_bordered import kraus_family


def hermitian_basis_matrix(n: int) -> np.ndarray:
    """Columns: vec of E_ii, then (E_ij + E_ji)/sqrt(2), then i(E_ij - E_ji)/sqrt(2), i < j."""
    def unit(i, j):
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0
        return e

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cols = [unit(i, i) for i in range(n)]
    cols += [(unit(i, j) + unit(j, i)) / math.sqrt(2) for i, j in pairs]
    cols += [1j * (unit(i, j) - unit(j, i)) / math.sqrt(2) for i, j in pairs]
    return np.column_stack([c.reshape(-1) for c in cols])


def spectra_match(a, b, tol):
    """Every eigenvalue of a lies within tol of one of b, and vice versa."""
    ea, eb = np.linalg.eigvals(a), np.linalg.eigvals(b)
    dist = np.abs(ea[:, None] - eb[None, :])
    return dist.min(axis=1).max() <= tol and dist.min(axis=0).max() <= tol


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_hermitian_form_matches_explicit_basis_change(n):
    rng = np.random.default_rng(n)
    u = hermitian_basis_matrix(n)
    assert_allclose(u.conj().T @ u, np.eye(n * n), atol=1e-14)
    rep = random_cptp_map(n, 2, rng).rep
    form = hermitian_form(rep)
    assert form.dtype == np.float64
    assert_allclose(form, (u.conj().T @ rep @ u).real, atol=1e-14)
    a = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    assert_allclose(hermitian_form(a), u.conj().T @ a @ u, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hermitian_form_keeps_singular_values_and_eigenvalues(n):
    rng = np.random.default_rng(10 + n)
    d = n * n
    rep = random_cptp_map(n, 3, rng).rep
    q = lift(_subspaces(n, 1, rng)[1].projector_q)
    general = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for a, real in ((rep, True), (np.eye(d) - q @ rep, True), (general, False)):
        form = hermitian_form(a)
        assert np.isrealobj(form) == real
        assert_allclose(
            np.linalg.svd(form, compute_uv=False),
            np.linalg.svd(a, compute_uv=False),
            rtol=1e-12,
            atol=1e-13,
        )
        assert spectra_match(form, a, 1e-11)


def test_hermitian_form_rejects_non_square_dimension():
    with pytest.raises(Exception, match="n\\^2 x n\\^2"):
        hermitian_form(np.eye(5))


def test_fixed_space_and_radius_keep_real_input_real(monkeypatch):
    dtypes = []
    for name in ("svd", "eigvals"):
        original = getattr(np.linalg, name)

        def recorder(a, *args, _original=original, **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorder)
    p = np.array([[0.5, 0.2, 0.3], [0.25, 0.5, 0.3], [0.25, 0.3, 0.4]])
    basis = fixed_space(p)
    assert len(basis) == 1 and basis[0].dtype == np.float64
    assert_allclose(p @ basis[0], basis[0], atol=1e-14)
    assert spectral_radius(p) == pytest.approx(1.0, abs=1e-14)
    assert dtypes and all(dt == np.float64 for dt in dtypes)


def _subspaces(n, rank, rng):
    idx = sorted(rng.choice(n, size=rank, replace=False).tolist())
    vectors = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(rank)]
    return subspace_from_indices(n, idx), subspace_from_vectors(vectors)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kraus_rank", [1, 2, 3])
def test_compressed_radius_matches_full_survival_spectrum(n, kraus_rank):
    rng = np.random.default_rng(100 * n + kraus_rank)
    t = random_cptp_map(n, kraus_rank, rng)
    for rank in range(1, n):
        for sub in _subspaces(n, rank, rng):
            assert sub.complement_basis.shape == (n, n - rank)
            full = float(np.max(np.abs(np.linalg.eigvals(lift(sub.projector_q) @ t.rep))))
            assert survival_radius(t.rep, sub.complement_basis) == pytest.approx(
                full, abs=1e-12
            )


def test_kraus_kernels_decompose_no_complex_full_size_matrix(monkeypatch):
    """The spectral kernels of a Kraus map run real, and each radius is m^2 x m^2."""
    calls = []
    originals = {name: getattr(np.linalg, name) for name in ("eigvals", "svd", "cond", "norm")}

    def recording(name):
        def recorder(a, *args, **kwargs):
            arr = np.asarray(a)
            order = kwargs.get("ord", args[0] if args else None)
            if name != "norm" or (arr.ndim == 2 and order in (2, -2)):
                calls.append((name, arr.shape, np.iscomplexobj(arr)))
            return originals[name](a, *args, **kwargs)
        return recorder

    for name in originals:
        monkeypatch.setattr(np.linalg, name, recording(name))
    n = 4
    d = n * n
    rng = np.random.default_rng(5)
    t = random_cptp_map(n, 2, rng)
    cert = invariant_state(t)
    fd = fundamental_map(t, cert)
    rho = random_density(n, rng)
    for sub in _subspaces(n, 2, rng) + _subspaces(n, 1, rng):
        del calls[:]
        hs = solve_hitting(t, sub, cert, fd=fd)
        tau_series(t, hs.subspace, rho)
        m = n - sub.rank
        assert [shape for name, shape, _ in calls if name == "eigvals"] == [(m * m, m * m)] * 2
        assert not [c for c in calls if c[1] == (d, d) and c[2]]
    full_size = [c for c in calls if c[1] == (d, d)]
    assert full_size  # the condition number of I - QT is still taken at full size
    calls.clear()
    invariant_state(t)
    fundamental_map(t, cert)
    assert calls and not [c for c in calls if c[2]]


# A trace-preserving map that does not preserve Hermiticity: the qudit demo
# channel plus X -> 0.2 Tr(A X) E_01 with A = E_00 - I/4, which fixes the
# channel's invariant state I/4.  The expected values below were produced
# by the complex decompositions the Hermitian form replaced.
def non_hermiticity_preserving_rep() -> np.ndarray:
    t = qudit_demo_channel(0.6)
    e01 = np.zeros((4, 4))
    e01[0, 1] = 1.0
    a = np.diag([0.75, -0.25, -0.25, -0.25])
    return t.rep + 0.2 * np.outer(e01.reshape(-1), a.T.reshape(-1))


REFERENCE_VALIDATE = {
    "completely_positive": {"min_choi_eigenvalue": -0.04880785351055324, "ok": False},
    "dim": 4,
    "irreducibility": {
        "fixed_space_dim": 1,
        "min_eigenvalue_of_pi": 0.24999999999999992,
        "verdict": "certified_irreducible",
    },
    "positivity_sampling": {
        "failures": 1000,
        "ok": False,
        "samples": 1000,
        "seed": 0,
        "worst_eigenvalue": -0.021511459973807337,
    },
    "provenance": "raw",
    "trace_preserving": {"ok": True},
}
REFERENCE_HIT = [
    ({"direct": 2.6874999999999987, "mhtf": 2.6874999999999982, "series": 2.6874999999976628},
     {"condition_estimate": 8.99392936868805, "spectral_radius_qphi": 0.7424428900898051}),
    ({"direct": 4.999999999999994},
     {"condition_estimate": 7.914514795713419, "spectral_radius_qphi": 0.7504150963232865}),
]


def _close(got, want, path=""):
    if isinstance(want, dict):
        for key, value in want.items():
            _close(got[key], value, f"{path}/{key}")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15), path
    else:
        assert got == want, path


def test_non_hermiticity_preserving_raw_map_keeps_complex_results(tmp_path):
    rep = non_hermiticity_preserving_rep()
    assert np.iscomplexobj(hermitian_form(rep))
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({
        "dim": 4,
        "superoperator": [[[z.real, z.imag] for z in row] for row in rep],
    }))
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps({"queries": [
        {"subspace": {"indices": [1]}, "initial": {"index": 4}, "method": "all"},
        {"subspace": {"vectors": [[[1, 0], [0, 1], [0, 0], [0, 0]]]},
         "initial": {"index": 3}, "method": "direct"},
    ]}))
    runner = CliRunner()
    result = runner.invoke(main, ["validate", str(path), "--json"])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    _close(record, REFERENCE_VALIDATE)
    assert record["trace_preserving"]["residual"] < 1e-15
    pi = np.array(record["invariant_state"])
    assert_allclose(pi[..., 0], np.eye(4) / 4, atol=1e-15)
    assert_allclose(pi[..., 1], 0.0, atol=1e-15)

    result = runner.invoke(main, ["hit", str(path), str(queries), "--json"])
    assert result.exit_code == 0, result.output
    for got, (routes, diagnostics) in zip(json.loads(result.output), REFERENCE_HIT):
        _close(got["routes"], routes)
        _close(got["diagnostics"], diagnostics)


# The Perron route of survival_radius: a Kraus map's compression with
# m^2 >= 81 gets its radius from a Collatz-Wielandt bracket closed by
# inverse iteration, and falls back to eigvals when the bracket cannot close.
def gap_map(rng, n, eps):
    """A Kraus map that keeps the two halves of C^n apart, mixed with a random one at eps."""
    half = n // 2
    ops = np.zeros((2, n, n), dtype=complex)
    ops[:, :half, :half] = kraus_family(rng, half, 2)
    ops[:, half:, half:] = kraus_family(rng, n - half, 2)
    mixer = kraus_family(rng, n, 2)
    return from_kraus([math.sqrt(1 - eps) * v for v in ops] + [math.sqrt(eps) * v for v in mixer])


def full_survival_radius(t, sub):
    return float(np.max(np.abs(np.linalg.eigvals(lift(sub.projector_q) @ t.rep))))


@pytest.fixture
def perron_results(monkeypatch):
    """What each call of linalg._perron_radius returned, None for a fallback."""
    results = []
    original = linalg._perron_radius

    def recorder(h):
        results.append(original(h))
        return results[-1]

    monkeypatch.setattr(linalg, "_perron_radius", recorder)
    return results


@pytest.mark.parametrize("n", [10, 12, 14, 16])
@pytest.mark.parametrize("kraus_rank", [2, 3])
def test_perron_radius_matches_full_survival_spectrum(n, kraus_rank, perron_results):
    rng = np.random.default_rng(1000 + 10 * n + kraus_rank)
    t = from_kraus(kraus_family(rng, n, kraus_rank))
    for rank in (1, 2, 3):
        for sub in _subspaces(n, rank, rng):
            del perron_results[:]
            radius = survival_radius(t.rep, sub.complement_basis, positive=True)
            # Compressions up to m^2 = 64 keep eigvals.
            assert perron_results == ([radius] if (n - rank) ** 2 > 64 else [])
            assert radius == pytest.approx(full_survival_radius(t, sub), rel=1e-13, abs=0)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_perron_radius_matches_on_nearly_reducible_maps(eps, perron_results):
    rng = np.random.default_rng(3)
    t = gap_map(rng, 12, eps)
    subspaces = [subspace_from_indices(12, [0]), subspace_from_indices(12, [0, 7])]
    subspaces += _subspaces(12, 2, rng)
    for sub in subspaces:
        radius = survival_radius(t.rep, sub.complement_basis, positive=True)
        assert radius == pytest.approx(full_survival_radius(t, sub), rel=1e-13, abs=0)
    assert len(perron_results) == len(subspaces)


@pytest.mark.parametrize("label", ["kraus-rank-1", "reducible"])
def test_perron_route_falls_back_to_eigvals_exactly(label, perron_results):
    """A singular Perron vector leaves the bracket open: the radius is eigvals' own.

    A unitary's is rank one; the reducible map's lives on one half of C^12,
    which index targets keep apart (a generic subspace would couple them).
    """
    rng = np.random.default_rng(4)
    if label == "kraus-rank-1":
        t = from_kraus(kraus_family(rng, 12, 1))
        subspaces = _subspaces(12, 2, rng)
    else:
        t = gap_map(rng, 12, 0.0)
        subspaces = [subspace_from_indices(12, [0, 1]), subspace_from_indices(12, [0, 6])]
    for sub in subspaces:
        del perron_results[:]
        radius = survival_radius(t.rep, sub.complement_basis, positive=True)
        assert perron_results == [None]
        assert radius == survival_radius(t.rep, sub.complement_basis)


def _recording_eigvals(monkeypatch):
    shapes = []
    original = np.linalg.eigvals

    def recorder(a):
        shapes.append(np.asarray(a).shape)
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorder)
    return shapes


def test_raw_map_that_is_not_positive_takes_eigvals(monkeypatch, perron_results):
    n = 12
    rng = np.random.default_rng(6)
    # Half a channel and half of X -> Tr(X) I / n - X: trace preserving and
    # Hermiticity preserving, so its form is real, but not positive.
    psi = np.outer(vec(np.eye(n)) / n, vec(np.eye(n))) - np.eye(n * n)
    t = SuperOperator(n, 0.5 * random_cptp_map(n, 2, rng).rep + 0.5 * psi, "raw")
    e00 = np.zeros((n, n))
    e00[0, 0] = 1.0
    assert np.linalg.eigvalsh(unvec(t.rep @ vec(e00)))[0] < 0
    assert np.isrealobj(hermitian_form(t.rep))
    shapes = _recording_eigvals(monkeypatch)
    sub = subspace_from_indices(n, [0, 1])
    _, radius, _ = _survival_resolvent(t, sub)  # the route solve_hitting and hitting_maps share
    tau_series(t, sub, np.eye(n) / n)
    assert perron_results == []
    assert shapes == [(100, 100)] * 2
    assert radius == pytest.approx(full_survival_radius(t, sub), rel=1e-12)


def test_kraus_solve_and_series_take_no_eigvals(monkeypatch, perron_results):
    n = 12
    rng = np.random.default_rng(7)
    t = from_kraus(kraus_family(rng, n, 2))
    cert = invariant_state(t)
    fd = fundamental_map(t, cert)
    shapes = _recording_eigvals(monkeypatch)
    for sub in _subspaces(n, 2, rng):
        del perron_results[:]
        hs = solve_hitting(t, sub, cert, fd=fd)
        tau_series(t, hs.subspace, random_density(n, rng))
        assert len(perron_results) == 2 and None not in perron_results
        assert perron_results[0] == hs.spectral_radius_qphi
    assert shapes == []


def test_perron_route_keeps_the_refusal_messages(perron_results):
    t = gap_map(np.random.default_rng(0), 12, 1e-12)
    sub = subspace_from_indices(12, [0])
    radius = survival_radius(t.rep, sub.complement_basis)  # the eigvals route
    assert radius >= 1.0 - MIN_SPECTRAL_GAP
    with pytest.raises(NumericError) as refused:
        hitting_maps(t, sub)
    assert str(refused.value) == (
        f"monitored evolution does not contract: spectral radius of the "
        f"survival map is {radius:.12g} (map reducible or subspace trivial)"
    )
    with pytest.raises(NonConvergenceError) as refused:
        tau_series(t, sub, np.eye(12) / 12)
    assert str(refused.value) == (
        f"monitored series does not converge: spectral radius of the "
        f"survival map is {radius:.12g} (map not irreducible)"
    )
    assert len(perron_results) == 2


def test_hermitian_basis_is_cached_and_read_only():
    first = linalg._hermitian_basis(5)
    assert linalg._hermitian_basis(5) is first
    for indices in first:
        with pytest.raises(ValueError):
            indices[0] = 0
