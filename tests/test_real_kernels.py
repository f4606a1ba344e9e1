"""Spectral kernels in real arithmetic: the Hermitian form and the compressed radius."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

from hittime import (
    fundamental_map,
    invariant_state,
    solve_hitting,
    subspace_from_indices,
    subspace_from_vectors,
    tau_series,
)
from hittime.cli import main
from hittime.examples import qudit_demo_channel
from hittime.linalg import fixed_space, hermitian_form, spectral_radius, survival_radius
from hittime.sampling import random_cptp_map, random_density


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
    q = _subspaces(n, 1, rng)[1].qq_rep
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
            full = float(np.max(np.abs(np.linalg.eigvals(sub.qq_rep @ t.rep))))
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
