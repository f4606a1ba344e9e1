"""Spectral kernels in real arithmetic: the Hermitian form and the compressed radius."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

from hittime import (
    NonConvergenceError,
    NumericError,
    SuperOperator,
    from_kraus,
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
from hittime.hitting import survival_rows
from hittime.cli import main
from hittime.examples import qudit_demo_channel
from hittime.linalg import (
    fixed_space,
    hermitian_coords,
    hermitian_form,
    hermitian_matrix,
    spectral_radius,
)
from hittime.maps import frame_form
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


def kraus_form_bound(k, dense):
    """4 eps max|h|, grown with sqrt(k / 2): both routes sum k products per entry, and the
    rounding of such sums grows like sqrt(k) (Higham & Mary, SIAM J. Sci. Comput. 41, 2019)."""
    return 4 * math.sqrt(max(k, 2) / 2) * np.finfo(float).eps * np.abs(dense).max()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("rank", ["1", "2", "n^2", "n^2+1"])
def test_kraus_form_is_the_form_of_the_summed_krons(n, rank):
    """The family's form, trace preserving or not, is hermitian_form(sum kron(V_i, conj V_i))."""
    k = {"1": 1, "2": 2, "n^2": n * n, "n^2+1": n * n + 1}[rank]
    rng = np.random.default_rng(1000 * n + k)
    gaussian = 0.7 * (rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n)))
    for ops in (np.stack(kraus_family(rng, n, k)), gaussian):
        form = linalg.kraus_form(ops)
        dense = hermitian_form(sum(np.kron(v, v.conj()) for v in ops))
        assert form.dtype == np.float64 and form.shape == (n * n, n * n)
        assert np.abs(form - dense).max() <= kraus_form_bound(k, dense)


@pytest.mark.parametrize("n", [2, 3, 7, 12])
@pytest.mark.parametrize("rank", ["2", "n^2+1"])
def test_vector_frame_form_conjugates_the_family(n, rank):
    """A vector target's frame form, from W* V_i W, is that of the dense contraction of rep."""
    k = 2 if rank == "2" else n * n + 1
    rng = np.random.default_rng(2000 * n + k)
    t = from_kraus(kraus_family(rng, n, k))
    dense = SuperOperator(n, t.rep, "raw")
    for sub in (_subspaces(n, 1, rng)[1], _subspaces(n, n - 1, rng)[1]):
        form, reference = frame_form(t, sub.frame), frame_form(dense, sub.frame)
        assert form.dtype == np.float64
        assert np.abs(form - reference).max() <= kraus_form_bound(k, reference)


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


def kept_block(t, sub):
    """The kept rows and columns of the map's form in the target's frame."""
    return frame_form(t, sub.frame)[np.ix_(sub.kept, sub.kept)]


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
            assert spectral_radius(kept_block(t, sub)) == pytest.approx(full, abs=1e-12)


@pytest.mark.parametrize("n,target", [(6, [0]), (6, [1, 3]), (9, [2, 4, 8]), (20, [0, 1])])
def test_index_target_kept_block_is_the_compression_exactly(n, target):
    """The kept block of the map's form is the form of the compressed family V_i[rest][:, rest]."""
    t = from_kraus(kraus_family(np.random.default_rng(n), n, 2))
    sub = subspace_from_indices(n, target)
    assert sub.frame is None
    rest = np.setdiff1d(np.arange(n), target)
    compressed = t.kraus[:, rest][:, :, rest]
    np.testing.assert_array_equal(kept_block(t, sub), linalg.kraus_form(compressed))


def complex_calls(calls):
    return [c for c in calls if c[0].startswith("complex")]


def test_kraus_kernels_decompose_no_complex_full_size_matrix(linalg_calls):
    """The kernels of a Kraus map run real, and no radius is decomposed."""
    n = 4
    d = n * n
    rng = np.random.default_rng(5)
    t = random_cptp_map(n, 2, rng)
    cert = invariant_state(t)
    rho = random_density(n, rng)
    for sub in _subspaces(n, 2, rng) + _subspaces(n, 1, rng):
        del linalg_calls[:]
        hs = solve_hitting(t, sub, cert)
        tau_series(t, hs.subspace, rho)
        assert shapes_of(linalg_calls, "eigvals") == []
        # At full size only the two solves, real: the time row bounds the
        # radius and gives kappa_1, and the series' c_B are n x n.
        assert [c for c in linalg_calls if c[1] == (d, d)] == [("solve", (d, d))] * 2
        assert {c for c in complex_calls(linalg_calls)} == {("complex eigvalsh", (n, n))}
    del linalg_calls[:]
    invariant_state(t).fundamental_pi()
    assert [c for c in linalg_calls if c[1] == (d, d)] == [("solve", (d, d)), ("cholesky", (d, d))]
    assert complex_calls(linalg_calls) == [("complex eigvalsh", (n, n))]  # is_psd(pi)


def test_kraus_map_takes_no_cond_and_no_choi_eigvalsh(tmp_path, linalg_calls):
    """validate and hit (direct, mhtf, all) of a rank-2 Kraus map at n = 12:
    at full size only the Cholesky factorization that certifies the map,
    once per command, and solves; no radius, and no eigvalsh beyond n x n.
    The same map as a raw superoperator, whose form is real too, is
    certified the same way, but still takes the cond of I - QT, the eigvals
    of the radius and the eigvalsh of its Choi matrix."""
    n, d = 12, 144
    rng = np.random.default_rng(12)
    ops = kraus_family(rng, n, 2)
    vector = [[float(x), 0.0] for x in rng.standard_normal(n)]
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps({"queries": [
        {"subspace": {"indices": [1]}, "initial": {"index": 5}, "method": "direct"},
        {"subspace": {"indices": [1]}, "initial": {"index": 5}, "method": "mhtf"},
        {"subspace": {"vectors": [vector]}, "initial": {"index": 3}, "method": "direct"},
        {"subspace": {"vectors": [vector]}, "initial": {"index": 3}, "method": "all"},
    ]}))
    maps = {
        "kraus": {"dim": n, "kraus": [[[[z.real, z.imag] for z in row] for row in op] for op in ops]},
        "raw": {"dim": n, "superoperator": [[[z.real, z.imag] for z in row]
                                            for row in from_kraus(ops).rep]},
    }
    runner = CliRunner()
    full_size, spectral = {}, {}
    for label, record in maps.items():
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(record))
        del linalg_calls[:]
        for argv in (["validate", str(path), "--json"], ["hit", str(path), str(queries), "--json"]):
            result = runner.invoke(main, argv)
            assert result.exit_code == 0, result.output
        full_size[label] = [c for c in linalg_calls if c[1] == (d, d) and c[0] != "solve"]
        spectral[label] = {c for c in linalg_calls if "eig" in c[0] or c[0] in ("svd", "cond")}
    assert full_size["kraus"] == [("cholesky", (d, d))] * 2
    assert spectral["kraus"] == {("complex eigvalsh", (n, n))}
    assert {c[0] for c in full_size["raw"]} == {"cond", "complex eigvalsh", "cholesky"}
    assert {c[0] for c in spectral["raw"]} >= {"eigvals"}


# ------------------------------------------------- solves in the Hermitian form

@pytest.mark.parametrize("n", [2, 3, 5])
def test_form_solve_matches_the_vec_coordinate_solve(n):
    """A covector l on vecs is l U on Hermitian coordinates, and x M = l is (x U) (U* M U) = l U."""
    rng = np.random.default_rng(30 + n)
    d = n * n
    u = hermitian_basis_matrix(n)
    resolvent = np.eye(d) - 0.5 * random_cptp_map(n, 2, rng).rep
    general = np.eye(d) * d + rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for m, real in ((resolvent, True), (general, False)):
        form = hermitian_form(m)
        assert np.isrealobj(form) == real
        covector = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        columns = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
        for rhs in (covector, columns, columns.real):
            x = u.conj() @ np.linalg.solve(form.T, u.T @ rhs)
            assert x.shape == rhs.shape
            assert_allclose(x, np.linalg.solve(m.T, rhs), rtol=0, atol=1e-13)


def test_each_linear_system_is_kept_once_in_its_hermitian_form(monkeypatch):
    n = 6
    d = n * n
    rng = np.random.default_rng(9)
    t = from_kraus(kraus_family(rng, n, 2))
    form = t.hermitian_form
    assert t.hermitian_form is form and not form.flags.writeable
    assert np.isrealobj(form)
    certified = []
    floor = linalg.sigma_min_floor
    monkeypatch.setattr(linalg, "sigma_min_floor", lambda a: certified.append(a) or floor(a))
    cert = invariant_state(t)
    tracemalloc.start()
    try:
        cert.fundamental_pi()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d * d * 8  # not one d x d array, real or complex
    omega = np.outer(vec(cert.invariant_state.matrix), vec(np.eye(n)))
    assert_allclose(certified[0], hermitian_form(np.eye(d) - t.rep + omega), rtol=0, atol=1e-14)
    solve = np.linalg.solve
    for sub in _subspaces(n, 2, rng):
        with monkeypatch.context() as patched:
            solved = []
            patched.setattr(np.linalg, "solve", lambda a, b: solved.append(a) or solve(a, b))
            h = survival_rows(t, sub)[0]
        resolvent = solved[0].T
        assert (h is form) == (sub.frame is None)
        assert np.isrealobj(resolvent)
        w = np.eye(n) if sub.frame is None else sub.frame
        k = np.kron(w, w.conj())
        expected = hermitian_form(k.conj().T @ (np.eye(d) - lift(sub.projector_q) @ t.rep) @ k)
        assert_allclose(resolvent, expected, rtol=0, atol=1e-14)
    # An index target's Z solve is against the certificate's own A, bit for bit.
    solved = []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a) or solve(a, b))
    solve_hitting(t, subspace_from_indices(n, [1, 4]), cert)
    np.testing.assert_array_equal(solved[-1].T, certified[0])


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


# The spectral radius of a positive survival map is its Perron eigenvalue.
# solve_hitting reports, for a Kraus map, the upper bound on it that the
# time row proves (hitting._time_row_bounds); the kept block's eigvals
# remain the fallback, and the radius of raw maps.
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


def assert_bounds_the_perron_radius(t, sub):
    """The kept block's radius is the full survival spectrum's, and the time
    row's bound lies between it and 1."""
    full = full_survival_radius(t, sub)
    assert spectral_radius(kept_block(t, sub)) == pytest.approx(full, rel=1e-12, abs=0)
    bound = survival_rows(t, sub)[3]
    assert full <= bound < 1.0
    return full, bound


@pytest.mark.parametrize("n", [10, 12, 14, 16])
@pytest.mark.parametrize("kraus_rank", [2, 3])
def test_perron_radius_matches_full_survival_spectrum(n, kraus_rank):
    rng = np.random.default_rng(1000 + 10 * n + kraus_rank)
    t = from_kraus(kraus_family(rng, n, kraus_rank))
    for rank in (1, 2, 3):
        for sub in _subspaces(n, rank, rng):
            full, bound = assert_bounds_the_perron_radius(t, sub)
            # Random maps: the bound keeps at least half of the gap 1 - radius.
            assert 1.0 - bound >= (1.0 - full) / 2


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_perron_radius_matches_on_nearly_reducible_maps(eps):
    rng = np.random.default_rng(3)
    t = gap_map(rng, 12, eps)
    subspaces = [subspace_from_indices(12, [0]), subspace_from_indices(12, [0, 7])]
    subspaces += _subspaces(12, 2, rng)
    for sub in subspaces:
        assert_bounds_the_perron_radius(t, sub)


def shapes_of(calls, name):
    return [c[1] for c in calls if c[0] == name]


def test_raw_map_that_is_not_positive_takes_eigvals(linalg_calls):
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
    sub = subspace_from_indices(n, [0, 1])
    radius = survival_rows(t, sub)[3]  # the route solve_hitting and hitting_maps share
    tau_series(t, sub, np.eye(n) / n)
    assert shapes_of(linalg_calls, "eigvals") == [(100, 100)] * 2
    assert radius == pytest.approx(full_survival_radius(t, sub), rel=1e-12)


def test_kraus_solve_and_series_take_no_eigvals(linalg_calls):
    n = 12
    rng = np.random.default_rng(7)
    t = from_kraus(kraus_family(rng, n, 2))
    cert = invariant_state(t)
    for sub in _subspaces(n, 2, rng):
        hs = solve_hitting(t, sub, cert)
        tau_series(t, hs.subspace, random_density(n, rng))
        assert full_survival_radius(t, sub) <= hs.spectral_radius_qphi < 1.0
    assert shapes_of(linalg_calls, "eigvals") == []


def test_perron_route_keeps_the_refusal_messages(linalg_calls):
    """The exactly reducible map: its radius is 1 to rounding, on either side of it.

    The time row proves no bound there, so both routes fall back to the kept
    block's eigvals and refuse with its radius.  Below 1 the resolvent is
    refused on its condition, and the series at its term cap; at 1 or above
    both refuse on the radius.
    """
    t = gap_map(np.random.default_rng(0), 12, 0.0)
    sub = subspace_from_indices(12, [0])
    radius = spectral_radius(kept_block(t, sub))
    assert radius == pytest.approx(1.0, abs=1e-13)
    if radius < 1.0:
        # kappa_1 = 2 lambda_max(X), X the matrix of the time row e M^-1.
        m = np.eye(144) - sub.mask(frame_form(t, sub.frame))
        time = np.linalg.solve(m.T, hermitian_coords(np.eye(12)))
        cond = 2 * np.linalg.eigvalsh(hermitian_matrix(time))[-1]
        assert cond > 1e14
        messages = (re.compile(r"survival resolvent is singular to working precision "
                               r"\(condition estimate (\S+), spectral radius "
                               + re.escape(f"{radius:.12g})")),
                    f"series did not reach the target accuracy in 1000000 terms "
                    f"(spectral radius {radius:.12g})")
    else:
        messages = (f"monitored evolution does not contract: spectral radius of the "
                    f"survival map is {radius:.12g} (map reducible or subspace trivial)",
                    f"monitored series does not converge: spectral radius of the "
                    f"survival map is {radius:.12g} (map not irreducible)")
    del linalg_calls[:]
    with pytest.raises(NumericError) as refused:
        hitting_maps(t, sub)
    if radius < 1.0:
        # The solve against M has three right-hand sides, so the estimate
        # agrees with this one to rounding, not bit for bit.
        match = messages[0].fullmatch(str(refused.value))
        assert match and float(match.group(1)) == pytest.approx(cond, rel=1e-3)
    else:
        assert str(refused.value) == messages[0]
    with pytest.raises(NonConvergenceError) as refused:
        tau_series(t, sub, np.eye(12) / 12)
    assert str(refused.value) == messages[1]
    assert shapes_of(linalg_calls, "eigvals")[:2] == [(121, 121)] * 2


def test_hermitian_basis_is_cached_and_read_only():
    first = linalg._hermitian_basis(5)
    assert linalg._hermitian_basis(5) is first
    for indices in first:
        with pytest.raises(ValueError):
            indices[0] = 0
