import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import hittime
import hittime.cli
import hittime.examples as examples
import hittime.hitting
import hittime.io
import hittime.linalg
import hittime.maps
import hittime.oracle
from hittime.cli import main
from test_bordered import kraus_family


@pytest.fixture()
def runner():
    return CliRunner()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def qubit_map_file(tmp_path):
    s = 1 / math.sqrt(3)
    return write(
        tmp_path,
        "qubit.json",
        {
            "dim": 2,
            "kraus": [
                [[[s, 0], [s, 0]], [[0, 0], [s, 0]]],
                [[[s, 0], [0, 0]], [[-s, 0], [s, 0]]],
            ],
        },
    )


def qubit_query_file(tmp_path, method="all"):
    r = 1 / math.sqrt(2)
    return write(
        tmp_path,
        "query.json",
        {
            "subspace": {"vectors": [[[r, 0], [r, 0]]]},
            "initial": {"vector": [[r, 0], [-r, 0]]},
            "method": method,
        },
    )


def qudit_map_file(tmp_path, a=0.6):
    ops = examples.qudit_demo_kraus(a)
    payload = {
        "dim": 4,
        "kraus": [
            [[[z.real, z.imag] for z in row] for row in op] for op in ops
        ],
    }
    return write(tmp_path, "qudit.json", payload)


def chain_file(tmp_path, p=0.5):
    return write(
        tmp_path,
        "chain.json",
        {"dim": 2, "stochastic": [[1 - p, p], [p, 1 - p]], "orientation": "column"},
    )


# -------------------------------------------------------------------- validate

def test_validate_demo(runner, tmp_path):
    result = runner.invoke(main, ["validate", qubit_map_file(tmp_path)])
    assert result.exit_code == 0
    assert "certified_irreducible" in result.output
    assert "trace preserving     yes" in result.output


def test_validate_json(runner, tmp_path):
    result = runner.invoke(main, ["validate", qubit_map_file(tmp_path), "--json"])
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["trace_preserving"]["ok"] is True
    assert record["completely_positive"]["ok"] is True
    assert record["irreducibility"]["verdict"] == "certified_irreducible"
    state = np.array(
        [[complex(re, im) for re, im in row] for row in record["invariant_state"]]
    )
    assert np.allclose(state, np.eye(2) / 2, atol=1e-10)


def test_validate_zero_map_exits_2(runner, tmp_path):
    path = write(
        tmp_path, "zero.json", {"dim": 2, "superoperator": np.zeros((4, 4)).tolist()}
    )
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 2
    assert "trace preserving     no" in result.output


def test_validate_reducible_chain_exits_2(runner, tmp_path):
    block = np.block(
        [
            [examples.symmetric_two_state_chain(0.3), np.zeros((2, 2))],
            [np.zeros((2, 2)), examples.symmetric_two_state_chain(0.4)],
        ]
    )
    path = write(tmp_path, "red.json", {"dim": 4, "stochastic": block.tolist()})
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 2
    assert "not_irreducible" in result.output


def test_validate_amplitude_damping_reports_a_singular_invariant_state(runner, tmp_path):
    """A one-dimensional fixed space whose state |0><0| is not positive definite."""
    gamma = 0.3
    kraus = [[[1, 0], [0, math.sqrt(1 - gamma)]], [[0, math.sqrt(gamma)], [0, 0]]]
    path = write(tmp_path, "damping.json", {"dim": 2, "kraus": kraus})
    result = runner.invoke(main, ["validate", path, "--json"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: map is not certified irreducible (verdict: not_irreducible")
    record = json.loads(result.stdout)
    assert record["irreducibility"]["verdict"] == "not_irreducible"
    assert record["irreducibility"]["fixed_space_dim"] == 1
    assert record["invariant_state"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


def test_validate_missing_file_exits_1(runner):
    result = runner.invoke(main, ["validate", "/nonexistent/map.json"])
    assert result.exit_code == 1


def test_validate_reports_positivity_sampling_for_non_cp_map(runner, tmp_path):
    # the transpose map: trace preserving and positive but not completely
    # positive, and its fixed space (symmetric matrices) is 3-dimensional
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    path = write(tmp_path, "transpose.json", {"dim": 2, "superoperator": swap.tolist()})
    result = runner.invoke(main, ["validate", path, "--json"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: map is not certified irreducible (verdict: not_irreducible")
    record = json.loads(result.stdout)
    assert record["trace_preserving"]["ok"] is True
    assert record["completely_positive"]["ok"] is False
    assert record["positivity_sampling"]["ok"] is True
    assert record["irreducibility"]["verdict"] == "not_irreducible"
    assert record["irreducibility"]["fixed_space_dim"] == 3


# ------------------------------------------------------------------------- hit

def test_hit_all_routes(runner, tmp_path):
    result = runner.invoke(
        main,
        ["hit", qubit_map_file(tmp_path), qubit_query_file(tmp_path), "--json"],
    )
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["method"] == "all"
    assert record["tau"] == pytest.approx(6.0, abs=1e-9)
    assert record["routes"]["direct"] == pytest.approx(6.0, abs=1e-9)
    assert record["routes"]["mhtf"] == pytest.approx(6.0, abs=1e-9)
    assert record["routes"]["series"] == pytest.approx(6.0, abs=1e-8)
    assert record["max_route_deviation"] <= 1e-8
    assert record["hitting_probability_residual"] <= 1e-10
    # The bound the time row proves on the radius 5/6 of QT: the time row's
    # matrix has lambda_max = 4 + 2 sqrt(2), so 1 - 1/lambda_max = (2 + sqrt(2)) / 4.
    radius = record["diagnostics"]["spectral_radius_qphi"]
    assert radius == pytest.approx((2.0 + math.sqrt(2.0)) / 4.0, abs=1e-9)
    assert 5.0 / 6.0 <= radius < 1.0


def test_hit_qudit_non_orthogonal_start(runner, tmp_path):
    r = 1 / math.sqrt(2)
    query = write(
        tmp_path,
        "q.json",
        {
            "subspace": {"indices": [3, 4]},
            "initial": {"vector": [[r, 0], [0, 0], [0, 0], [r, 0]]},
            "method": "mhtf",
        },
    )
    result = runner.invoke(
        main, ["hit", qudit_map_file(tmp_path), query, "--json"]
    )
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["tau"] == pytest.approx(3.53125, abs=1e-9)


def test_hit_classical_file(runner, tmp_path):
    query = write(
        tmp_path,
        "q.json",
        {"subspace": {"indices": [2]}, "initial": {"index": 1}, "method": "all"},
    )
    result = runner.invoke(
        main, ["hit", chain_file(tmp_path), query, "--json"]
    )
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["tau"] == pytest.approx(2.0, abs=1e-9)


def test_hit_answers_a_subspace_spanned_by_tiny_vectors(runner, tmp_path):
    query = write(
        tmp_path,
        "q.json",
        {"subspace": {"vectors": [[[1e-12, 0], [1e-12, 0]]]}, "initial": {"index": 2}},
    )
    result = runner.invoke(main, ["hit", chain_file(tmp_path), query, "--json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["tau"] == pytest.approx(2.0, abs=1e-9)


def test_hit_method_override(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "hit",
            qubit_map_file(tmp_path),
            qubit_query_file(tmp_path),
            "--method",
            "series",
            "--json",
        ],
    )
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["method"] == "series"
    assert set(record["routes"]) == {"series"}


def test_hit_forced_orthogonal_violation_exits_3(runner, tmp_path):
    query = write(
        tmp_path,
        "q.json",
        {
            "subspace": {"indices": [2]},
            "initial": {"index": 2},  # inside the arrival subspace
            "method": "mhtf-orthogonal",
        },
    )
    result = runner.invoke(main, ["hit", chain_file(tmp_path), query])
    assert result.exit_code == 3


def test_hit_reducible_map_exits_2(runner, tmp_path):
    block = np.block(
        [
            [examples.symmetric_two_state_chain(0.3), np.zeros((2, 2))],
            [np.zeros((2, 2)), examples.symmetric_two_state_chain(0.4)],
        ]
    )
    map_path = write(tmp_path, "red.json", {"dim": 4, "stochastic": block.tolist()})
    query = write(
        tmp_path, "q.json", {"subspace": {"indices": [1]}, "initial": {"index": 3}}
    )
    result = runner.invoke(main, ["hit", map_path, query])
    assert result.exit_code == 2


def test_hit_parse_error_exits_1(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["hit", str(bad), str(bad)])
    assert result.exit_code == 1


def test_hit_batch_order_and_byte_stability(runner, tmp_path):
    query = write(
        tmp_path,
        "q.json",
        {
            "queries": [
                {"subspace": {"indices": [2]}, "initial": {"index": 1},
                 "method": "direct"},
                {"subspace": {"indices": [1]}, "initial": {"index": 2},
                 "method": "direct"},
            ]
        },
    )
    args = ["hit", chain_file(tmp_path, p=0.25), query, "--json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    records = json.loads(first.output)
    assert len(records) == 2
    assert records[0]["tau"] == pytest.approx(4.0, abs=1e-9)
    assert records[1]["tau"] == pytest.approx(4.0, abs=1e-9)


def fanout_queries():
    """Ten queries on the M4 demo map: five starts on each of two subspaces."""
    r = 1 / math.sqrt(2)
    subspaces = ({"indices": [3, 4]}, {"vectors": [[[r, 0], [0, 0], [r, 0], [0, 0]]]})
    starts = (
        ({"index": 1}, "direct"),
        ({"vector": [[r, 0], [0, 0], [0, 0], [r, 0]]}, "mhtf"),
        ({"distribution": [0.1, 0.2, 0.3, 0.4]}, "all"),
        ({"density": np.eye(4).tolist()}, "direct"),
        ({"index": 2}, "mhtf-orthogonal"),
    )
    return [
        {"subspace": sub, "initial": init, "method": method}
        for sub in subspaces
        for init, method in starts
    ]


def _count_calls(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_hit_batch_solves_once_per_subspace(runner, tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, hittime.cli, "solve_hitting")
    realized = _count_calls(monkeypatch, hittime.cli, "realize_subspace")
    query = write(tmp_path, "q.json", {"queries": fanout_queries()})
    result = runner.invoke(main, ["hit", qudit_map_file(tmp_path), query, "--json"])
    assert result.exit_code == 0, result.output
    assert len(json.loads(result.output)) == 10
    assert len(calls) == 2
    assert len(realized) == 2


@pytest.mark.parametrize("method", ["mhtf", "all"])
@pytest.mark.parametrize("subspace", [{"indices": [3, 4]}, {"vectors": [[0.6, 0, 0.8, 0]]}])
@pytest.mark.parametrize("initial,orthogonal", [
    ({"vector": [0, 1, 0, 0]}, True),  # supported off both targets
    ({"index": 3}, False),  # inside the index target, not orthogonal to the vector one
    ({"distribution": [0.1, 0.2, 0.3, 0.4]}, False),
])
def test_hit_mhtf_route_is_the_formula_the_start_admits(runner, tmp_path, method, subspace,
                                                         initial, orthogonal):
    """The mhtf route of a hit query reports, bit for bit, the orthogonal
    formula for a start supported off V and the first-step formula for any
    other, against the library called directly."""
    map_path = qudit_map_file(tmp_path)
    spec = {"subspace": subspace, "initial": initial, "method": method}
    result = runner.invoke(main, ["hit", map_path, write(tmp_path, "q.json", spec), "--json"])
    assert result.exit_code == 0, result.output

    tol = hittime.DEFAULT_TOL
    channel = hittime.io.build_superoperator(hittime.io.load_map_spec(map_path))
    query = hittime.io.load_query_file(str(tmp_path / "q.json"))[0]
    hs = hittime.solve_hitting(channel, hittime.io.realize_subspace(query, 4, tol),
                               hittime.invariant_state(channel, tol), tol)
    rho = hittime.io.realize_initial(query, 4, tol).state
    if orthogonal:
        expected = hittime.mhtf_orthogonal(hs, rho).tau
    else:
        with pytest.raises(hittime.OrthogonalityError):
            hittime.mhtf_orthogonal(hs, rho)
        expected = hittime.mhtf_general(hs, rho)
    assert json.loads(result.output)["routes"]["mhtf"] == expected


@pytest.mark.parametrize("query_tol,orthogonal", [(None, False), (1e-7, True)])
def test_hit_mhtf_judges_a_start_under_its_query_tolerance(runner, tmp_path, query_tol, orthogonal):
    """A start about 1e-9 off the complement of {3, 4} takes the first-step
    formula at the default tolerance, which allows 2e-10, and the orthogonal
    one under a query tol of 1e-7, bit for bit the library's."""
    map_path = qudit_map_file(tmp_path)
    delta = 1e-9 / math.sqrt(2)
    spec = {"subspace": {"indices": [3, 4]}, "initial": {"vector": [1, 0, delta, 0]},
            "method": "mhtf"}
    if query_tol is not None:
        spec["tol"] = query_tol
    result = runner.invoke(main, ["hit", map_path, write(tmp_path, "q.json", spec), "--json"])
    assert result.exit_code == 0, result.output

    tol = hittime.Tolerance(query_tol, query_tol) if query_tol else hittime.DEFAULT_TOL
    channel = hittime.io.build_superoperator(hittime.io.load_map_spec(map_path))
    hs = hittime.solve_hitting(channel, hittime.subspace_from_indices(4, [2, 3]),
                               hittime.invariant_state(channel), tol)
    rho = hittime.pure_density([1, 0, delta, 0])
    if orthogonal:
        expected = hittime.mhtf_orthogonal(hs, rho).tau
    else:
        with pytest.raises(hittime.OrthogonalityError):
            hittime.mhtf_orthogonal(hs, rho)
        expected = hittime.mhtf_general(hs, rho)
    assert json.loads(result.output)["routes"]["mhtf"] == expected


@pytest.mark.parametrize("matrix,residual", [
    ([[0.5, 1], [0, 0.5]], "1.414e+00"),
    ([[1, 1.7e308], [-1.7e308, 1e-300]], "inf"),  # a skew part beyond the double range
])
def test_hit_refuses_a_non_hermitian_density_start(runner, tmp_path, matrix, residual):
    """A density start is judged as given, not Hermitized first."""
    query = write(tmp_path, "q.json", {"subspace": {"indices": [2]},
                                       "initial": {"density": matrix}})
    result = runner.invoke(main, ["hit", chain_file(tmp_path), query])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == f"error: density matrix is not Hermitian (residual {residual})\n"


@pytest.mark.parametrize("count,forms", [(5, 1), (10, 3)])
def test_hit_answer_path_takes_one_form_per_frame_and_route(
    runner, tmp_path, monkeypatch, count, forms
):
    """Index targets read the map's one Hermitian form, built from its Kraus
    family; a vector target adds one per route (solve_hitting and the series),
    from the conjugated family.  Nothing calls kron or the dense
    hermitian_form, or decomposes a complex d x d matrix."""
    modules = (hittime.linalg, hittime.maps)
    built = [_count_calls(monkeypatch, module, "kraus_form") for module in modules]
    dense = [_count_calls(monkeypatch, module, "hermitian_form") for module in modules]
    decomposed = []
    for name in ("solve", "svd", "cond", "eigvals", "eig", "eigh", "eigvalsh", "inv", "qr", "lstsq"):
        original = getattr(np.linalg, name)

        def recorder(a, *args, _original=original, _name=name, **kwargs):
            decomposed.append((_name, np.shape(a), np.iscomplexobj(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorder)
    kron_callers = []
    kron = np.kron
    monkeypatch.setattr(
        np, "kron", lambda *args: kron_callers.append(sys._getframe(1).f_code.co_name) or kron(*args)
    )
    query = write(tmp_path, "q.json", {"queries": fanout_queries()[:count]})
    result = runner.invoke(main, ["hit", qudit_map_file(tmp_path), query, "--json"])
    assert result.exit_code == 0, result.output
    assert sum(map(len, built)) == forms
    assert not any(dense)
    assert kron_callers == []
    assert decomposed and not [c for c in decomposed if c[1] == (16, 16) and c[2]]


def test_kraus_map_validates_and_answers_from_its_family(runner, tmp_path, monkeypatch):
    """validate, then hit --method all on an index and a vector target, of a rank-2
    Kraus map at n = 12: neither builds the map's rep, calls kron or runs the dense
    hermitian_form.  The rep read afterwards is sum_i kron(V_i, conj(V_i)) bit for bit."""
    n = 12
    ops = kraus_family(np.random.default_rng(12), n, 2)
    path = write(tmp_path, "kraus.json", {
        "dim": n, "kraus": [[[[z.real, z.imag] for z in row] for row in op] for op in ops],
    })
    r = 1 / math.sqrt(2)
    query = write(tmp_path, "q.json", {"queries": [
        {"subspace": {"indices": [1, 5]}, "initial": {"index": 3}, "method": "all"},
        {"subspace": {"vectors": [[[r, 0], [0, r]] + [[0, 0]] * (n - 2)]}, "initial": {"index": 4},
         "method": "all"},
    ]})
    built = []
    build = hittime.cli.build_superoperator
    monkeypatch.setattr(hittime.cli, "build_superoperator",
                        lambda *args: built.append(build(*args)) or built[-1])
    dense = [_count_calls(monkeypatch, module, "hermitian_form")
             for module in (hittime.linalg, hittime.maps)]
    kron_calls = _count_calls(monkeypatch, np, "kron")
    for argv in (["validate", path, "--json"], ["hit", path, query, "--json"]):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
    assert len(built) == 2
    assert all(t.kraus is not None and "rep" not in t.__dict__ for t in built)
    assert not any(dense) and kron_calls == []
    for t in built:
        expected = np.zeros((n * n, n * n), dtype=complex)
        for v in t.kraus:
            expected += np.kron(v, v.conj())
        np.testing.assert_array_equal(t.rep, expected)


def test_hit_routes_build_their_own_frame_forms(runner, tmp_path, monkeypatch):
    """Under --method all, solve_hitting and tau_series each build the frame form."""
    solves = _count_calls(monkeypatch, hittime.hitting, "frame_form")
    series = _count_calls(monkeypatch, hittime.oracle, "frame_form")
    query = write(tmp_path, "q.json", {"queries": fanout_queries()})
    result = runner.invoke(
        main, ["hit", qudit_map_file(tmp_path), query, "--json", "--method", "all"]
    )
    assert result.exit_code == 0, result.output
    assert len(solves) == 2  # one per (map, subspace)
    assert len(series) == 10  # one per series query


def test_hit_computes_the_fundamental_map_once(runner, tmp_path, monkeypatch):
    """One certificate, and so one fundamental map, per invocation, even for one
    subspace at two query tolerances."""
    calls = []
    certify = hittime.cli.invariant_state

    def counted(*args, **kwargs):
        calls.append(args)
        return certify(*args, **kwargs)

    monkeypatch.setattr(hittime.cli, "invariant_state", counted)
    queries = [dict(fanout_queries()[0], tol=tol) for tol in (1e-8, 1e-10)]
    query = write(tmp_path, "q.json", {"queries": queries})
    result = runner.invoke(main, ["hit", qudit_map_file(tmp_path), query, "--json"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


@pytest.mark.parametrize("module,message", [
    (hittime.maps, "error: fundamental solve is singular to working precision"),
    (hittime.hitting, "error: survival resolvent is singular to working precision"),
])
def test_hit_exits_5_on_a_condition_beyond_the_ceiling(
    runner, tmp_path, monkeypatch, module, message
):
    monkeypatch.setattr(module, "COND_CEIL", 1.0)
    result = runner.invoke(
        main, ["hit", qubit_map_file(tmp_path), qubit_query_file(tmp_path), "--json"]
    )
    assert result.exit_code == 5
    assert result.output.startswith(message)


def test_hit_judges_the_map_under_the_command_tolerance(runner, tmp_path):
    """--tol judges the map (exit 2); a query's tol judges only its own query.

    The demo Kraus operators scaled by 1 + 2e-12 miss trace preservation by
    5.7e-12.  A query at tol 1e-15 is answered; its direct route then fails
    its own cross-check (exit 5).
    """
    ops = [(1 + 2e-12) * op for op in examples.qubit_demo_kraus()]
    map_path = write(tmp_path, "scaled.json", {
        "dim": 2,
        "kraus": [[[[z.real, z.imag] for z in row] for row in op] for op in ops],
    })
    r = 1 / math.sqrt(2)
    query = {"subspace": {"vectors": [[[r, 0], [r, 0]]]},
             "initial": {"vector": [[r, 0], [-r, 0]]}, "tol": 1e-15}
    answered = runner.invoke(
        main, ["hit", map_path, write(tmp_path, "q.json", dict(query, method="mhtf"))]
    )
    assert answered.exit_code == 0, answered.output
    direct = runner.invoke(
        main, ["hit", map_path, write(tmp_path, "qd.json", dict(query, method="direct"))]
    )
    assert direct.exit_code == 5
    assert "cross-check failed" in direct.stderr
    refused = runner.invoke(
        main, ["hit", map_path, str(tmp_path / "q.json"), "--tol", "1e-15"]
    )
    assert refused.exit_code == 2
    assert refused.stderr == "error: map is not trace preserving (residual 5.657e-12)\n"


@pytest.mark.parametrize("query", [
    {"subspace": {"indices": [2]}, "tol": 1e-3,
     "initial": {"density": [[[1.000001, 0], [0, 0]], [[0, 0], [-0.000001, 0]]]}},
    {"subspace": {"vectors": [[1, 1e-5], [1, 0]]}, "initial": {"index": 2}, "tol": 1e-3,
     "method": "direct"},
])
def test_query_tolerance_judges_its_start_and_its_subspace(runner, tmp_path, query):
    """Under its tol of 1e-3 the start's eigenvalue -1e-6 is tolerated and the
    two spanning vectors collapse to one line; the default tolerance refuses both."""
    result = runner.invoke(main, ["hit", chain_file(tmp_path), write(tmp_path, "q.json", query),
                                  "--json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["tau"] == pytest.approx(2.0, rel=1e-5)


@pytest.mark.parametrize("flags", [[], ["--tol", "1e-14"]])
@pytest.mark.parametrize("p", [1e-14, 1e-15, 1e-16])
def test_hit_refuses_a_chain_coupled_below_the_tolerance_at_the_certificate(
    runner, tmp_path, p, flags
):
    query = write(tmp_path, "q.json", {"subspace": {"indices": [2]}, "initial": {"index": 1}})
    result = runner.invoke(main, ["hit", chain_file(tmp_path, p), query, *flags])
    assert result.exit_code == 2
    tol = flags[1] if flags else "1e-10"
    assert result.stderr == (
        f"error: map is not certified irreducible (verdict: not_irreducible under atol {tol} "
        f"and rtol {tol}); a smaller tolerance (--tol) may certify a nearly reducible map\n"
    )


def test_nearly_reducible_chain_refusal_names_the_tolerance_that_certifies_it(runner, tmp_path):
    """p = 1e-11 leaves sigma_min(A) about 2p, below the default atol: validate and hit
    refuse with exit 2 and name the tolerance, and a smaller --tol certifies the chain."""
    chain = chain_file(tmp_path, 1e-11)
    query = write(tmp_path, "q.json", {"subspace": {"indices": [2]}, "initial": {"index": 1},
                                       "method": "direct"})
    refusal = ("error: map is not certified irreducible (verdict: not_irreducible under "
               "atol 1e-10 and rtol 1e-10); a smaller tolerance (--tol) may certify a "
               "nearly reducible map\n")
    for argv in (["validate", chain], ["hit", chain, query]):
        refused = runner.invoke(main, argv)
        assert (refused.exit_code, refused.stderr) == (2, refusal)
    certified = runner.invoke(main, ["validate", chain, "--tol", "1e-14", "--json"])
    assert certified.exit_code == 0 and certified.stderr == ""
    assert json.loads(certified.stdout)["irreducibility"]["verdict"] == "certified_irreducible"
    answered = runner.invoke(main, ["hit", chain, query, "--tol", "1e-14", "--json"])
    assert answered.exit_code == 0, answered.output
    assert json.loads(answered.stdout)["tau"] == pytest.approx(1e11, rel=1e-4)


def test_trace_preservation_refusal_is_one_error_line_under_warnings_as_errors(tmp_path):
    """The scaled demo map of the test above, run as ``python -W error -m hittime``."""
    ops = [(1 + 2e-12) * op for op in examples.qubit_demo_kraus()]
    map_path = write(tmp_path, "scaled.json", {
        "dim": 2,
        "kraus": [[[[z.real, z.imag] for z in row] for row in op] for op in ops],
    })
    query_path = qubit_query_file(tmp_path, method="mhtf")
    env = dict(os.environ, PYTHONPATH=str(Path(hittime.__file__).resolve().parents[1]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "hittime", *argv, "--tol", "1e-15"],
            env=env, capture_output=True, text=True,
        )

    validated = run("validate", map_path)
    assert validated.returncode == 2
    assert validated.stderr == ""
    assert "trace preserving     no (residual 5.65704312868e-12)" in validated.stdout
    refused = run("hit", map_path, query_path)
    assert refused.returncode == 2
    assert refused.stderr == "error: map is not trace preserving (residual 5.657e-12)\n"


@pytest.mark.parametrize(
    "chain,min_eigenvalue",
    [
        ([[0.5, 0.5], [0.5, 0.5]], 0.5),
        ([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]], 1 / 3),
    ],
)
def test_validate_at_zero_tolerance_certifies_an_exactly_stochastic_chain(
    runner, tmp_path, chain, min_eigenvalue
):
    """A trace-preserving map always has a fixed point; at --tol 0 the bordered
    certificate finds it where an SVD threshold of 0 found none."""
    path = write(tmp_path, "chain.json", {"dim": len(chain), "stochastic": chain})
    result = runner.invoke(main, ["validate", path, "--tol", "0", "--json"])
    assert result.exit_code == 0, result.output
    verdict = json.loads(result.output)["irreducibility"]
    assert verdict["verdict"] == "certified_irreducible"
    assert verdict["fixed_space_dim"] == 1
    assert verdict["min_eigenvalue_of_pi"] == pytest.approx(min_eigenvalue, abs=1e-15)
    kac = runner.invoke(main, ["classical", "kac", path, "-j", "1", "--tol", "0", "--json"])
    assert kac.exit_code == 0, kac.output
    assert json.loads(kac.output)["tau"] == pytest.approx(len(chain), rel=1e-14)


def test_hit_at_zero_tolerance_sums_the_series_to_rounding(runner, tmp_path):
    """At --tol 0 the series stops at the rounding level of its running total."""
    path = chain_file(tmp_path, p=0.3)
    query = write(tmp_path, "q.json", {"queries": [
        {"subspace": {"indices": [2]}, "initial": {"index": 1}, "method": "all"},
    ]})
    result = runner.invoke(main, ["hit", path, query, "--tol", "0", "--json"])
    assert result.exit_code == 0, result.output
    routes = json.loads(result.output)["routes"]
    assert set(routes) == {"direct", "mhtf", "series"}
    for value in routes.values():
        assert value == pytest.approx(10 / 3, abs=1e-12)


def test_hit_batch_records_match_single_queries(runner, tmp_path):
    map_path = qudit_map_file(tmp_path)
    queries = fanout_queries()
    batch = runner.invoke(
        main, ["hit", map_path, write(tmp_path, "batch.json", {"queries": queries}), "--json"]
    )
    assert batch.exit_code == 0, batch.output
    for index, (query, record) in enumerate(zip(queries, json.loads(batch.output))):
        single = runner.invoke(
            main, ["hit", map_path, write(tmp_path, f"q{index}.json", query), "--json"]
        )
        assert single.exit_code == 0, single.output
        assert json.dumps(record, sort_keys=True) == json.dumps(
            json.loads(single.output), sort_keys=True
        )


def test_hit_batch_orthogonality_violation_on_shared_subspace_exits_3(runner, tmp_path):
    query = write(
        tmp_path,
        "q.json",
        {
            "queries": [
                {"subspace": {"indices": [2]}, "initial": {"index": 1},
                 "method": "mhtf-orthogonal"},
                {"subspace": {"indices": [2]}, "initial": {"index": 2},
                 "method": "mhtf-orthogonal"},
                {"subspace": {"indices": [2]}, "initial": {"index": 3}},
            ]
        },
    )
    result = runner.invoke(main, ["hit", chain_file(tmp_path), query, "--json"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == (
        "error: initial state violates its support precondition (residual 1.000e+00)\n"
    )


def test_hit_direct_route_on_nearly_reducible_chain(runner, tmp_path):
    chain = examples.symmetric_two_state_chain(1e-7)
    path = write(tmp_path, "slow.json", {"dim": 2, "stochastic": chain.tolist()})
    query = write(
        tmp_path,
        "q.json",
        {"subspace": {"indices": [2]}, "initial": {"index": 1}, "method": "direct"},
    )
    result = runner.invoke(main, ["hit", path, query, "--json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["tau"] == pytest.approx(1e7, rel=1e-6)


def _call_redirected(argv):
    """Run the CLI in process with redirected streams, as an embedding caller does."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), weakref.ref(out), weakref.ref(err)


@pytest.mark.parametrize("initial,method,exit_code", [
    ({"index": 1}, "direct", 0),
    ({"index": 2}, "mhtf-orthogonal", 3),
])
def test_hit_releases_redirected_streams(tmp_path, initial, method, exit_code):
    query = write(
        tmp_path,
        "q.json",
        {"subspace": {"indices": [2]}, "initial": initial, "method": method},
    )
    code, out, err, out_ref, err_ref = _call_redirected(
        ["hit", chain_file(tmp_path), query, "--json"]
    )
    assert code == exit_code
    assert (out if exit_code == 0 else err)
    gc.collect()
    assert out_ref() is None
    assert err_ref() is None


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.output.rstrip().endswith(f"version {hittime.__version__}")


# -------------------------------------------------------------------- classical

def test_classical_mhtf_command(runner, tmp_path):
    result = runner.invoke(
        main,
        ["classical", "mhtf", chain_file(tmp_path), "-i", "1", "-j", "2", "--json"],
    )
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["tau"] == pytest.approx(2.0, abs=1e-12)


def test_classical_kac_command(runner, tmp_path):
    result = runner.invoke(
        main, ["classical", "kac", chain_file(tmp_path), "-j", "1", "--json"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["tau"] == pytest.approx(2.0, abs=1e-12)


def test_classical_refuses_a_stationary_distribution_with_a_zero_entry(runner, tmp_path):
    path = write(
        tmp_path, "absorbing.json",
        {"dim": 2, "stochastic": [[1, 0.5], [0, 0.5]], "orientation": "column"},
    )
    result = runner.invoke(main, ["classical", "kac", path, "-j", "1"])
    assert result.exit_code == 2
    assert result.output == (
        "error: chain is not irreducible: stationary distribution has a "
        "non-positive entry (0.000e+00)\n"
    )


def test_classical_dist_command(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "classical", "dist", chain_file(tmp_path),
            "-x", "0.5,0.5", "-j", "2", "--json",
        ],
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["tau"] == pytest.approx(2.0, abs=1e-12)


def test_classical_dist_refuses_an_unparsable_distribution(runner, tmp_path):
    result = runner.invoke(main, ["classical", "dist", chain_file(tmp_path), "-x", "a,b", "-j", "1"])
    assert result.exit_code == 1
    assert result.output == "error: cannot parse distribution 'a,b'\n"


@pytest.mark.parametrize("argv,code", [
    (["--tol", "1e-3"], 0),
    (["--tol", "1e-3", "--trials", "10"], 0),
    ([], 3),
])
def test_classical_dist_judges_the_start_under_the_command_tolerance(runner, tmp_path, argv, code):
    c3 = [[0.2, 0.5, 0.3], [0.3, 0.1, 0.6], [0.5, 0.4, 0.1]]
    path = write(tmp_path, "c3.json", {"dim": 3, "stochastic": c3})
    result = runner.invoke(main, ["classical", "dist", path, "--distribution=-1e-6,0.500001,0.5",
                                  "-j", "1", *argv, "--json"])
    assert result.exit_code == code, result.output
    if code:
        assert "initial distribution must be non-negative and sum to 1" in result.output
    else:
        assert math.isfinite(json.loads(result.output)["tau"])


@pytest.mark.parametrize("x_spec,argv,code", [
    ("0.2,0.3,0.5005", ["--tol", "1e-3"], 0),
    ("0.2,0.3,0.5005", ["--tol", "1e-3", "--trials", "10"], 0),
    ("0.2,0.3,0.5000000005", ["--tol", "1e-14"], 3),
    ("0.2,0.3,0.5000000005", ["--tol", "1e-14", "--trials", "10"], 3),
    ("0.2,0.3,0.5000000001", [], 0),
    ("0.2,0.3,0.5000000005", [], 3),
])
def test_classical_dist_judges_the_start_sum_as_a_chain_column(runner, tmp_path, x_spec, argv, code):
    """The sum of a start distribution may miss 1 by atol + rtol, as a column
    of the chain may: 5e-4 passes at 1e-3 (bound 2e-3), 5e-10 fails at 1e-14
    and at the default 1e-10 (bound 2e-10)."""
    c3 = [[0.2, 0.5, 0.3], [0.3, 0.1, 0.6], [0.5, 0.4, 0.1]]
    path = write(tmp_path, "c3.json", {"dim": 3, "stochastic": c3})
    result = runner.invoke(main, ["classical", "dist", path, f"--distribution={x_spec}",
                                  "-j", "1", *argv, "--json"])
    assert result.exit_code == code, result.output
    if code:
        assert "initial distribution must be non-negative and sum to 1" in result.output
    else:
        assert math.isfinite(json.loads(result.output)["tau"])


def test_classical_subset_command(runner, tmp_path):
    path = write(
        tmp_path, "cycle.json", {"dim": 3, "stochastic": examples.cycle_chain(3).tolist()}
    )
    result = runner.invoke(
        main,
        ["classical", "subset", path, "-i", "1", "-S", "2,3", "--json"],
    )
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["tau"] == pytest.approx(1.0, abs=1e-10)
    assert record["return_times"]["2"] == pytest.approx(1.0, abs=1e-10)
    assert record["return_times"]["3"] == pytest.approx(2.0, abs=1e-10)
    assert record["j_independence_residual"] <= 1e-9


def test_classical_monte_carlo_flag(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "classical", "mhtf", chain_file(tmp_path),
            "-i", "1", "-j", "2", "--trials", "20000", "--seed", "3", "--json",
        ],
    )
    assert result.exit_code == 0
    record = json.loads(result.output)
    mc = record["monte_carlo"]
    assert mc["trials"] == 20000
    assert mc["seed"] == 3
    assert abs(mc["mean"] - 2.0) <= 4.0 * mc["std_error"]


def test_classical_monte_carlo_of_one_trial_has_zero_standard_error(runner, tmp_path):
    result = runner.invoke(
        main,
        ["classical", "mhtf", chain_file(tmp_path), "-i", "1", "-j", "2", "--trials", "1", "--json"],
    )
    assert result.exit_code == 0, result.output
    mc = json.loads(result.output)["monte_carlo"]
    assert mc["trials"] == 1
    assert mc["std_error"] == 0.0


@pytest.mark.parametrize("stochastic,argv", [
    # --trials judges the chain under --tol, as the formula does
    ([[0.7, 0.3000001], [0.3, 0.7]],
     ["mhtf", "-i", "1", "-j", "2", "--tol", "1e-6", "--trials", "20"]),
    # the cross-check takes every start distribution the formula takes
    ([[0.7, 0.3], [0.3, 0.7]],
     ["dist", "--distribution=-1e-12,1.000000000001", "-j", "1", "--trials", "10"]),
])
def test_monte_carlo_accepts_what_the_formula_accepts(runner, tmp_path, stochastic, argv):
    path = write(tmp_path, "chain.json", {"dim": 2, "stochastic": stochastic})
    result = runner.invoke(main, ["classical", argv[0], path, *argv[1:], "--json"])
    assert result.exit_code == 0, result.output
    assert math.isfinite(json.loads(result.output)["monte_carlo"]["mean"])


def test_classical_trials_refuse_a_walk_beyond_the_step_cap_before_sampling(
    runner, tmp_path, monkeypatch
):
    """The formula answers 6.27e8 steps; --trials 30 exits 5 naming that mean,
    the trials, the slowest trial's expected steps and the cap, and the
    generator is never asked for a draw."""
    path = write(tmp_path, "slow.json", {"dim": 2, "stochastic": [
        [0.9999999984059049, 0.9984290128293385], [1.594095064128074e-09, 0.001570987170661532]]})

    def no_generator(seed):
        raise AssertionError("Monte Carlo sampled a walk it cannot finish")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    argv = ["classical", "mhtf", path, "-i", "1", "-j", "2", "--trials", "30", "--seed", "1"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 5
    assert result.stdout == ""
    assert result.stderr == ("error: mean first-visit time 6.273e+08 times H_30 = 3.9950 gives the slowest "
                             "of 30 trials 2.506e+09 expected steps, above the step cap 10000000\n")


def test_classical_requires_stochastic_file(runner, tmp_path):
    result = runner.invoke(
        main,
        ["classical", "mhtf", qubit_map_file(tmp_path), "-i", "1", "-j", "2"],
    )
    assert result.exit_code == 2


def test_classical_equal_states_exits_3(runner, tmp_path):
    result = runner.invoke(
        main, ["classical", "mhtf", chain_file(tmp_path), "-i", "1", "-j", "1"]
    )
    assert result.exit_code == 3


def test_classical_row_stochastic_flag(runner, tmp_path):
    p_row = [[0.7, 0.3], [0.4, 0.6]]  # rows sum to 1
    path = write(tmp_path, "row.json", {"dim": 2, "stochastic": p_row})
    result = runner.invoke(
        main,
        ["classical", "kac", path, "--row-stochastic", "-j", "1", "--json"],
    )
    assert result.exit_code == 0
    # column-stochastic transpose has stationary distribution (4/7, 3/7)
    assert json.loads(result.output)["tau"] == pytest.approx(7.0 / 4.0, abs=1e-10)


@pytest.fixture()
def no_embedding(monkeypatch):
    """Make every route to the n^2 x n^2 embedding of a chain raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("classical commands must not build the embedding")

    monkeypatch.setattr(hittime.cli, "build_superoperator", refuse)
    monkeypatch.setattr(hittime.maps, "from_stochastic", refuse)
    monkeypatch.setattr(hittime.io, "from_stochastic", refuse)


@pytest.mark.parametrize(
    "args",
    [
        ["mhtf", "-i", "1", "-j", "3"],
        ["kac", "-j", "2"],
        ["dist", "-x", "0.25,0.25,0.5", "-j", "1"],
        ["subset", "-i", "1", "-S", "2,3"],
        ["mhtf", "-i", "1", "-j", "3", "--trials", "200", "--seed", "4"],
    ],
)
def test_classical_commands_skip_embedding(runner, tmp_path, no_embedding, args):
    p = [[0.2, 0.5, 0.3], [0.3, 0.1, 0.6], [0.5, 0.4, 0.1]]
    path = write(tmp_path, "c3.json", {"dim": 3, "stochastic": p})
    command, *rest = args
    result = runner.invoke(main, ["classical", command, path, *rest, "--json"])
    assert result.exit_code == 0, result.output
    assert math.isfinite(json.loads(result.output)["tau"])


def test_classical_exit_codes_without_embedding(runner, tmp_path, no_embedding):
    reducible = write(
        tmp_path, "red.json", {"dim": 2, "stochastic": [[1.0, 0.0], [0.0, 1.0]]}
    )
    non_stochastic = write(
        tmp_path, "bad.json", {"dim": 2, "stochastic": [[0.5, 0.5], [0.6, 0.5]]}
    )
    malformed = tmp_path / "broken.json"
    malformed.write_text("{ not json")
    cases = [
        (qubit_map_file(tmp_path), 2),
        (str(malformed), 1),
        (reducible, 2),
        (non_stochastic, 2),
    ]
    for path, code in cases:
        for args in (["mhtf", path, "-i", "1", "-j", "2"], ["kac", path, "-j", "1"],
                     ["dist", path, "-x", "0.5,0.5", "-j", "1"],
                     ["subset", path, "-i", "1", "-S", "2"]):
            result = runner.invoke(main, ["classical", *args])
            assert result.exit_code == code, (args, result.output)
            assert isinstance(result.exception, SystemExit), args


def test_classical_orientation_without_embedding(runner, tmp_path, no_embedding):
    p_row = [[0.7, 0.3], [0.4, 0.6]]  # rows sum to 1; stationary (4/7, 3/7)
    flagged = write(tmp_path, "row.json", {"dim": 2, "stochastic": p_row})
    tagged = write(
        tmp_path, "tagged.json", {"dim": 2, "stochastic": p_row, "orientation": "row"}
    )
    for path, flag in ((flagged, ["--row-stochastic"]), (tagged, [])):
        result = runner.invoke(
            main, ["classical", "kac", path, "-j", "1", "--json", *flag]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["tau"] == pytest.approx(7.0 / 4.0, abs=1e-10)
    # read as column-stochastic, the same rows are refused
    result = runner.invoke(main, ["classical", "kac", flagged, "-j", "1"])
    assert result.exit_code == 2


def test_classical_subset_nearly_reducible_answers_or_exits_5(
    runner, tmp_path, no_embedding
):
    eps = 1e-9
    block = np.array([[0.5, 0.2, 0.3], [0.25, 0.5, 0.3], [0.25, 0.3, 0.4]])
    p = np.zeros((6, 6))
    p[:3, :3] = block
    p[3:, 3:] = block.T / block.T.sum(axis=0)
    p[:, 2] *= 1 - eps
    p[3, 2] += eps
    p[:, 5] *= 1 - eps
    p[0, 5] += eps
    path = write(tmp_path, "nearly.json", {"dim": 6, "stochastic": p.tolist()})
    answered = 0
    for subset in ([4], [4, 5], [2, 5]):
        spec = ",".join(map(str, subset))
        result = runner.invoke(
            main, ["classical", "subset", path, "-i", "1", "-S", spec, "--json"]
        )
        assert result.exit_code in (0, 5), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if result.exit_code == 0:
            answered += 1
            rest = [k for k in range(6) if k + 1 not in subset]
            h = np.linalg.solve(
                np.eye(len(rest)) - p[np.ix_(rest, rest)].T, np.ones(len(rest))
            )
            assert json.loads(result.output)["tau"] == pytest.approx(h[0], rel=1e-6)
    assert answered >= 1


# ----------------------------------------------------------------- edge cases

def test_hit_full_space_subspace_exits_3(runner, tmp_path):
    query = write(
        tmp_path,
        "q.json",
        {"subspace": {"indices": [1, 2]}, "initial": {"index": 1}},
    )
    result = runner.invoke(main, ["hit", chain_file(tmp_path), query])
    assert result.exit_code == 3


def test_hit_near_singular_survival_exits_5(runner, tmp_path):
    # irreducible but barely: direct and mhtf answer, but the survival map
    # contracts too slowly for the series of the default method all
    p = 5e-10
    path = write(
        tmp_path,
        "slow.json",
        {"dim": 2, "stochastic": [[1 - p, p], [p, 1 - p]]},
    )
    query = write(
        tmp_path, "q.json", {"subspace": {"indices": [2]}, "initial": {"index": 1}}
    )
    result = runner.invoke(main, ["hit", path, query])
    assert result.exit_code == 5


def test_tol_flag_is_accepted(runner, tmp_path):
    result = runner.invoke(
        main, ["validate", qubit_map_file(tmp_path), "--tol", "1e-8"]
    )
    assert result.exit_code == 0


def test_digits_flag_changes_human_output_only(runner, tmp_path):
    args = ["hit", chain_file(tmp_path, p=0.3), qubit_query_file(tmp_path)]
    coarse = runner.invoke(main, args + ["--digits", "3"])
    fine = runner.invoke(main, args + ["--digits", "15"])
    assert coarse.exit_code == fine.exit_code == 0
    assert coarse.output != fine.output
    json_coarse = runner.invoke(main, args + ["--digits", "3", "--json"])
    json_fine = runner.invoke(main, args + ["--digits", "15", "--json"])
    assert json_coarse.output == json_fine.output


# --------------------------------------------------------------------- selftest

def test_selftest_passes(runner):
    result = runner.invoke(main, ["selftest"])
    assert result.exit_code == 0
    assert "FAIL" not in result.output
    assert "qubit golden matrices" in result.output


def test_selftest_json(runner):
    result = runner.invoke(main, ["selftest", "--json"])
    assert result.exit_code == 0
    records = json.loads(result.output)
    assert all(entry["ok"] for entry in records)
    assert len(records) == 8


def test_importing_the_cli_leaves_out_the_selftest():
    src = str(Path(hittime.__file__).resolve().parents[1])
    probe = (
        "import json, sys, hittime.cli; "
        "print(json.dumps([m for m in sys.modules if m.startswith('hittime.')]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(json.loads(out.stdout))
    assert "hittime.cli" in loaded
    assert not loaded & {"hittime.selftest", "hittime.examples", "hittime.sampling", "hittime.blocks"}


def test_selftest_detects_perturbation(runner, monkeypatch):
    original = examples.qubit_demo_kraus

    def perturbed():
        left, right = original()
        left = left.copy()
        left[0, 0] += 1e-3
        return left, right

    monkeypatch.setattr(examples, "qubit_demo_kraus", perturbed)
    result = runner.invoke(main, ["selftest"], catch_exceptions=False)
    assert result.exit_code == 4
    assert "FAIL" in result.output


HUGE = 10**400  # a JSON integer beyond the double range


@pytest.mark.parametrize(
    "argv_tail,payload",
    [
        (["validate"], {"dim": 2, "kraus": [[[HUGE, 0], [0, 1]]]}),
        (["validate"], {"dim": 2, "stochastic": [[0.5, HUGE], [0.5, 0.5]]}),
        (["validate"], {"dim": 1, "superoperator": [[[HUGE, 0]]]}),
        (["classical", "kac", "-j", "1"], {"dim": 2, "stochastic": [[HUGE, 0.5], [0.5, 0.5]]}),
        (["classical", "mhtf", "-i", "1", "-j", "2"],
         {"dim": 2, "stochastic": [[0.5, 0.5], [0.5, HUGE]]}),
        (["hit", "QUERY"], {"dim": 2, "kraus": [[[1, 0], [0, HUGE]]]}),
    ],
)
def test_number_out_of_double_range_in_map_file_exits_1(runner, tmp_path, argv_tail, payload):
    path = write(tmp_path, "huge.json", payload)
    query = write(tmp_path, "q.json", {"subspace": {"indices": [1]}, "initial": {"index": 2}})
    command = argv_tail[:1] if argv_tail[0] != "classical" else argv_tail[:2]
    options = [query if a == "QUERY" else a for a in argv_tail[len(command):]]
    result = runner.invoke(main, [*command, path, *options, "--json"])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "number is too large for a double-precision float" in result.output


def test_number_out_of_double_range_in_query_vector_exits_1(runner, tmp_path):
    query = write(
        tmp_path,
        "q.json",
        {"subspace": {"vectors": [[[1, 0], [HUGE, 0]]]}, "initial": {"index": 2}},
    )
    result = runner.invoke(main, ["hit", chain_file(tmp_path), query, "--json"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "vectors[0][1]: number is too large" in result.output


def test_classical_subset_nearly_reducible_answers_relative_anchor_check(runner, tmp_path):
    # The 1e-9-coupled chain of the test above: the anchor sums are near 5e8,
    # so their round-off spread exceeds any fixed absolute tolerance.
    eps = 1e-9
    block = np.array([[0.5, 0.2, 0.3], [0.25, 0.5, 0.3], [0.25, 0.3, 0.4]])
    p = np.zeros((6, 6))
    p[:3, :3] = block
    p[3:, 3:] = block.T / block.T.sum(axis=0)
    p[:, 2] *= 1 - eps
    p[3, 2] += eps
    p[:, 5] *= 1 - eps
    p[0, 5] += eps
    path = write(tmp_path, "nearly.json", {"dim": 6, "stochastic": p.tolist()})
    for subset in ([4, 5], [2, 5]):
        spec = ",".join(map(str, subset))
        result = runner.invoke(
            main, ["classical", "subset", path, "-i", "1", "-S", spec, "--json"]
        )
        assert result.exit_code == 0, result.output
        rest = [k for k in range(6) if k + 1 not in subset]
        h = np.linalg.solve(
            np.eye(len(rest)) - p[np.ix_(rest, rest)].T, np.ones(len(rest))
        )
        assert json.loads(result.output)["tau"] == pytest.approx(h[0], rel=1e-6)


# ------------------------------------------------------ chains stored as P

def random_chain_file(tmp_path, n, seed):
    p = np.random.default_rng(seed).random((n, n))
    return write(tmp_path, f"chain{n}.json", {"dim": n, "stochastic": (p / p.sum(axis=0)).tolist()})


@pytest.mark.parametrize("command", ["validate", "hit"])
def test_chain_commands_never_build_the_embedding(runner, tmp_path, monkeypatch, linalg_calls, command):
    """validate and an index-target hit on a 12-state chain factor no complex n^2 x n^2 matrix."""
    built = []

    def recorded(*args):
        built.append(hittime.io.build_superoperator(*args))
        return built[-1]

    monkeypatch.setattr(hittime.cli, "build_superoperator", recorded)
    path = random_chain_file(tmp_path, 12, 5)
    query = write(tmp_path, "q.json", {"subspace": {"indices": [1]}, "initial": {"index": 12}})
    result = runner.invoke(main, [command, path, *([query] if command == "hit" else []), "--json"])
    assert result.exit_code == 0, result.output
    (t,) = built
    assert isinstance(t, hittime.StochasticMap)
    assert "rep" not in t.__dict__
    assert linalg_calls
    assert not [call for call in linalg_calls if call[0].startswith("complex") and call[1] == (144, 144)]


def test_a_vector_target_on_a_chain_agrees_with_classical_mhtf(runner, tmp_path):
    """A vector target takes the frame form, from the rep built on reading; an index target does not."""
    path = random_chain_file(tmp_path, 5, 8)
    classical = runner.invoke(main, ["classical", "mhtf", path, "-i", "4", "-j", "2", "--json"])
    assert classical.exit_code == 0, classical.output
    for subspace in ({"vectors": [[0, -3, 0, 0, 0]]}, {"indices": [2]}):
        query = write(tmp_path, "q.json", {"subspace": subspace, "initial": {"index": 4}})
        result = runner.invoke(main, ["hit", path, query, "--json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["tau"] == pytest.approx(json.loads(classical.output)["tau"], rel=1e-12)


def test_a_spanning_vector_beyond_the_double_range_spans_its_direction(runner, tmp_path):
    """Its largest singular value overflows; divided by its largest entry it is [1, -1], bit for bit."""
    answers = []
    for scale in (1.0, 1.7e308):
        query = write(tmp_path, "q.json", {"subspace": {"vectors": [[scale, -scale]]}, "initial": {"index": 1}})
        result = runner.invoke(main, ["hit", qubit_map_file(tmp_path), query, "--json"])
        assert result.exit_code == 0, result.output
        answers.append(result.output)
    assert answers[0] == answers[1]
    assert json.loads(answers[1])["tau"] == pytest.approx(2.0, rel=1e-14)


def test_a_tolerance_that_collapses_every_singular_value_exits_3(runner, tmp_path):
    """atol + rtol >= 1 keeps no singular value above (atol + rtol) times the largest."""
    query = write(tmp_path, "q.json", {"subspace": {"vectors": [[1, -1]]}, "initial": {"index": 1}, "tol": 0.6})
    result = runner.invoke(main, ["hit", qubit_map_file(tmp_path), query])
    assert (result.exit_code, result.stdout, result.stderr) == (
        3, "", "error: spanning vectors keep no direction under atol 0.6 and rtol 0.6\n"
    )
