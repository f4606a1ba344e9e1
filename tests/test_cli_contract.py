"""The command-line contract: byte-pinned output, the exit-code policy, the
shared-flag checks and the refusal of non-finite input.

Files are written to a temporary working directory and named relatively, so
messages that quote a file name are stable.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

import hittime.cli
from hittime import (
    NonConvergenceError,
    NumericError,
    PreconditionError,
    Tolerance,
    ValidationError,
    build_chain,
    classical_mhtf_distribution,
    classical_monte_carlo,
)
from hittime.cli import main

P3 = [[0.2, 0.5, 0.3], [0.3, 0.1, 0.6], [0.5, 0.4, 0.1]]  # column-stochastic
S3 = 1 / math.sqrt(3)
R2 = 1 / math.sqrt(2)


def _query(**fields):
    return {"subspace": {"indices": [2]}, "initial": {"index": 1}, **fields}


FILES = {
    "row.json": {"dim": 3, "stochastic": np.array(P3).T.tolist(), "orientation": "row"},
    "c3.json": {"dim": 3, "stochastic": P3},
    "chain2.json": {"dim": 2, "stochastic": [[0.5, 0.5], [0.5, 0.5]]},
    "red.json": {"dim": 2, "stochastic": [[1.0, 0.0], [0.0, 1.0]]},
    "slow.json": {"dim": 2, "stochastic": [[1 - 5e-10, 5e-10], [5e-10, 1 - 5e-10]]},
    "qubit.json": {"dim": 2, "kraus": [[[[S3, 0], [S3, 0]], [[0, 0], [S3, 0]]],
                                       [[[S3, 0], [0, 0]], [[-S3, 0], [S3, 0]]]]},
    "q_index.json": {"subspace": {"indices": [2]}, "initial": {"index": 1}},
    "q_inside.json": {"subspace": {"indices": [2]}, "initial": {"index": 2},
                      "method": "mhtf-orthogonal"},
    "q_qubit.json": {"subspace": {"vectors": [[[R2, 0], [R2, 0]]]},
                     "initial": {"vector": [[R2, 0], [-R2, 0]]}},
    # queries that do not fit a 2-state map
    "q_index9.json": {"subspace": {"indices": [2]}, "initial": {"index": 9}},
    "q_vector3.json": {"subspace": {"indices": [2]}, "initial": {"vector": [1, 0, 0]}},
    "q_dist3.json": {"subspace": {"indices": [2]}, "initial": {"distribution": [1, 0, 0]}},
    "q_density3.json": {"subspace": {"indices": [2]},
                        "initial": {"density": np.eye(3).tolist()}},
    "q_basis5.json": {"subspace": {"indices": [5]}, "initial": {"index": 1}},
    "q_text_tol.json": {"subspace": {"indices": [2]}, "initial": {"index": 1},
                        "tol": {"atol": "0.5", "rtol": True}},
    "q_two.json": {"queries": [
        {"subspace": {"indices": [3]}, "initial": {"index": 1}, "method": "direct"},
        {"subspace": {"indices": [1, 2]}, "initial": {"distribution": [0, 0, 1]}, "method": "mhtf"},
    ]},
    # X -> Tr(X) I / 4 + X^T / 2 on row-stacked vecs: positive, not completely positive
    "half_transpose.json": {"dim": 2, "superoperator": [
        [0.75, 0, 0, 0.25], [0, 0, 0.5, 0], [0, 0.5, 0, 0], [0.25, 0, 0, 0.75]]},
    # X -> diag(X) / 2 + Tr(X) psi psi* / 2, psi = (|0> + i|1>) / sqrt(2), from
    # dyadic Kraus operators; pi = [[1/2, -i/4], [i/4, 1/2]]
    "complex_pi.json": {"dim": 2, "kraus": [
        [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]], [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
        [[[0.5, 0], [0, 0]], [[0, 0.5], [0, 0]]], [[[0, 0], [0.5, 0]], [[0, 0], [0, 0.5]]]]},
    # malformed files, each refused by the parser or the realization of a query
    "empty_kraus.json": {"dim": 2, "kraus": []},
    "list.json": [{"dim": 2}],
    "complex_chain.json": {"dim": 2, "stochastic": [[[0.5, 0.1], 0.5], [0.5, 0.5]]},
    "q_string.json": "query",
    "q_negative_tol.json": _query(tol=-1),
    "q_tol_field.json": _query(tol={"atol": 1e-9, "eps": 1}),
    "q_string_tol.json": _query(tol="1e-9"),
    "q_number.json": {"queries": [1]},
    "q_no_vectors.json": _query(subspace={"vectors": []}),
    "q_float_index.json": _query(subspace={"indices": [1.5]}),
    "q_span.json": _query(subspace={"span": [1]}),
    "q_state.json": _query(initial={"state": 1}),
    "q_complex_dist.json": _query(initial={"distribution": [[0.5, 0.1], 0.5]}),
    "q_index0.json": _query(initial={"index": 0}),
    "q_extra.json": {"queries": [_query()], "method": "direct"},
    "q_zero_vector.json": _query(initial={"vector": [0, 0]}),
    "q_negative_dist.json": _query(initial={"distribution": [1.5, -0.5]}),
    "q_zero_dist.json": _query(initial={"distribution": [0, 0]}),
    "q_trace.json": _query(initial={"density": [[-0.5, 0], [0, 0.25]]}),
}
NON_FINITE = {
    "q_nan_vectors.json": '{"subspace": {"vectors": [[NaN, 1]]}, "initial": {"index": 1}}',
    "q_nan_vector.json":
        '{"subspace": {"vectors": [[1, 1]]}, "initial": {"vector": [NaN, 1]}}',
    "q_inf_distribution.json":
        '{"subspace": {"vectors": [[1, 1]]}, "initial": {"distribution": [Infinity, 1]}}',
    "q_nan_tol.json": '{"subspace": {"vectors": [[1, 1]]}, "initial": {"index": 1}, "tol": NaN}',
    "nan_map.json": '{"dim": 2, "stochastic": [[NaN, 0.5], [0.5, 0.5]]}',
    # decimals beyond the double range, which json reads as inf
    "q_big_vector.json":
        '{"subspace": {"vectors": [[1, 1]]}, "initial": {"vector": [1e400, 1]}}',
    "q_big_vectors.json":
        '{"subspace": {"vectors": [[[1, 0], [1, -1e400]]]}, "initial": {"index": 1}}',
    "big_map.json": '{"dim": 2, "kraus": [[[1, 0], [0, 1e400]]]}',
    "q_big_tol.json": '{"subspace": {"indices": [1]}, "initial": {"index": 2}, "tol": 1e400}',
}


@pytest.fixture()
def run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, payload in FILES.items():
        (tmp_path / name).write_text(json.dumps(payload))
    for name, text in NON_FINITE.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "broken.json").write_text("{ not json")
    runner = CliRunner()

    def invoke(*argv):
        result = runner.invoke(main, list(argv))
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            result.exception
        )
        return result.exit_code, result.stdout, result.stderr
    return invoke


# ------------------------------------------------------------ byte-pinned output

MC = ("--trials", "400", "--seed", "7")

PINNED = [
    (("classical", "mhtf", "row.json", "-i", "1", "-j", "3", *MC),
     "command                mhtf\n"
     "tau                    2.10526315789\n"
     "monte carlo            2.0775 (std error 0.0834184089538, trials 400, seed 7)\n"),
    (("classical", "mhtf", "row.json", "-i", "1", "-j", "3", *MC, "--json"),
     '{\n  "command": "mhtf",\n  "i": 1,\n  "j": 3,\n  "monte_carlo": {\n'
     '    "mean": 2.0775,\n    "seed": 7,\n    "std_error": 0.0834184089537852,\n'
     '    "trials": 400\n  },\n  "tau": 2.1052631578947367\n}\n'),
    (("classical", "kac", "row.json", "-j", "2", *MC),
     "command                kac\n"
     "tau                    3\n"
     "monte carlo            2.9925 (std error 0.0871786077494, trials 400, seed 7)\n"),
    (("classical", "kac", "row.json", "-j", "2", *MC, "--json"),
     '{\n  "command": "kac",\n  "j": 2,\n  "monte_carlo": {\n'
     '    "mean": 2.9925,\n    "seed": 7,\n    "std_error": 0.08717860774939462,\n'
     '    "trials": 400\n  },\n  "tau": 3.0\n}\n'),
    (("classical", "dist", "row.json", "-x", "0.25,0.25,0.5", "-j", "1", *MC),
     "command                dist\n"
     "tau                    2.63596491228\n"
     "monte carlo            2.6375 (std error 0.0990695276221, trials 400, seed 7)\n"),
    (("classical", "dist", "row.json", "-x", "0.25,0.25,0.5", "-j", "1", *MC, "--json"),
     '{\n  "command": "dist",\n  "j": 1,\n  "monte_carlo": {\n'
     '    "mean": 2.6375,\n    "seed": 7,\n    "std_error": 0.09906952762206019,\n'
     '    "trials": 400\n  },\n  "tau": 2.6359649122807016,\n'
     '  "x": [\n    0.25,\n    0.25,\n    0.5\n  ]\n}\n'),
    (("classical", "subset", "row.json", "-i", "1", "-S", "2,3", *MC),
     "command                subset\n"
     "tau                    1.25\n"
     "return times:\n"
     "  state 2              1.625\n"
     "  state 3              1.375\n"
     "anchor independence    0\n"
     "monte carlo            1.2475 (std error 0.025093496846, trials 400, seed 7)\n"),
    (("classical", "subset", "row.json", "-i", "1", "-S", "2,3", *MC, "--json"),
     '{\n  "command": "subset",\n  "i": 1,\n  "j_independence_residual": 0.0,\n'
     '  "monte_carlo": {\n    "mean": 1.2475,\n    "seed": 7,\n'
     '    "std_error": 0.02509349684599378,\n    "trials": 400\n  },\n'
     '  "return_times": {\n    "2": 1.625,\n    "3": 1.375\n  },\n'
     '  "subset": [\n    2,\n    3\n  ],\n  "tau": 1.2499999999999998\n}\n'),
    (("hit", "c3.json", "q_two.json"),
     "query 1:\n"
     "  method                 direct\n"
     "  tau                    2.10526315789\n"
     "    direct               2.10526315789\n"
     "  hitting probability    1 (residual 0)\n"
     "  normalization          1 (basis state 1)\n"
     "  spectral radius (QT)   0.666666666667\n"
     "  condition estimate     6\n"
     "query 2:\n"
     "  method                 mhtf\n"
     "  tau                    1.11111111111\n"
     "    mhtf                 1.11111111111\n"
     "  hitting probability    1 (residual 0)\n"
     "  normalization          1 (diagonal mixture)\n"
     "  spectral radius (QT)   0.357142857143\n"
     "  condition estimate     3.11111111111\n"),
    (("validate", "half_transpose.json"),
     "map file: half_transpose.json\n"
     "  dim                  2\n"
     "  provenance           raw\n"
     "  trace preserving     yes (residual 0)\n"
     "  completely positive  no (min Choi eigenvalue -0.25)\n"
     "  positivity sampling  pass (0 failures in 1000 samples, worst eigenvalue 0.25)\n"
     "  irreducibility       certified_irreducible\n"
     "  fixed space dim      1\n"
     "  min eigenvalue of pi 0.5\n"
     "  invariant state:\n"
     "    [0.5, 0]\n"
     "    [0, 0.5]\n"),
    (("validate", "complex_pi.json"),
     "map file: complex_pi.json\n"
     "  dim                  2\n"
     "  provenance           kraus\n"
     "  trace preserving     yes (residual 0)\n"
     "  completely positive  yes (min Choi eigenvalue 0.146446609407)\n"
     "  irreducibility       certified_irreducible\n"
     "  fixed space dim      1\n"
     "  min eigenvalue of pi 0.25\n"
     "  invariant state:\n"
     "    [0.5, 0-0.25j]\n"
     "    [0+0.25j, 0.5]\n"),
    (("validate", "chain2.json"),
     "map file: chain2.json\n"
     "  dim                  2\n"
     "  provenance           stochastic\n"
     "  trace preserving     yes (residual 0)\n"
     "  completely positive  yes (min Choi eigenvalue 0.5)\n"
     "  irreducibility       certified_irreducible\n"
     "  fixed space dim      1\n"
     "  min eigenvalue of pi 0.5\n"
     "  invariant state:\n"
     "    [0.5, 0]\n"
     "    [0, 0.5]\n"),
]


@pytest.mark.parametrize("argv,stdout", PINNED, ids=[" ".join(argv) for argv, _ in PINNED])
def test_output_is_byte_pinned(run, argv, stdout):
    assert run(*argv) == (0, stdout, "")


# ------------------------------------------------------------- exit-code policy

def _raise(error):
    def raising(*args, **kwargs):
        raise error
    return raising


@pytest.mark.parametrize("argv,patch,code,stderr", [
    (("validate", "broken.json"), None, 1,
     "broken.json: invalid JSON at line 1, column 3: "
     "Expecting property name enclosed in double quotes"),
    (("validate", "qubit.json"), ("invariant_state", PreconditionError("stage map")), 2,
     "stage map"),
    (("validate", "qubit.json"), ("invariant_state", NumericError("numeric")), 5,
     "numeric"),
    (("hit", "broken.json", "q_index.json"), None, 1,
     "broken.json: invalid JSON at line 1, column 3: "
     "Expecting property name enclosed in double quotes"),
    (("hit", "red.json", "q_index.json"), None, 2,
     "map is not certified irreducible (verdict: not_irreducible under atol 1e-10 and rtol "
     "1e-10); a smaller tolerance (--tol) may certify a nearly reducible map"),
    (("hit", "chain2.json", "q_inside.json"), None, 3,
     "initial state violates its support precondition (residual 1.000e+00)"),
    # direct and mhtf answer p = 5e-10; the series of method all refuses at its cap
    (("hit", "slow.json", "q_index.json"), None, 5,
     "series did not reach the target accuracy in 1000000 terms "
     "(spectral radius 0.9999999995)"),
    (("classical", "kac", "broken.json", "-j", "1"), None, 1,
     "broken.json: invalid JSON at line 1, column 3: "
     "Expecting property name enclosed in double quotes"),
    (("classical", "kac", "qubit.json", "-j", "1"), None, 2,
     "classical commands require a stochastic map file"),
    (("classical", "dist", "red.json", "-x", "0.5,0.5", "-j", "1"), None, 2,
     "chain is not irreducible: stationary space has dimension 2"),
    (("classical", "mhtf", "c3.json", "-i", "1", "-j", "1"), None, 3,
     "initial and target state coincide; use kac_return_time for mean return times"),
    (("classical", "subset", "c3.json", "-i", "1", "-S", "2,x"), None, 1,
     "cannot parse subset '2,x'"),
    (("classical", "mhtf", "c3.json", "-i", "1", "-j", "2", "--trials", "5"),
     ("classical_monte_carlo", NonConvergenceError("step cap")), 5, "step cap"),
    # a query that does not fit the map exits 3, and states count from 1
    (("hit", "chain2.json", "q_index9.json"), None, 3, "initial index 9 exceeds dimension 2"),
    (("hit", "chain2.json", "q_vector3.json"), None, 3,
     "initial vector has length 3, expected 2"),
    (("hit", "chain2.json", "q_dist3.json"), None, 3,
     "initial distribution has length 3, expected 2"),
    (("hit", "chain2.json", "q_density3.json"), None, 3,
     "initial density has shape (3, 3), expected (2, 2)"),
    (("hit", "chain2.json", "q_basis5.json"), None, 3, "basis indices must lie in [1, 2]"),
    (("classical", "mhtf", "chain2.json", "-i", "1", "-j", "9"), None, 3,
     "target state must lie in [1, 2], got 9"),
    (("classical", "mhtf", "chain2.json", "-i", "0", "-j", "9"), None, 3,
     "initial state must lie in [1, 2], got 0"),
    (("classical", "kac", "chain2.json", "-j", "3"), None, 3,
     "state must lie in [1, 2], got 3"),
    (("classical", "dist", "chain2.json", "-x", "0.5,0.5", "-j", "0"), None, 3,
     "target state must lie in [1, 2], got 0"),
    (("classical", "subset", "chain2.json", "-i", "1", "-S", "0"), None, 3,
     "subset state must lie in [1, 2], got 0"),
    # the fundamental map is judged with the map, before any query is answered
    (("hit", "chain2.json", "q_basis5.json"), ("invariant_state", NumericError("numeric")), 5,
     "numeric"),
    (("hit", "chain2.json", "q_text_tol.json"), None, 1,
     "q_text_tol.json: tol.atol: expected a number, got '0.5'"),
    # numpy seeds only non-negative integers
    (("classical", "mhtf", "c3.json", "-i", "1", "-j", "2", "--trials", "5", "--seed", "-1"),
     None, 3, "seed must be non-negative"),
    (("selftest", "--seed", "-1"), None, 1, "--seed must be non-negative"),
    # malformed files exit 1
    (("validate", "empty_kraus.json"), None, 1,
     "empty_kraus.json: kraus: expected a nonempty array of matrices"),
    (("validate", "list.json"), None, 1, "list.json: top-level value must be an object"),
    (("validate", "complex_chain.json"), None, 1,
     "complex_chain.json: stochastic: matrix must be real"),
    (("hit", "chain2.json", "q_string.json"), None, 1,
     "q_string.json: top-level value must be an object"),
    (("hit", "chain2.json", "q_negative_tol.json"), None, 1,
     "q_negative_tol.json: tol: tolerance must be non-negative"),
    (("hit", "chain2.json", "q_tol_field.json"), None, 1,
     "q_tol_field.json: tol: unknown tolerance fields ['eps']"),
    (("hit", "chain2.json", "q_string_tol.json"), None, 1,
     "q_string_tol.json: tol: expected a number or an object with 'atol'/'rtol'"),
    (("hit", "chain2.json", "q_number.json"), None, 1,
     "q_number.json: queries[0]: each query must be an object"),
    (("hit", "chain2.json", "q_no_vectors.json"), None, 1,
     "q_no_vectors.json: subspace: expected a nonempty array of vectors"),
    (("hit", "chain2.json", "q_float_index.json"), None, 1,
     "q_float_index.json: subspace: expected a nonempty array of 1-based integers"),
    (("hit", "chain2.json", "q_span.json"), None, 1,
     "q_span.json: subspace: expected an object with 'vectors' or 'indices'"),
    (("hit", "chain2.json", "q_state.json"), None, 1,
     "q_state.json: initial: unknown initial kind 'state'"),
    (("hit", "chain2.json", "q_complex_dist.json"), None, 1,
     "q_complex_dist.json: initial.distribution: distribution must be real"),
    (("hit", "chain2.json", "q_index0.json"), None, 1,
     "q_index0.json: initial.index: expected a 1-based state index"),
    (("hit", "chain2.json", "q_extra.json"), None, 1,
     "q_extra.json: unknown top-level fields ['method']"),
    (("hit", "chain2.json", "q_zero_vector.json"), None, 1, "initial vector must be nonzero"),
    (("hit", "chain2.json", "q_negative_dist.json"), None, 1,
     "initial distribution must be non-negative"),
    (("hit", "chain2.json", "q_zero_dist.json"), None, 1,
     "initial distribution must have positive mass"),
    (("hit", "chain2.json", "q_trace.json"), None, 1, "initial density must have positive trace"),
])
def test_exit_policy(run, monkeypatch, argv, patch, code, stderr):
    if patch is not None:
        monkeypatch.setattr(hittime.cli, patch[0], _raise(patch[1]))
    assert run(*argv) == (code, "", f"error: {stderr}\n")


# ------------------------------------------------------------------ shared flags

SIX_COMMANDS = [
    ("validate", "qubit.json"),
    ("hit", "qubit.json", "q_qubit.json"),
    ("classical", "mhtf", "c3.json", "-i", "1", "-j", "2"),
    ("classical", "kac", "c3.json", "-j", "2"),
    ("classical", "dist", "c3.json", "-x", "0.25,0.25,0.5", "-j", "1"),
    ("classical", "subset", "c3.json", "-i", "1", "-S", "2,3"),
]


@pytest.mark.parametrize("argv", SIX_COMMANDS, ids=lambda v: " ".join(v[:2]))
def test_negative_digits_exits_1(run, argv):
    assert run(*argv, "--digits", "-1") == (1, "", "error: --digits must be non-negative\n")


@pytest.mark.parametrize("argv", SIX_COMMANDS, ids=lambda v: " ".join(v[:2]))
def test_zero_digits_is_valid(run, argv):
    code, stdout, _ = run(*argv, "--digits", "0")
    assert code == 0 and stdout


@pytest.mark.parametrize("argv", SIX_COMMANDS[:3], ids=lambda v: " ".join(v[:2]))
def test_nan_tol_flag_exits_1(run, argv):
    assert run(*argv, "--tol", "nan") == (1, "", "error: --tol must be non-negative\n")


# ------------------------------------------------------------- non-finite input

@pytest.mark.parametrize("query,constant", [
    ("q_nan_vectors.json", "NaN"),
    ("q_nan_vector.json", "NaN"),
    ("q_inf_distribution.json", "Infinity"),
    ("q_nan_tol.json", "NaN"),
])
def test_non_finite_query_constant_exits_1(run, query, constant):
    assert run("hit", "qubit.json", query) == (
        1, "", f"error: {query}: non-finite number {constant} is not allowed\n"
    )


def test_non_finite_map_constant_exits_1(run):
    assert run("validate", "nan_map.json") == (
        1, "", "error: nan_map.json: non-finite number NaN is not allowed\n"
    )


@pytest.mark.parametrize("argv,where", [
    (("hit", "qubit.json", "q_big_vector.json"), "q_big_vector.json: initial.vector[0]"),
    (("hit", "qubit.json", "q_big_vectors.json"),
     "q_big_vectors.json: subspace.vectors[0][1]"),
    (("validate", "big_map.json"), "big_map.json: kraus[0][1][1]"),
    (("classical", "kac", "big_map.json", "-j", "1"), "big_map.json: kraus[0][1][1]"),
    (("hit", "qubit.json", "q_big_tol.json"), "q_big_tol.json: tol"),
])
def test_decimal_beyond_double_range_exits_1(run, argv, where):
    assert run(*argv) == (
        1, "", f"error: {where}: number is too large for a double-precision float\n"
    )


@pytest.mark.parametrize("x_spec", ["nan,0.5,0.5", "inf,0,0"])
@pytest.mark.parametrize("trials", [(), ("--trials", "10")])
def test_non_finite_distribution_option_exits_3(run, x_spec, trials):
    assert run("classical", "dist", "c3.json", "-x", x_spec, "-j", "1", *trials) == (
        3, "", "error: initial distribution must be non-negative and sum to 1\n"
    )


def test_tolerance_rejects_nan():
    with pytest.raises(ValueError):
        Tolerance(float("nan"), 1e-10)
    with pytest.raises(ValueError):
        Tolerance(1e-10, float("nan"))


@pytest.mark.parametrize("x", [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [np.inf, -np.inf, 1.0]])
def test_distribution_checks_reject_non_finite(x):
    chain = build_chain(np.array(P3))
    with pytest.raises(ValidationError):
        classical_mhtf_distribution(chain, x, 0)
    with pytest.raises(ValidationError):
        classical_monte_carlo(chain.p, x, [0], 10, 0)
