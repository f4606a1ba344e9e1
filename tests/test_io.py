import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

import hittime.io
from hittime import (
    DEFAULT_TOL,
    DimensionError,
    ParseError,
    Tolerance,
    ValidationError,
    apply,
    pure_density,
)
from hittime.cli import main
from hittime.io import (
    build_superoperator,
    load_map_spec,
    load_query_file,
    realize_initial,
    realize_subspace,
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def qubit_map_payload():
    s = 1 / math.sqrt(3)
    return {
        "dim": 2,
        "kraus": [
            [[[s, 0], [s, 0]], [[0, 0], [s, 0]]],
            [[[s, 0], [0, 0]], [[-s, 0], [s, 0]]],
        ],
    }


# ------------------------------------------------------------------ map files

def test_load_kraus_map(tmp_path, qubit_channel):
    path = write(tmp_path, "map.json", qubit_map_payload())
    spec = load_map_spec(path)
    assert spec.kind == "kraus"
    channel = build_superoperator(spec)
    assert_allclose(channel.rep, qubit_channel.rep, atol=1e-12)


def test_bare_numbers_are_real(tmp_path):
    payload = {"dim": 2, "kraus": [[[1, 0], [0, 1]]]}
    spec = load_map_spec(write(tmp_path, "map.json", payload))
    assert_allclose(spec.kraus[0], np.eye(2))


def test_load_stochastic_orientation(tmp_path):
    p = [[0.9, 0.2], [0.1, 0.8]]
    column = write(tmp_path, "col.json", {"dim": 2, "stochastic": p})
    row = write(
        tmp_path,
        "row.json",
        {"dim": 2, "stochastic": np.array(p).T.tolist(), "orientation": "row"},
    )
    chan_col = build_superoperator(load_map_spec(column))
    chan_row = build_superoperator(load_map_spec(row))
    assert_allclose(chan_col.rep, chan_row.rep, atol=1e-14)


def test_row_stochastic_flag_overrides(tmp_path):
    p_row = [[0.9, 0.1], [0.2, 0.8]]  # rows sum to 1
    path = write(tmp_path, "map.json", {"dim": 2, "stochastic": p_row})
    channel = build_superoperator(load_map_spec(path), row_stochastic=True)
    # The diagonal block of the embedding, rep[(i, i), (j, j)], is P[i, j].
    diagonal = np.arange(2) * 3
    assert_allclose(channel.rep[np.ix_(diagonal, diagonal)], np.array(p_row).T)


def test_load_superoperator(tmp_path):
    path = write(tmp_path, "map.json", {"dim": 2, "superoperator": np.eye(4).tolist()})
    channel = build_superoperator(load_map_spec(path))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 2))
    assert_allclose(apply(channel, x), x)


@pytest.mark.parametrize(
    "payload,needle",
    [
        ({"kraus": [[[1]]]}, "dim"),
        ({"dim": 2}, "exactly one"),
        ({"dim": 2, "kraus": [[[1, 0], [0, 1]]], "stochastic": [[1]]}, "exactly one"),
        ({"dim": 2, "kraus": [[[1, 0], [0, "x"]]]}, "kraus"),
        ({"dim": 2, "kraus": [[[1, 0], [0]]]}, "row length"),
        ({"dim": 2, "kraus": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}, "shape"),
        ({"dim": 2, "stochastic": [[0.5, 0.5], [0.5, 0.5]], "orientation": "up"},
         "orientation"),
        ({"dim": 2, "superoperator": np.eye(3).tolist()}, "shape"),
        ({"dim": 0, "kraus": [[[1]]]}, "positive integer"),
    ],
)
def test_map_file_errors(tmp_path, payload, needle):
    path = write(tmp_path, "bad.json", payload)
    with pytest.raises(ParseError, match=needle):
        load_map_spec(path)


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n  "kraus": [[[1, 0], [0, 1]]]')
    with pytest.raises(ParseError, match="line"):
        load_map_spec(str(path))


def test_missing_file_is_parse_error():
    with pytest.raises(ParseError, match="cannot read"):
        load_map_spec("/nonexistent/map.json")


# ---------------------------------------------------------------- query files

def test_single_query_with_vectors(tmp_path):
    r = 1 / math.sqrt(2)
    payload = {
        "subspace": {"vectors": [[[r, 0], [r, 0]]]},
        "initial": {"vector": [[r, 0], [-r, 0]]},
        "method": "direct",
    }
    queries = load_query_file(write(tmp_path, "q.json", payload))
    assert len(queries) == 1
    query = queries[0]
    assert query.method == "direct"
    sub = realize_subspace(query, 2)
    assert sub.rank == 1
    initial = realize_initial(query, 2)
    assert initial.normalization == pytest.approx(1.0)


def test_query_indices_are_one_based(tmp_path):
    payload = {"subspace": {"indices": [3, 4]}, "initial": {"index": 1}}
    query = load_query_file(write(tmp_path, "q.json", payload))[0]
    sub = realize_subspace(query, 4)
    assert_allclose(sub.projector_p, np.diag([0.0, 0.0, 1.0, 1.0]))
    initial = realize_initial(query, 4)
    assert_allclose(initial.state.matrix, np.diag([1.0, 0.0, 0.0, 0.0]))


def test_query_batch_preserves_order(tmp_path):
    payload = {
        "queries": [
            {"subspace": {"indices": [2]}, "initial": {"index": 1}, "method": "direct"},
            {"subspace": {"indices": [1]}, "initial": {"index": 2}, "method": "series"},
        ]
    }
    queries = load_query_file(write(tmp_path, "q.json", payload))
    assert [q.method for q in queries] == ["direct", "series"]
    assert [q.subspace_indices for q in queries] == [(2,), (1,)]


def test_query_normalization_reported(tmp_path):
    payload = {
        "queries": [
            {"subspace": {"indices": [2]}, "initial": {"vector": [2, 0]}},
            {"subspace": {"indices": [2]}, "initial": {"distribution": [1, 3]}},
            {
                "subspace": {"indices": [2]},
                "initial": {"density": [[2, 0], [0, 2]]},
            },
        ]
    }
    queries = load_query_file(write(tmp_path, "q.json", payload))
    vec_init = realize_initial(queries[0], 2)
    assert vec_init.normalization == pytest.approx(2.0)
    assert_allclose(vec_init.state.matrix, np.diag([1.0, 0.0]))
    dist_init = realize_initial(queries[1], 2)
    assert dist_init.normalization == pytest.approx(4.0)
    assert_allclose(dist_init.state.matrix, np.diag([0.25, 0.75]))
    dens_init = realize_initial(queries[2], 2)
    assert dens_init.normalization == pytest.approx(4.0)
    assert_allclose(dens_init.state.matrix, np.eye(2) / 2)


def test_query_tolerance_forms(tmp_path):
    payload = {
        "queries": [
            {"subspace": {"indices": [2]}, "initial": {"index": 1}, "tol": 1e-8},
            {
                "subspace": {"indices": [2]},
                "initial": {"index": 1},
                "tol": {"atol": 1e-9, "rtol": 1e-7},
            },
            {"subspace": {"indices": [2]}, "initial": {"index": 1}, "tol": {"rtol": 1e-7}},
        ]
    }
    queries = load_query_file(write(tmp_path, "q.json", payload))
    assert queries[0].tol == Tolerance(1e-8, 1e-8)
    assert queries[1].tol == Tolerance(1e-9, 1e-7)
    assert queries[2].tol == Tolerance(DEFAULT_TOL.atol, 1e-7)


@pytest.mark.parametrize("field", ["atol", "rtol"])
@pytest.mark.parametrize("value", [True, "0.5", None, [1e-9]])
def test_query_tolerance_fields_must_be_numbers(tmp_path, field, value):
    payload = {"subspace": {"indices": [2]}, "initial": {"index": 1}, "tol": {field: value}}
    with pytest.raises(ParseError, match=rf"tol\.{field}: expected a number, got "):
        load_query_file(write(tmp_path, "q.json", payload))


@pytest.mark.parametrize(
    "payload,needle",
    [
        ({"initial": {"index": 1}}, "subspace"),
        ({"subspace": {"indices": [1]}}, "initial"),
        ({"subspace": {"indices": [0]}, "initial": {"index": 1}}, "1-based"),
        ({"subspace": {"indices": [1]}, "initial": {"index": 1, "vector": [1]}},
         "exactly one"),
        ({"subspace": {"indices": [1]}, "initial": {"index": 1}, "method": "magic"},
         "method"),
        ({"subspace": {"indices": [1]}, "initial": {"index": 1}, "extra": 1},
         "unknown query fields"),
        ({"queries": []}, "nonempty"),
    ],
)
def test_query_file_errors(tmp_path, payload, needle):
    path = write(tmp_path, "bad.json", payload)
    with pytest.raises(ParseError, match=needle):
        load_query_file(path)


def test_realize_initial_dimension_checks(tmp_path):
    payload = {"subspace": {"indices": [2]}, "initial": {"vector": [1, 0, 0]}}
    query = load_query_file(write(tmp_path, "q.json", payload))[0]
    with pytest.raises(DimensionError, match="length"):
        realize_initial(query, 2)
    payload = {"subspace": {"indices": [2]}, "initial": {"index": 9}}
    query = load_query_file(write(tmp_path, "q.json", payload))[0]
    with pytest.raises(DimensionError, match="exceeds"):
        realize_initial(query, 2)


# ------------------------------------- initial states beyond the norm's range

def test_initial_vector_whose_norm_overflows(tmp_path):
    payload = {"subspace": {"indices": [1]}, "initial": {"vector": [1e200, 1e200]}}
    initial = realize_initial(load_query_file(write(tmp_path, "q.json", payload))[0], 2)
    assert initial.normalization == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
    assert_allclose(initial.state.matrix, np.full((2, 2), 0.5), rtol=0, atol=1e-15)
    payload["initial"] = {"vector": [1.5e308, 1.5e308]}  # the norm itself is out of range
    query = load_query_file(write(tmp_path, "q.json", payload))[0]
    with pytest.raises(ParseError, match="initial vector norm: number is too large"):
        realize_initial(query, 2)


def test_initial_vector_whose_norm_underflows(tmp_path):
    payload = {"subspace": {"indices": [1]}, "initial": {"vector": [0, 1e-200]}}
    initial = realize_initial(load_query_file(write(tmp_path, "q.json", payload))[0], 2)
    assert initial.normalization == pytest.approx(1e-200, rel=1e-15)
    assert_allclose(initial.state.matrix, np.diag([0.0, 1.0]), rtol=0, atol=1e-15)


def test_initial_distribution_whose_mass_overflows(tmp_path):
    payload = {"subspace": {"indices": [1]}, "initial": {"distribution": [1e308, 1e308]}}
    query = load_query_file(write(tmp_path, "q.json", payload))[0]
    with pytest.raises(ParseError, match="initial distribution mass: number is too large"):
        realize_initial(query, 2)


def test_pure_density_of_a_vector_whose_norm_overflows():
    assert_allclose(pure_density([1e200, 1e200]).matrix, np.full((2, 2), 0.5), rtol=0, atol=1e-15)
    assert_allclose(pure_density([0, 1e-200]).matrix, np.diag([0.0, 1.0]), rtol=0, atol=1e-15)
    with pytest.raises(ValidationError, match="norm inf"):
        pure_density([1.5e308, 1.5e308])


def test_hit_record_stays_valid_json_for_huge_initial_states(tmp_path):
    map_path = write(tmp_path, "map.json", qubit_map_payload())
    huge = {"subspace": {"indices": [1]}, "initial": {"vector": [1e200, 1e200]}}
    result = CliRunner().invoke(main, ["hit", map_path, write(tmp_path, "q.json", huge), "--json"])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output, parse_constant=pytest.fail)
    assert record["normalization"]["factor"] == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
    huge["initial"] = {"distribution": [1e308, 1e308]}
    result = CliRunner().invoke(main, ["hit", map_path, write(tmp_path, "q.json", huge), "--json"])
    assert result.exit_code == 1
    assert "initial distribution mass" in result.output


# ---------------------------------------------------- whole-array fast path

def _random_matrix_node(rng, pairs: bool):
    rows, cols = (int(k) for k in rng.integers(1, 7, size=2))

    def number():
        kind = rng.integers(4)
        if kind == 0:
            return int(rng.integers(-2**62, 2**62))
        if kind == 1:
            return int(rng.integers(-5, 6))
        if kind == 2:
            return -0.0
        return float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))

    if pairs:
        return [[[number(), number()] for _ in range(cols)] for _ in range(rows)]
    return [[number() for _ in range(cols)] for _ in range(rows)]


def _element_wise(monkeypatch, parse, node):
    with monkeypatch.context() as patch:
        patch.setattr(hittime.io, "_fast_matrix", lambda node: None)
        return parse(node, "m")


@pytest.mark.parametrize("seed", range(6))
def test_fast_matrix_parse_matches_element_wise(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    for pairs in (False, True):
        node = _random_matrix_node(rng, pairs)
        assert hittime.io._fast_matrix(node) is not None
        parsers = [hittime.io._parse_complex_matrix]
        if not pairs:
            parsers.append(hittime.io._parse_real_matrix)
        for parse in parsers:
            fast = parse(node, "m")
            slow = _element_wise(monkeypatch, parse, node)
            assert fast.dtype == slow.dtype and fast.shape == slow.shape
            assert fast.tobytes() == slow.tobytes()  # also tells -0.0 from 0.0


def test_real_matrix_of_zero_imaginary_pairs(monkeypatch):
    node = [[[1, 0], [-0.0, 0.0]], [[2.5, -0.0], [3, 0]]]
    fast = hittime.io._parse_real_matrix(node, "m")
    slow = _element_wise(monkeypatch, hittime.io._parse_real_matrix, node)
    assert fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize(
    "node",
    [
        [[1, 2], [3]],
        [[1, True], [0, 1]],
        [[1, "2"], [3, 4]],
        [[1, None]],
        [[]],
        [[[1, 2, 3]]],
        [[[1, 0], 2]],
        [[[1, 0]], [[1, 0], [0, 1]]],
        [[[]]],
        [[10**400]],
        [1, 2],
        [],
    ],
)
def test_malformed_matrix_takes_element_wise_path(node):
    assert hittime.io._fast_matrix(node) is None


HUGE = 10**400  # a JSON integer beyond the double range


@pytest.mark.parametrize(
    "payload,needle",
    [
        ({"dim": 2, "kraus": [[[HUGE, 0], [0, 1]]]}, r"kraus\[0\]\[0\]\[0\]"),
        ({"dim": 2, "kraus": [[[[1, HUGE], [0, 0]], [[0, 0], [1, 0]]]]}, r"kraus\[0\]\[0\]\[0\]"),
        ({"dim": 2, "stochastic": [[0.5, HUGE], [0.5, 0.5]]}, r"stochastic\[0\]\[1\]"),
        ({"dim": 1, "superoperator": [[HUGE]]}, r"superoperator\[0\]\[0\]"),
    ],
)
def test_map_file_number_out_of_double_range(tmp_path, payload, needle):
    path = write(tmp_path, "huge.json", payload)
    with pytest.raises(ParseError, match=needle + ": number is too large"):
        load_map_spec(path)


@pytest.mark.parametrize(
    "payload",
    [
        {"subspace": {"vectors": [[1, HUGE]]}, "initial": {"index": 1}},
        {"subspace": {"indices": [1]}, "initial": {"vector": [[HUGE, 0], [0, 1]]}},
        {"subspace": {"indices": [1]}, "initial": {"index": 1}, "tol": HUGE},
        {"subspace": {"indices": [1]}, "initial": {"index": 1}, "tol": {"atol": HUGE}},
        # decimals beyond the double range, which json reads as inf
        '{"subspace": {"indices": [1]}, "initial": {"index": 1}, "tol": 1e400}',
        '{"subspace": {"indices": [1]}, "initial": {"index": 1}, "tol": {"atol": 1e400}}',
    ],
)
def test_query_number_out_of_double_range(tmp_path, payload):
    if isinstance(payload, str):
        (tmp_path / "huge.json").write_text(payload)
        path = str(tmp_path / "huge.json")
    else:
        path = write(tmp_path, "huge.json", payload)
    with pytest.raises(ParseError):
        load_query_file(path)
