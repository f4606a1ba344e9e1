"""A seeded fuzzer of the command line.

Each case writes a map file and a query file, then runs one of ``validate``,
``hit`` or a ``classical`` command on them, with random flags.  Maps are
trace preserving, trace preserving and scaled by up to 1e160 (around the
scale limit of ``hittime.maps``), or of random entries; queries carry random
entries.  Random entries are zeros, ordinary values and magnitudes from the
subnormal range up to the largest double.  In half the cases one field of
the map or query file is dropped, replaced by a value of the wrong kind or
joined by an unknown one.  Every case must end in a documented exit code
(0-5) with no exception but ``SystemExit``, with RuntimeWarnings raised as
errors, so an overflow on the way fails a case too.

The generator is plain numpy: ``CASES`` cases from ``SEED`` are the same on
every run.  Another seed or count explores further.
"""

import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from hittime.cli import main
from hittime.io import METHODS

SEED = 20261020
CASES = 600
MAX = float(np.finfo(float).max)
_JUNK = (None, True, "x", [], {}, [[]], [1, "a"], {"re": 1}, -1, 0, 2.5, 10**400, [[1, 2], [3]])


def _entries(rng, shape, complex_: bool):
    """Entries of ``shape``: zeros, ordinary values and magnitudes up to the double range."""
    kind = rng.integers(0, 4, shape)
    exponent = rng.uniform(-323.0, np.log10(MAX), shape)
    magnitude = np.where(kind == 0, 0.0, np.where(kind == 1, rng.random(shape), 10.0 ** exponent))
    values = np.minimum(magnitude, MAX) * rng.choice([-1.0, 1.0], shape)
    if not complex_:
        return values.tolist()
    imag = _entries(rng, shape, False)
    return np.stack([values, np.asarray(imag)], axis=-1).tolist()


def _kraus_family(rng, n: int, k: int) -> np.ndarray:
    """A random trace-preserving family: G_i (sum G_j* G_j)^(-1/2)."""
    g = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    w, v = np.linalg.eigh(np.einsum("kji,kjl->il", g.conj(), g))
    return g @ ((v * w ** -0.5) @ v.conj().T)


def _pairs(m) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _map(rng, n: int) -> dict:
    kind = rng.choice(["kraus", "stochastic", "superoperator"])
    scaled = rng.random() < 0.6  # a trace-preserving map, scaled up in 2 cases of 3
    scale = 10.0 ** rng.uniform(0.0, 160.0) if rng.random() < 0.66 else 1.0
    if kind == "kraus":
        k = int(rng.integers(1, 4))
        ops = _kraus_family(rng, n, k) * np.sqrt(scale) if scaled else None
        kraus = [_pairs(v) for v in ops] if scaled else [
            _entries(rng, (n, n), True) for _ in range(k)]
        return {"dim": n, "kraus": kraus}
    if kind == "stochastic":
        p = rng.random((n, n))
        p = (p / p.sum(axis=0)).tolist() if scaled else _entries(rng, (n, n), False)
        spec = {"dim": n, "stochastic": p}
        if rng.random() < 0.5:
            spec["orientation"] = str(rng.choice(["row", "column"]))
        return spec
    if scaled:
        family = _kraus_family(rng, n, 2)
        rep = sum(np.kron(v, v.conj()) for v in family)
        # A block that the trace functional annihilates keeps the map trace preserving.
        null = rng.standard_normal((n * n, n * n))
        null[np.arange(n) * (n + 1)] = 0.0
        rep = rep + (scale - 1.0) * null
        return {"dim": n, "superoperator": _pairs(rep)}
    return {"dim": n, "superoperator": _entries(rng, (n * n, n * n), True)}


def _query(rng, n: int) -> dict:
    if rng.random() < 0.5:
        size = int(rng.integers(1, n + 1))
        subspace = {"indices": rng.integers(1, n + 2, size).tolist()}
    else:
        subspace = {"vectors": [_entries(rng, n, True) for _ in range(int(rng.integers(1, n + 1)))]}
    kind = rng.choice(["index", "vector", "density", "distribution"])
    if kind == "index":
        initial = {"index": int(rng.integers(1, n + 2))}
    elif kind == "vector":
        initial = {"vector": _entries(rng, n, True)}
    elif kind == "density":
        initial = {"density": _entries(rng, (n, n), True)}
    else:
        initial = {"distribution": np.abs(_entries(rng, n, False)).tolist()}
    query = {"subspace": subspace, "initial": initial, "method": str(rng.choice(METHODS))}
    if rng.random() < 0.2:
        query["tol"] = float(10.0 ** rng.uniform(-300.0, 3.0))
    return {"queries": [query, query]} if rng.random() < 0.2 else query


def _break(rng, node):
    """``node`` with one field of some nested object dropped, replaced or added."""
    if isinstance(node, dict) and node and rng.random() < 0.6:
        key = str(rng.choice(sorted(node)))
        action = rng.integers(0, 3)
        if action == 0:
            return {k: v for k, v in node.items() if k != key}
        if action == 1:
            return {**node, key: _JUNK[rng.integers(len(_JUNK))]}
        if rng.random() < 0.5:
            return {**node, key: _break(rng, node[key])}
        return {**node, "extra": 1}
    if isinstance(node, list) and node and rng.random() < 0.6:
        i = int(rng.integers(len(node)))
        return [*node[:i], _break(rng, node[i]), *node[i + 1:]]
    return _JUNK[rng.integers(len(_JUNK))]


def _argv(rng, n: int) -> list:
    command = rng.choice(["validate", "hit", "kac", "mhtf", "dist", "subset"])

    def state():  # 1-based, or just out of range
        return str(int(rng.integers(0, n + 2)))

    if command == "validate":
        argv = ["validate", "map.json"]
    elif command == "hit":
        argv = ["hit", "map.json", "query.json"]
    elif command == "kac":
        argv = ["classical", "kac", "map.json", "-j", state()]
    elif command == "mhtf":
        argv = ["classical", "mhtf", "map.json", "-i", state(), "-j", state()]
    elif command == "dist":
        x = ",".join(repr(abs(v)) for v in _entries(rng, n, False))
        argv = ["classical", "dist", "map.json", "-x", x, "-j", state()]
    else:
        argv = ["classical", "subset", "map.json", "-i", state(), "-S", f"{state()},{state()}"]
    if command in ("kac", "mhtf", "dist", "subset") and rng.random() < 0.3:
        argv += ["--trials", str(int(rng.integers(1, 50))), "--seed", "1"]
    if rng.random() < 0.2:
        argv += ["--tol", repr(float(10.0 ** rng.uniform(-300.0, 3.0)))]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def cases(seed: int, count: int):
    """``count`` cases (map file, query file, argv) from ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 4))
        spec, query = _map(rng, n), _query(rng, n)
        if rng.random() < 0.5:
            if rng.random() < 0.5:
                spec = _break(rng, spec)
            else:
                query = _break(rng, query)
        yield spec, query, _argv(rng, n)


def _invoke(directory, spec, argv, query=None):
    """The CLI's result on ``spec`` (and ``query``), written to ``directory``, with RuntimeWarnings raised as errors."""
    (directory / "map.json").write_text(json.dumps(spec))
    (directory / "query.json").write_text(json.dumps(query))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return CliRunner().invoke(main, argv)


def run_case(directory, spec, query, argv):
    """(exit code, exception or None) of one case."""
    result = _invoke(directory, spec, argv, query)
    error = None if isinstance(result.exception, (SystemExit, type(None))) else result.exception
    return result.exit_code, error


def test_every_case_ends_in_a_documented_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    failures = []
    for number, (spec, query, argv) in enumerate(cases(SEED, CASES)):
        code, error = run_case(tmp_path, spec, query, argv)
        if error is not None or code not in range(6):
            failures.append(f"case {number}: {' '.join(argv)} -> {code} {error!r}")
    assert not failures, "\n".join(failures)


def test_a_map_whose_entries_reach_the_double_range_is_refused(tmp_path, monkeypatch):
    """Not completely positive, so validate once sampled its positivity, and
    T(rho) overflowed into an eigvalsh that did not converge."""
    monkeypatch.chdir(tmp_path)
    rep = [[0] * 9 for _ in range(9)]
    rep[3][8] = [0, 1]
    rep[5] = [1e308, 0, [0, -MAX], 0, 0, 0, [0, 7.131063609968538e307], 0, 0]
    result = _invoke(tmp_path, {"dim": 3, "superoperator": rep}, ["validate", "map.json"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == (
        "error: superoperator representation has Frobenius norm inf, above sqrt(max double) "
        "/ 4n = 1.117e+153 for n = 3: the trace check, T(rho) or a Frobenius norm could overflow\n"
    )


@pytest.mark.parametrize("kind", ["superoperator", "kraus"])
@pytest.mark.parametrize("margin", [1 - 1e-9, 1 + 1e-9])
def test_the_scale_limit(tmp_path, monkeypatch, kind, margin):
    """A map with Frobenius norm just below sqrt(max double) / 4n is validated
    without an overflow; one just above it is refused.  The superoperator is
    c X^T, positive but not completely positive, so validate samples T(rho);
    the Kraus map has the one operator c I."""
    monkeypatch.chdir(tmp_path)
    n, limit = 3, math.sqrt(MAX) / 12
    if kind == "superoperator":  # the transpose permutes the 9 coordinates: norm 3c
        rep = np.zeros((9, 9))
        rep[np.arange(9), (np.arange(9) % 3) * 3 + np.arange(9) // 3] = limit / 3 * margin
        spec = {"dim": n, "superoperator": rep.tolist()}
    else:  # sum ||V||_F^2 = 3 c^2
        spec = {"dim": n, "kraus": [(np.eye(3) * math.sqrt(limit / 3 * margin)).tolist()]}
    result = _invoke(tmp_path, spec, ["validate", "map.json"])
    assert result.exit_code == 2
    if margin < 1:
        assert "  trace preserving     no (residual" in result.stdout
        assert result.stderr == ""
    else:
        assert result.stdout == ""
        what = ("superoperator representation has Frobenius norm" if kind == "superoperator"
                else "Kraus family has sum_i ||V_i||_F^2 =")
        assert result.stderr == (
            f"error: {what} 1.117e+153, above sqrt(max double) / 4n = 1.117e+153 for n = 3: "
            "the trace check, T(rho) or a Frobenius norm could overflow\n"
        )


def test_the_cases_are_fixed_by_the_seed():
    first = [json.dumps(case) for case in cases(SEED, 20)]
    assert first == [json.dumps(case) for case in cases(SEED, 20)]
    assert len(set(first)) == 20
