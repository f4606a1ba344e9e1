"""Reading map and query specification files.

Both file kinds are JSON: self-describing key/value structures with nested
arrays, decimal numbers only, and complex entries written as two-element
``[re, im]`` arrays (bare numbers are accepted as reals).  A map file carries
``dim`` plus exactly one of ``kraus``, ``stochastic`` (with an optional
``orientation`` of ``"column"`` or ``"row"``) or ``superoperator``.  A query
file holds one query object or ``{"queries": [...]}``; state and basis
indices in files are 1-based.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import DimensionError, ParseError, ValidationError
from .hitting import ArrivalSubspace, subspace_from_indices, subspace_from_vectors
from .linalg import DEFAULT_TOL, Tolerance, divide, scaled_norm
from .maps import DensityMatrix, SuperOperator, density, from_kraus, from_raw, from_stochastic, pure_density

__all__ = [
    "MapSpec",
    "QuerySpec",
    "InitialState",
    "METHODS",
    "load_map_spec",
    "build_superoperator",
    "stochastic_matrix",
    "load_query_file",
    "realize_subspace",
    "realize_initial",
]

METHODS = ("direct", "mhtf", "mhtf-orthogonal", "series", "all")

# JSON numbers; bool is excluded by comparing exact types.
_NUMBER_TYPES = {int, float}


@dataclass(frozen=True, eq=False)
class MapSpec:
    """Parsed contents of a map specification file."""

    dim: int
    kind: str  # "kraus" | "stochastic" | "superoperator"
    kraus: tuple[np.ndarray, ...] | None = None
    stochastic: np.ndarray | None = None
    orientation: str | None = None
    superoperator: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class QuerySpec:
    """One hitting-time query: arrival subspace, initial state, method."""

    subspace_vectors: tuple[np.ndarray, ...] | None = None
    subspace_indices: tuple[int, ...] | None = None
    initial_kind: str = "index"  # "vector" | "density" | "distribution" | "index"
    initial_value: object = 1
    method: str = "all"
    tol: Tolerance | None = None

    @property
    def subspace_key(self) -> tuple:
        """Equal for queries that realize the same subspace, which share a solve:
        the sorted distinct indices, or each spanning vector's bytes."""
        if self.subspace_indices is not None:
            return tuple(sorted(set(self.subspace_indices)))
        return tuple(v.tobytes() for v in self.subspace_vectors)


@dataclass(frozen=True, eq=False)
class InitialState:
    """Realized initial state with the normalization factor that was applied."""

    state: DensityMatrix
    normalization: float
    description: str


def _fail(where: str, message: str) -> ParseError:
    return ParseError(f"{where}: {message}")


_OUT_OF_RANGE = "number is too large for a double-precision float"


def _parse_complex(node, where: str) -> complex:
    if isinstance(node, bool):
        raise _fail(where, "expected a number or [re, im] pair")
    try:
        if isinstance(node, (int, float)):
            z = complex(float(node), 0.0)
        elif (
            isinstance(node, list)
            and len(node) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node)
        ):
            z = complex(float(node[0]), float(node[1]))
        else:
            raise _fail(where, f"expected a number or [re, im] pair, got {node!r}")
    except OverflowError:  # a JSON integer beyond the double range
        raise _fail(where, _OUT_OF_RANGE) from None
    if not np.isfinite(z):  # a JSON decimal beyond the double range reads as inf
        raise _fail(where, _OUT_OF_RANGE)
    return z


def _parse_complex_vector(node, where: str) -> np.ndarray:
    fast = _fast_matrix([node])  # the vector as a one-row matrix
    if fast is not None:
        return (fast.astype(complex) if fast.ndim == 2 else fast.view(complex)[..., 0])[0]
    if not isinstance(node, list) or not node:
        raise _fail(where, "expected a nonempty array of complex entries")
    return np.array(
        [_parse_complex(x, f"{where}[{i}]") for i, x in enumerate(node)], dtype=complex
    )


def _fast_matrix(node) -> np.ndarray | None:
    """One-call conversion of equal-length rows of bare numbers or of pairs.

    Returns a finite float array of shape (rows, cols) or (rows, cols, 2),
    or None for anything else, which the element-wise parser then handles
    (and reports) as before.
    """
    if not isinstance(node, list) or not node or any(type(row) is not list for row in node):
        return None
    entries = list(chain.from_iterable(node))
    kinds = set(map(type, entries))
    if kinds == {list}:
        kinds = set(map(type, chain.from_iterable(entries)))
    if not kinds <= _NUMBER_TYPES:
        return None
    try:
        m = np.array(node, dtype=float)  # ragged rows raise ValueError
    except (ValueError, OverflowError):
        return None
    if m.size == 0 or m.shape[2:] not in ((), (2,)) or not np.isfinite(m).all():
        return None
    return m


def _parse_complex_matrix(node, where: str) -> np.ndarray:
    fast = _fast_matrix(node)
    if fast is not None:
        return fast.astype(complex) if fast.ndim == 2 else fast.view(complex)[..., 0]
    if not isinstance(node, list) or not node:
        raise _fail(where, "expected a nonempty array of rows")
    rows = [_parse_complex_vector(row, f"{where}[{i}]") for i, row in enumerate(node)]
    width = rows[0].size
    for i, row in enumerate(rows):
        if row.size != width:
            raise _fail(f"{where}[{i}]", f"row length {row.size} differs from {width}")
    return np.vstack(rows)


def _parse_real_matrix(node, where: str) -> np.ndarray:
    fast = _fast_matrix(node)
    if fast is not None and fast.ndim == 2:
        return fast
    m = _parse_complex_matrix(node, where)
    if np.max(np.abs(m.imag)) > 0:
        raise _fail(where, "matrix must be real")
    return m.real.copy()


def _load_json(path: str) -> dict:
    def refuse(constant: str):
        raise ParseError(f"{path}: non-finite number {constant} is not allowed")

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_constant=refuse)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return data


def _require_shape(m: np.ndarray, shape: tuple[int, int], where: str) -> None:
    if m.shape != shape:
        raise _fail(where, f"expected shape {shape}, got {m.shape}")


def load_map_spec(path: str) -> MapSpec:
    """Parse a map specification file."""
    data = _load_json(path)
    if "dim" not in data:
        raise _fail(path, "missing required field 'dim'")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise _fail(f"{path}: dim", f"expected a positive integer, got {dim!r}")
    present = [k for k in ("kraus", "stochastic", "superoperator") if k in data]
    if len(present) != 1:
        raise _fail(
            path,
            "exactly one of 'kraus', 'stochastic', 'superoperator' must be "
            f"present, found {present or 'none'}",
        )
    kind = present[0]
    if kind == "kraus":
        node = data["kraus"]
        if not isinstance(node, list) or not node:
            raise _fail(f"{path}: kraus", "expected a nonempty array of matrices")
        ops = tuple(
            _parse_complex_matrix(m, f"{path}: kraus[{i}]") for i, m in enumerate(node)
        )
        for i, op in enumerate(ops):
            _require_shape(op, (dim, dim), f"{path}: kraus[{i}]")
        return MapSpec(dim, "kraus", kraus=ops)
    if kind == "stochastic":
        matrix = _parse_real_matrix(data["stochastic"], f"{path}: stochastic")
        _require_shape(matrix, (dim, dim), f"{path}: stochastic")
        orientation = data.get("orientation")
        if orientation is not None and orientation not in ("column", "row"):
            raise _fail(
                f"{path}: orientation",
                f"expected 'column' or 'row', got {orientation!r}",
            )
        return MapSpec(dim, "stochastic", stochastic=matrix, orientation=orientation)
    matrix = _parse_complex_matrix(data["superoperator"], f"{path}: superoperator")
    _require_shape(matrix, (dim * dim, dim * dim), f"{path}: superoperator")
    return MapSpec(dim, "superoperator", superoperator=matrix)


def build_superoperator(
    spec: MapSpec,
    row_stochastic: bool = False,
    tol: Tolerance = DEFAULT_TOL,
) -> SuperOperator:
    """Turn a parsed map spec into a superoperator.

    A stochastic spec is oriented by :func:`stochastic_matrix` first.
    """
    if spec.kind == "kraus":
        return from_kraus(spec.kraus)
    if spec.kind == "stochastic":
        return from_stochastic(stochastic_matrix(spec, row_stochastic), tol)
    return from_raw(spec.superoperator)


def stochastic_matrix(spec: MapSpec, row_stochastic: bool = False) -> np.ndarray:
    """The column-stochastic matrix of a stochastic spec, unvalidated.

    The effective orientation is the ``--row-stochastic`` flag if set, else
    the file's ``orientation`` field, else column; a row matrix is transposed.
    """
    orientation = "row" if row_stochastic else (spec.orientation or "column")
    return spec.stochastic.T if orientation == "row" else spec.stochastic


def _parse_tol(node, where: str) -> Tolerance:
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        try:
            value = float(node)
        except OverflowError:
            raise _fail(where, _OUT_OF_RANGE) from None
        if value < 0:
            raise _fail(where, "tolerance must be non-negative")
        tol = Tolerance(value, value)
    elif isinstance(node, dict):
        extra = set(node) - {"atol", "rtol"}
        if extra:
            raise _fail(where, f"unknown tolerance fields {sorted(extra)}")
        for name, value in node.items():
            if type(value) not in _NUMBER_TYPES:
                raise _fail(f"{where}.{name}", f"expected a number, got {value!r}")
        try:
            tol = replace(DEFAULT_TOL, **{name: float(value) for name, value in node.items()})
        except (ValueError, OverflowError) as exc:
            raise _fail(where, f"invalid tolerance: {exc}") from exc
    else:
        raise _fail(where, "expected a number or an object with 'atol'/'rtol'")
    if not np.isfinite([tol.atol, tol.rtol]).all():  # a JSON decimal beyond the double range
        raise _fail(where, _OUT_OF_RANGE)
    return tol


def _parse_query(node, where: str) -> QuerySpec:
    if not isinstance(node, dict):
        raise _fail(where, "each query must be an object")
    if "subspace" not in node:
        raise _fail(where, "missing required field 'subspace'")
    if "initial" not in node:
        raise _fail(where, "missing required field 'initial'")

    sub = node["subspace"]
    vectors: tuple[np.ndarray, ...] | None = None
    indices: tuple[int, ...] | None = None
    sub_where = f"{where}: subspace"
    if isinstance(sub, dict) and set(sub) == {"vectors"}:
        vs = sub["vectors"]
        if not isinstance(vs, list) or not vs:
            raise _fail(sub_where, "expected a nonempty array of vectors")
        vectors = tuple(
            _parse_complex_vector(v, f"{sub_where}.vectors[{i}]")
            for i, v in enumerate(vs)
        )
    elif isinstance(sub, dict) and set(sub) == {"indices"}:
        idx = sub["indices"]
        if (
            not isinstance(idx, list)
            or not idx
            or not all(isinstance(i, int) and not isinstance(i, bool) for i in idx)
        ):
            raise _fail(sub_where, "expected a nonempty array of 1-based integers")
        if min(idx) < 1:
            raise _fail(sub_where, "basis indices are 1-based")
        indices = tuple(int(i) for i in idx)
    else:
        raise _fail(sub_where, "expected an object with 'vectors' or 'indices'")

    init = node["initial"]
    init_where = f"{where}: initial"
    if not isinstance(init, dict) or len(init) != 1:
        raise _fail(
            init_where,
            "expected an object with exactly one of 'vector', 'density', "
            "'distribution', 'index'",
        )
    (kind, value), = init.items()
    if kind == "vector":
        value = _parse_complex_vector(value, f"{init_where}.vector")
    elif kind == "density":
        value = _parse_complex_matrix(value, f"{init_where}.density")
    elif kind == "distribution":
        vecval = _parse_complex_vector(value, f"{init_where}.distribution")
        if np.max(np.abs(vecval.imag)) > 0:
            raise _fail(f"{init_where}.distribution", "distribution must be real")
        value = vecval.real.copy()
    elif kind == "index":
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise _fail(f"{init_where}.index", "expected a 1-based state index")
    else:
        raise _fail(init_where, f"unknown initial kind {kind!r}")

    method = node.get("method", "all")
    if method not in METHODS:
        raise _fail(f"{where}: method", f"expected one of {METHODS}, got {method!r}")
    tol = _parse_tol(node["tol"], f"{where}: tol") if "tol" in node else None

    known = {"subspace", "initial", "method", "tol"}
    extra = set(node) - known
    if extra:
        raise _fail(where, f"unknown query fields {sorted(extra)}")
    return QuerySpec(vectors, indices, kind, value, method, tol)


def load_query_file(path: str) -> list[QuerySpec]:
    """Parse a query file: one query object or {"queries": [...]}."""
    data = _load_json(path)
    if "queries" in data:
        queries = data["queries"]
        if not isinstance(queries, list) or not queries:
            raise _fail(f"{path}: queries", "expected a nonempty array of queries")
        extra = set(data) - {"queries"}
        if extra:
            raise _fail(path, f"unknown top-level fields {sorted(extra)}")
        return [
            _parse_query(q, f"{path}: queries[{i}]") for i, q in enumerate(queries)
        ]
    return [_parse_query(data, path)]


def realize_subspace(query: QuerySpec, n: int, tol: Tolerance = DEFAULT_TOL) -> ArrivalSubspace:
    """Build the arrival subspace of a query in ambient dimension n; ``tol`` collapses its span."""
    if query.subspace_indices is not None:
        if max(query.subspace_indices) > n:  # the parser refuses indices below 1
            raise ValidationError(f"basis indices must lie in [1, {n}]")
        return subspace_from_indices(n, [i - 1 for i in query.subspace_indices])
    return subspace_from_vectors(query.subspace_vectors, tol)


def realize_initial(
    query: QuerySpec, n: int, tol: Tolerance = DEFAULT_TOL
) -> InitialState:
    """Build the initial density of a query, normalizing and reporting the factor.

    ``density`` judges a density start, divided by its trace, under ``tol``."""
    kind = query.initial_kind
    if kind == "index":
        index = int(query.initial_value)
        if index > n:
            raise DimensionError(f"initial index {index} exceeds dimension {n}")
        basis = np.zeros((n, n), dtype=complex)
        basis[index - 1, index - 1] = 1.0
        return InitialState(DensityMatrix(basis), 1.0, f"basis state {index}")
    if kind == "vector":
        v = np.asarray(query.initial_value, dtype=complex)
        if v.size != n:
            raise DimensionError(f"initial vector has length {v.size}, expected {n}")
        norm = scaled_norm(v)
        if norm == 0.0:
            raise ParseError("initial vector must be nonzero")
        if norm == math.inf:
            raise _fail("initial vector norm", _OUT_OF_RANGE)
        return InitialState(pure_density(v), norm, "pure state")
    if kind == "distribution":
        x = np.asarray(query.initial_value, dtype=float)
        if x.size != n:
            raise DimensionError(f"initial distribution has length {x.size}, expected {n}")
        if x.min() < 0:
            raise ParseError("initial distribution must be non-negative")
        with np.errstate(over="ignore"):
            total = float(x.sum())
        if total <= 0:
            raise ParseError("initial distribution must have positive mass")
        if total == math.inf:
            raise _fail("initial distribution mass", _OUT_OF_RANGE)
        return InitialState(
            DensityMatrix(np.diag(x / total).astype(complex)),
            total,
            "diagonal mixture",
        )
    m = np.asarray(query.initial_value, dtype=complex)
    if m.shape != (n, n):
        raise DimensionError(f"initial density has shape {m.shape}, expected ({n}, {n})")
    with np.errstate(over="ignore"):
        trace = float(np.trace(m).real)
    if trace <= 0:
        raise ParseError("initial density must have positive trace")
    if trace == math.inf:
        raise _fail("initial density trace", _OUT_OF_RANGE)
    return InitialState(density(divide(m, trace), tol), trace, "density matrix")
