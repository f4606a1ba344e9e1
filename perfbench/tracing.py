"""Outside-in tracing of the ``hittime`` layers.

The tracer wraps the public functions of each ``hittime`` module listed in
``LAYERS`` and the dense decompositions of ``numpy.linalg`` (the kernel
layer) without touching the package.  A function is rebound in every
``hittime`` module that holds it, because ``cli`` and ``classical`` import
``solve_hitting`` and friends by name: patching the defining module alone
would miss those calls.  The decompositions are rebound on ``numpy.linalg``
(and ``scipy.linalg``) and in the ``hittime`` modules, not inside numpy, so
calls numpy makes internally (the SVD inside ``cond``) are not counted
twice.

Each span records a name, start, end, parent and request id; spans stay in
memory until the run writes them out.  A span's self time is its duration
minus the durations of its child spans, which never overlap (one thread).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import zlib
from collections import defaultdict

import numpy as np

LAYERS = {
    "hitting": ("solve_hitting", "hitting_maps", "hitting_probability",
                "mean_hitting_time_direct", "mhtf_orthogonal", "mhtf_general"),
    "fundamental": ("fundamental_map",),
    "maps": ("invariant_state", "check_complete_positivity"),
    "oracle": ("tau_series", "classical_monte_carlo"),
    "classical": ("build_chain", "classical_mhtf", "kac_return_time",
                  "classical_mhtf_distribution", "classical_mhtf_subset"),
    "io": ("load_map_spec", "build_superoperator", "load_query_file",
           "realize_subspace", "realize_initial"),
}
QUERY_SPANS = ("hitting.hitting_probability", "hitting.mean_hitting_time_direct",
               "hitting.mhtf_orthogonal", "hitting.mhtf_general")
FORMULA_SPANS = ("classical.classical_mhtf", "classical.kac_return_time",
                 "classical.classical_mhtf_distribution")
IO_SPANS = tuple(f"io.{name}" for name in LAYERS["io"])
DECOMPOSITIONS = ("solve", "eigvals", "eig", "eigh", "eigvalsh", "svd", "cond",
                  "inv", "qr", "lstsq")
# scipy.linalg is counted the same way when the package has imported it.
SCIPY_DECOMPOSITIONS = DECOMPOSITIONS + ("lu_factor", "lu_solve", "solve_triangular")
REQUEST_SPAN = "cli.request"


def _fingerprint(a: np.ndarray) -> tuple:
    return a.shape, zlib.crc32(np.ascontiguousarray(a).view(np.uint8))


def _leading_flops(name: str, args, kwargs) -> float:
    """Leading-order LAPACK flop count of one decomposition (Golub & Van Loan).

    Computed from the argument shapes, times 4 for complex input; the
    counts ignore lower-order terms and the actual iteration counts.
    """
    a = np.asarray(args[0]) if args else None
    if a is None or a.ndim != 2:
        return 0.0
    m, n = max(a.shape), min(a.shape)
    rhs = 1
    if len(args) > 1 and name in ("solve", "lstsq", "lu_solve", "solve_triangular"):
        b = np.asarray(args[1])
        rhs = b.shape[1] if b.ndim == 2 else 1
    svd_values = 4.0 * m * n * n - 4.0 / 3.0 * n**3
    flops = {
        "solve": 2.0 / 3.0 * n**3 + 2.0 * n * n * rhs,
        "lu_factor": 2.0 / 3.0 * n**3,
        "lu_solve": 2.0 * n * n * rhs,
        "solve_triangular": 1.0 * n * n * rhs,
        "inv": 2.0 * n**3,
        "eigvals": 10.0 * n**3,
        "eig": 25.0 * n**3,
        "eigvalsh": 4.0 / 3.0 * n**3,
        "eigh": 9.0 * n**3,
        "cond": svd_values,
        "norm": svd_values,
        "svd": (svd_values if kwargs.get("compute_uv", True) is False
                else 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3),
        "qr": 2.0 * m * n * n - 2.0 / 3.0 * n**3,
        "lstsq": svd_values + 2.0 * m * n * rhs,
    }[name]
    return flops * (4.0 if np.iscomplexobj(a) else 1.0)


def _decomposition_attrs(name):
    def attrs(args, kwargs):
        return {"flops": _leading_flops(name, args, kwargs)}
    return attrs


def _norm_attrs(args, kwargs):
    """A matrix 2-norm, nuclear norm or their inverses is an SVD; others are not traced."""
    order = kwargs.get("ord", args[1] if len(args) > 1 else None)
    if order not in (2, -2, "nuc") or np.ndim(args[0]) != 2:
        return None
    return {"flops": _leading_flops("norm", args, kwargs)}


def _solve_attrs(arguments):
    return {"key": (_fingerprint(arguments["t"].rep),
                    _fingerprint(arguments["subspace"].projector_p))}


def _fundamental_attrs(arguments):
    return {"key": _fingerprint(arguments["t"].rep)}


def _monte_carlo_attrs(arguments):
    return {"trials": int(arguments["trials"])}


# Span attributes read from the named arguments of the traced call.
ATTRS = {
    "hitting.solve_hitting": _solve_attrs,
    "fundamental.fundamental_map": _fundamental_attrs,
    "oracle.classical_monte_carlo": _monte_carlo_attrs,
}


def _by_name(fn, attrs_fn):
    signature = inspect.signature(fn)

    def attrs(args, kwargs):
        return attrs_fn(signature.bind(*args, **kwargs).arguments)
    return attrs


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, start, parent, request, attrs):
        self.name, self.start, self.end = name, start, start
        self.parent, self.request, self.attrs = parent, request, attrs or {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request,
                **{k: v for k, v in self.attrs.items() if k != "key"}}


class Tracer:
    """Collects spans from wrapped functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.request: int | None = None
        self.missing: list[str] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.request, attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, attrs_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_fn(args, kwargs) if attrs_fn else {}
            if attrs is None:
                return fn(*args, **kwargs)
            index = self.open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def _rebind(self, original, wrapper, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def install(self) -> None:
        """Wrap every traced function; ``uninstall`` restores the originals.

        A listed function the package no longer has is skipped and named in
        ``missing``, so its metrics read 0 for a visible reason.
        """
        package = [m for key, m in sys.modules.items()
                   if key == "hittime" or key.startswith("hittime.")]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"hittime.{layer}")
            for fname in names:
                span = f"{layer}.{fname}"
                original = getattr(module, fname, None)
                if original is None:
                    self.missing.append(span)
                    continue
                attrs = _by_name(original, ATTRS[span]) if span in ATTRS else None
                self._rebind(original, self._wrap(span, original, attrs), package)
        kernels = [(np.linalg, DECOMPOSITIONS), (np.linalg, ("norm",))]
        if "scipy.linalg" in sys.modules:
            kernels.append((sys.modules["scipy.linalg"], SCIPY_DECOMPOSITIONS))
        for module, names in kernels:
            for fname in names:
                original = getattr(module, fname, None)
                if original is not None:
                    attrs = _norm_attrs if fname == "norm" else _decomposition_attrs(fname)
                    wrapper = self._wrap(f"linalg.{fname}", original, attrs)
                    self._rebind(original, wrapper, [module, *package])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _self_ms(spans: list[Span]) -> list[float]:
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ms[span.parent] += span.ms
    return [span.ms - child for span, child in zip(spans, child_ms)]


def _outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in ``names`` that have no ancestor also named there."""
    names = set(names)
    result = []
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if span.name in names and parent is None:
            result.append(span)
    return result


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the spans of one traced pass."""
    self_ms = _self_ms(spans)
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def inclusive_ms(*names):
        return sum(span.ms for span in _outermost(spans, names))

    def total_self_ms(name):
        return sum(self_ms[i] for i in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    solves = [spans[i] for i in by_name["hitting.solve_hitting"]]
    fundamentals = [spans[i] for i in by_name["fundamental.fundamental_map"]]
    monte_carlo = [spans[i] for i in by_name["oracle.classical_monte_carlo"]]
    decomps = _outermost(spans, {s.name for s in spans if s.name.startswith("linalg.")})
    mc_ms = inclusive_ms("oracle.classical_monte_carlo")
    metrics = {
        "hitting.solve_hitting.calls": len(solves),
        "hitting.solve_hitting.self_ms": total_self_ms("hitting.solve_hitting"),
        "hitting.hitting_maps.ms": inclusive_ms("hitting.hitting_maps"),
        "hitting.solve_reuse": ratio(len({s.attrs["key"] for s in solves}), len(solves)),
        "hitting.query.calls": calls(*QUERY_SPANS),
        "hitting.query.ms": inclusive_ms(*QUERY_SPANS),
        "fundamental.fundamental_map.calls": len(fundamentals),
        "fundamental.fundamental_map.ms": inclusive_ms("fundamental.fundamental_map"),
        "fundamental.reuse": ratio(len({s.attrs["key"] for s in fundamentals}),
                                   len(fundamentals)),
        "maps.invariant_state.calls": calls("maps.invariant_state"),
        "maps.invariant_state.ms": inclusive_ms("maps.invariant_state"),
        "maps.check_complete_positivity.ms": inclusive_ms("maps.check_complete_positivity"),
        "oracle.tau_series.calls": calls("oracle.tau_series"),
        "oracle.tau_series.ms": inclusive_ms("oracle.tau_series"),
        "oracle.classical_monte_carlo.calls": len(monte_carlo),
        "oracle.classical_monte_carlo.ms": mc_ms,
        "oracle.mc_trials_per_s": ratio(sum(s.attrs["trials"] for s in monte_carlo),
                                        mc_ms / 1e3),
        "classical.build_chain.ms": inclusive_ms("classical.build_chain"),
        "classical.formula.ms": inclusive_ms(*FORMULA_SPANS),
        "classical.classical_mhtf_subset.self_ms":
            total_self_ms("classical.classical_mhtf_subset"),
        "io.calls": calls(*IO_SPANS),
        "io.ms": inclusive_ms(*IO_SPANS),
        "linalg.dense_decomp.calls": len(decomps),
        "linalg.dense_decomp.ms": sum(s.ms for s in decomps),
        "linalg.decomp_per_solve": ratio(
            sum(_has_ancestor(spans, s, "hitting.solve_hitting") for s in decomps),
            len(solves)),
        "linalg.dense_decomp.gflop_computed": sum(s.attrs["flops"] for s in decomps) / 1e9,
        "cli.self_ms": total_self_ms(REQUEST_SPAN),
    }
    return {name: float(value) for name, value in metrics.items()}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".calls"):
        return "count"
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    return "ratio"


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of every per-pass metric over the traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
