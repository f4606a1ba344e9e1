"""Seeded inputs of the benchmark workloads.

A workload is one pass of ``hittime`` CLI requests, sent in order and
repeated until the run's time is up.  The generator writes the map and query
files the requests name and, untimed, computes each expected answer with the
independent formulas of ``reference.py``.  The same seed gives the same files
and the same answers; the sizes and the request mix never depend on the seed,
so every seed does the same kinds and sizes of work.

``tiny`` shrinks every workload to n <= 4 and a few requests, for the smoke
test.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

import reference

# Known defects at the time the benchmark was defined.  Such a request runs
# once per run, untimed, and is reported apart from the timed requests: the
# direct route's built-in H-trace cross-check rejects tau = 1e7 on the
# two-state chain with switch probability 1e-7 (exit 5, NumericError).
KNOWN_DEFECT_SWITCH = 1e-7


@dataclass
class Request:
    """One CLI call: its arguments (without the program name) and expected answers."""

    label: str
    kind: str  # "validate" | "hit" | "classical"
    argv: list[str]
    expected: dict


@dataclass
class Workload:
    requests: list[Request]  # one pass, sent in this order
    probes: list[Request] = field(default_factory=list)  # known defects, untimed


def _cvec(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, complex)]


def _cmat(m) -> list:
    return [_cvec(row) for row in np.asarray(m, complex)]


def _random_kraus(rng: np.random.Generator, n: int, rank: int = 2) -> np.ndarray:
    """Gaussian Kraus family whitened to sum V_i* V_i = I."""
    g = rng.standard_normal((rank, n, n)) + 1j * rng.standard_normal((rank, n, n))
    w, v = np.linalg.eigh(np.einsum("kji,kjl->il", g.conj(), g))
    return g @ ((v * w**-0.5) @ v.conj().T)


def _block_kraus(rng: np.random.Generator, n: int) -> np.ndarray:
    """Channel that keeps the two halves of C^n apart (reducible)."""
    half = n // 2
    a, b = _random_kraus(rng, half), _random_kraus(rng, n - half)
    ops = np.zeros((2, n, n), dtype=complex)
    ops[:, :half, :half] = a
    ops[:, half:, half:] = b
    return ops


def _complex_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0
        os.makedirs(workdir, exist_ok=True)

    def write(self, stem: str, data: dict) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:03d}-{stem}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        return path


def _start(rng, kind: str, n: int, q: np.ndarray | None = None):
    """Initial state of a query: (JSON node, normalized density).

    With ``q`` the state is supported in range(q).
    """
    if kind == "index":
        k = int(rng.integers(n))
        return {"index": k + 1}, np.outer(np.eye(n)[k], np.eye(n)[k]).astype(complex)
    if kind == "distribution":
        x = rng.dirichlet(np.ones(n))
        return {"distribution": x.tolist()}, np.diag(x / x.sum()).astype(complex)
    if kind == "vector":
        v = _complex_vector(rng, n)
        if q is not None:
            v = q @ v
        return {"vector": _cvec(v)}, np.outer(v, v.conj()) / np.vdot(v, v).real
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if q is not None:
        g = q @ g
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return {"density": _cmat(m)}, m / np.trace(m).real


def _validate(path: str, rep: np.ndarray, label: str) -> Request:
    return Request(label, "validate", ["validate", path, "--json"],
                   {"pi": reference.invariant_state(rep)})


def _hit(files: _Writer, map_path: str, rep: np.ndarray, queries, label: str) -> Request:
    """queries: (subspace node, projector, start node, start density, method)."""
    path = files.write("queries", {"queries": [
        {"subspace": sub, "initial": init, "method": method}
        for sub, _, init, _, method in queries
    ]})
    taus = [reference.mean_hitting_time(rep, proj, rho) for _, proj, _, rho, _ in queries]
    return Request(label, "hit", ["hit", map_path, path, "--json"], {"tau": taus})


def _index_query(n: int, target: int, start: int, method: str):
    proj = np.zeros((n, n), dtype=complex)
    proj[target, target] = 1.0
    rho = np.zeros((n, n), dtype=complex)
    rho[start, start] = 1.0
    return {"indices": [target + 1]}, proj, {"index": start + 1}, rho, method


def _vector_query(rng, n: int, rank: int, method: str, support: slice = slice(None)):
    """Subspace spanned by ``rank`` random vectors, random pure start."""
    vectors = []
    for _ in range(rank):
        v = np.zeros(n, dtype=complex)
        v[support] = _complex_vector(rng, n)[support]
        vectors.append(v)
    init, rho = _start(rng, "vector", n)
    return {"vectors": [_cvec(v) for v in vectors]}, reference.projector(vectors), init, rho, method


def kraus_sweep(rng, files: _Writer, tiny: bool) -> Workload:
    """Dense decompositions and the series oracle over a dimension and gap ladder.

    Each random rung has ``maps_per_rung`` maps per pass: the series length
    and the eigenvalue iterations depend on the map, and several maps
    average that out, so that every seed costs about the same.
    """
    ladder = (3, 4) if tiny else (4, 8, 12, 16, 20)
    gap_n = 4 if tiny else 8
    couplings = (1e-1,) if tiny else (1e-1, 1e-2)
    switches = (1e-3, KNOWN_DEFECT_SWITCH) if tiny else (1e-3, 1e-5, KNOWN_DEFECT_SWITCH)
    maps_per_rung = 1 if tiny else 3
    requests, probes = [], []

    for _ in range(maps_per_rung):
        for n in ladder:
            kraus = _random_kraus(rng, n)
            rep = reference.kraus_rep(kraus)
            path = files.write(f"kraus-n{n}", {"dim": n, "kraus": [_cmat(v) for v in kraus]})
            queries = [_vector_query(rng, n, 2, "all")]
            if n <= 12:
                target, start = rng.choice(n, size=2, replace=False)
                queries.insert(0, _index_query(n, int(target), int(start), "all"))
            requests.append(_validate(path, rep, f"validate kraus n={n}"))
            requests.append(_hit(files, path, rep, queries, f"hit kraus n={n}"))

        half = gap_n // 2
        for eps in couplings:
            kraus = np.concatenate([
                np.sqrt(1.0 - eps) * _block_kraus(rng, gap_n),
                np.sqrt(eps) * _random_kraus(rng, gap_n),
            ])
            rep = reference.kraus_rep(kraus)
            path = files.write(f"gap-{eps:g}", {"dim": gap_n, "kraus": [_cmat(v) for v in kraus]})
            # The index query targets one half from the other: the walk must
            # cross the gap.
            queries = [
                _index_query(gap_n, 0, gap_n - 1, "all"),
                _vector_query(rng, gap_n, 1, "all", support=slice(half, None)),
            ]
            requests.append(_validate(path, rep, f"validate gap eps={eps:g}"))
            requests.append(_hit(files, path, rep, queries, f"hit gap eps={eps:g}"))

    # Embedded two-state chain: the gap of QT is p, too small for the series.
    for p in switches:
        chain = np.array([[1.0 - p, p], [p, 1.0 - p]])
        rep = reference.stochastic_rep(chain)
        path = files.write(f"switch-{p:g}", {"dim": 2, "stochastic": chain.tolist()})
        direct = _index_query(2, 1, 0, "direct")
        mhtf = _index_query(2, 0, 1, "mhtf")
        requests.append(_validate(path, rep, f"validate two-state p={p:g}"))
        if p == KNOWN_DEFECT_SWITCH:
            requests.append(_hit(files, path, rep, [mhtf], f"hit two-state p={p:g} mhtf"))
            probes.append(_hit(files, path, rep, [direct], f"hit two-state p={p:g} direct"))
        else:
            requests.append(_hit(files, path, rep, [direct, mhtf], f"hit two-state p={p:g}"))
    return Workload(requests, probes)


FANOUT_KINDS = ("index", "vector", "density", "distribution")


def query_fanout(rng, files: _Writer, tiny: bool) -> Workload:
    """24 queries on one rank-2 subspace per request, one fresh map per request."""
    sizes = (3, 4) if tiny else (6, 8, 10)
    maps_per_size = 1 if tiny else 4
    requests = []
    for _ in range(maps_per_size):
        for n in sizes:
            kraus = _random_kraus(rng, n)
            rep = reference.kraus_rep(kraus)
            path = files.write(f"kraus-n{n}", {"dim": n, "kraus": [_cmat(v) for v in kraus]})
            vectors = [_complex_vector(rng, n) for _ in range(2)]
            sub = {"vectors": [_cvec(v) for v in vectors]}
            proj = reference.projector(vectors)
            queries = []
            for method in ("direct", "mhtf"):
                for kind in FANOUT_KINDS * 2:
                    init, rho = _start(rng, kind, n)
                    queries.append((sub, proj, init, rho, method))
            for kind in ("vector", "density") * 4:
                init, rho = _start(rng, kind, n, q=np.eye(n) - proj)
                queries.append((sub, proj, init, rho, "mhtf-orthogonal"))
            requests.append(_hit(files, path, rep, queries, f"hit fanout n={n}"))
    return Workload(requests)


def _classical(path: str, command: str, args: list[str], tau: float,
               trials: int | None = None, seed: int = 0,
               return_times: dict | None = None) -> Request:
    argv = ["classical", command, path, *args, "--json"]
    if trials is not None:
        argv += ["--trials", str(trials), "--seed", str(seed)]
    label = f"classical {command}" + (" mc" if trials else "")
    return Request(label, "classical", argv, {
        "tau": tau, "monte_carlo": trials is not None, "return_times": return_times,
    })


def classical_chain(rng, files: _Writer, tiny: bool) -> Workload:
    """Stochastic map files through the classical commands, Monte Carlo and subsets.

    Monte Carlo runs on the two smaller chains only: its cost follows the
    longest simulated trajectory, which varies from chain to chain, while
    the costlier subset route costs the same on every chain of a size.  Two
    chains per subset size put the 90th latency percentile inside the n = 16
    subset requests rather than between two kinds of request.
    """
    sizes = (3, 4) if tiny else (25, 50, 100)
    mc_sizes = sizes[:2]
    subset_sizes = ((4, 2),) if tiny else ((8, 2), (8, 3), (12, 2), (12, 3), (16, 2), (16, 3))
    chains_per_subset = 1 if tiny else 2
    trials = 50 if tiny else 500
    requests = []
    for n in sizes:
        p = rng.dirichlet(np.ones(n), size=n).T
        path = files.write(f"chain-n{n}", {"dim": n, "stochastic": p.tolist()})
        # Monte-Carlo cost grows with the time to reach j, about 1 / pi_j:
        # a target of median stationary weight makes it alike across seeds.
        j = int(np.argsort(reference.stationary(p))[n // 2])
        i = int(rng.choice(np.delete(np.arange(n), j)))
        x = rng.dirichlet(np.ones(n))
        pair = ["-i", str(i + 1), "-j", str(j + 1)]
        dist = ["-x", ",".join(repr(float(v)) for v in x), "-j", str(j + 1)]
        tau_ij = reference.classical_time(p, i, [j])
        tau_xj = reference.classical_time(p, x, [j])
        requests += [
            _classical(path, "mhtf", pair, tau_ij),
            _classical(path, "kac", ["-j", str(j + 1)], reference.classical_time(p, j, [j])),
            _classical(path, "dist", dist, tau_xj),
        ]
        if n in mc_sizes:
            requests += [
                _classical(path, "mhtf", pair, tau_ij, trials, int(rng.integers(2**31))),
                _classical(path, "dist", dist, tau_xj, trials, int(rng.integers(2**31))),
            ]
    for _ in range(chains_per_subset):
        for n, size in subset_sizes:
            p = rng.dirichlet(np.ones(n), size=n).T
            path = files.write(f"subset-n{n}", {"dim": n, "stochastic": p.tolist()})
            states = rng.permutation(n)
            target, i = [int(k) for k in states[:size]], int(states[size])
            args = ["-i", str(i + 1), "-S", ",".join(str(k + 1) for k in target)]
            returns = {str(k + 1): reference.classical_time(p, k, target) for k in target}
            requests.append(_classical(path, "subset", args,
                                       reference.classical_time(p, i, target),
                                       return_times=returns))
    return Workload(requests)


GENERATORS = {
    "kraus-sweep": kraus_sweep,
    "query-fanout": query_fanout,
    "classical-chain": classical_chain,
}


def generate(name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``workdir``."""
    rng = np.random.default_rng([seed % 2**64, zlib.crc32(name.encode())])
    return GENERATORS[name](rng, _Writer(workdir), tiny)
