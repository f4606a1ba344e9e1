"""Command-line front end.

Subcommands: ``validate`` (map file diagnostics), ``hit`` (hitting-time
queries against a map file), ``classical`` (chain formulas: mhtf, kac, dist,
subset) and ``selftest`` (embedded golden suite).  Results are printed as a
human-readable table by default or as a JSON record with ``--json``.

Exit codes: 0 success, 1 parse error, 2 map-validation failure, 3 query
precondition failure, 4 self-test failure, 5 numeric failure.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import __version__
from .classical import (
    build_chain,
    classical_mhtf,
    classical_mhtf_distribution,
    classical_mhtf_subset,
    kac_return_time,
)
from .errors import (
    DimensionError,
    NumericError,
    OrthogonalityError,
    ParseError,
    PreconditionError,
    ValidationError,
)
from .hitting import (
    ORTHOGONALITY_TOL,
    hitting_probability,
    mean_hitting_time_direct,
    mhtf_general,
    mhtf_orthogonal,
    solve_hitting,
)
from .io import (
    METHODS,
    build_superoperator,
    load_map_spec,
    load_query_file,
    realize_initial,
    realize_subspace,
    stochastic_matrix,
)
from .linalg import Tolerance, frobenius
from .maps import (
    CERTIFIED_IRREDUCIBLE,
    check_complete_positivity,
    check_trace_preserving,
    invariant_state,
    positivity_sample,
)
from .oracle import classical_monte_carlo, tau_series
from .selftest import DEFAULT_SELFTEST_SEED, run_selftest

EXIT_PARSE = 1
EXIT_MAP = 2
EXIT_QUERY = 3
EXIT_SELFTEST = 4
EXIT_NUMERIC = 5

_MAP_ERRORS = (ValidationError, PreconditionError, DimensionError)


def _echo(message: str, err: bool = False) -> None:
    # An explicit file keeps click from caching a wrapper per sys.stdout
    # object, which keeps every redirected in-process stream alive.
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _abort(code: int, message: str) -> None:
    _echo(f"error: {message}", err=True)
    sys.exit(code)


def _tolerance(tol: float | None) -> Tolerance | None:
    if tol is None:
        return None
    if tol < 0:
        _abort(EXIT_PARSE, "--tol must be non-negative")
    return Tolerance(tol, tol)


def _fmt(x: float, digits: int) -> str:
    return f"{float(x):.{digits}g}"


def _fmt_complex(z: complex, digits: int) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt(z.real, digits)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real, digits)}{sign}{_fmt(abs(z.imag), digits)}j"


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


def _matrix_lines(m: np.ndarray, digits: int, indent: str = "    ") -> list[str]:
    return [
        indent + "[" + ", ".join(_fmt_complex(z, digits) for z in row) + "]"
        for row in np.asarray(m, complex)
    ]


def _emit_json(record) -> None:
    _echo(json.dumps(record, sort_keys=True, indent=2))


def _load_spec(map_file: str):
    try:
        return load_map_spec(map_file)
    except ParseError as exc:
        _abort(EXIT_PARSE, str(exc))


def _load_map(map_file: str, row_stochastic: bool, tol: Tolerance | None):
    spec = _load_spec(map_file)
    try:
        return spec, build_superoperator(spec, row_stochastic, tol)
    except _MAP_ERRORS as exc:
        _abort(EXIT_MAP, str(exc))


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Hitting probabilities, mean hitting times and return times for
    trace-preserving maps and classical chains."""


@main.command()
@click.argument("map_file", type=click.Path(dir_okay=False))
@click.option("--tol", type=float, default=None, help="Override atol and rtol.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON record.")
@click.option("--digits", type=int, default=12, show_default=True,
              help="Display precision (human output only).")
@click.option("--row-stochastic", is_flag=True,
              help="Interpret a stochastic matrix as row-stochastic.")
def validate(map_file: str, tol: float | None, as_json: bool, digits: int,
             row_stochastic: bool) -> None:
    """Validate a map file: trace preservation, complete positivity,
    irreducibility certificate and invariant state.

    Exits 0 only for a certified irreducible, trace-preserving map.
    """
    tolerance = _tolerance(tol)
    _, channel = _load_map(map_file, row_stochastic, tolerance)
    try:
        tp = check_trace_preserving(channel, tolerance)
        cp = check_complete_positivity(channel, tolerance)
        sampled = None
        if not cp.ok:
            sampled = positivity_sample(channel, tol=tolerance)
        cert = None
        if tp.ok:
            cert = invariant_state(channel, tolerance)
    except NumericError as exc:
        _abort(EXIT_NUMERIC, str(exc))
    except _MAP_ERRORS as exc:
        _abort(EXIT_MAP, str(exc))

    record = {
        "dim": channel.dim,
        "provenance": channel.provenance,
        "trace_preserving": {"ok": tp.ok, "residual": tp.residual},
        "completely_positive": {
            "ok": cp.ok,
            "min_choi_eigenvalue": cp.min_choi_eigenvalue,
        },
        "irreducibility": None,
        "invariant_state": None,
    }
    if sampled is not None:
        record["positivity_sampling"] = {
            "ok": sampled.ok,
            "failures": sampled.failures,
            "worst_eigenvalue": sampled.worst_eigenvalue,
            "samples": sampled.samples,
            "seed": sampled.seed,
        }
    if cert is not None:
        record["irreducibility"] = {
            "verdict": cert.verdict,
            "fixed_space_dim": cert.fixed_space_dim,
            "min_eigenvalue_of_pi": cert.min_eigenvalue_of_pi,
        }
        if cert.invariant_state is not None:
            record["invariant_state"] = _matrix_json(cert.invariant_state.matrix)

    certified = cert is not None and cert.verdict == CERTIFIED_IRREDUCIBLE
    if as_json:
        _emit_json(record)
    else:
        _echo(f"map file: {map_file}")
        _echo(f"  dim                  {channel.dim}")
        _echo(f"  provenance           {channel.provenance}")
        _echo(
            f"  trace preserving     {'yes' if tp.ok else 'no'} "
            f"(residual {_fmt(tp.residual, digits)})"
        )
        _echo(
            f"  completely positive  {'yes' if cp.ok else 'no'} "
            f"(min Choi eigenvalue {_fmt(cp.min_choi_eigenvalue, digits)})"
        )
        if sampled is not None:
            _echo(
                f"  positivity sampling  {'pass' if sampled.ok else 'FAIL'} "
                f"({sampled.failures} failures in {sampled.samples} samples, "
                f"worst eigenvalue {_fmt(sampled.worst_eigenvalue, digits)})"
            )
        if cert is None:
            _echo("  irreducibility       skipped (map is not trace preserving)")
        else:
            _echo(f"  irreducibility       {cert.verdict}")
            _echo(f"  fixed space dim      {cert.fixed_space_dim}")
            _echo(
                f"  min eigenvalue of pi {_fmt(cert.min_eigenvalue_of_pi, digits)}"
            )
            if cert.invariant_state is not None:
                _echo("  invariant state:")
                for line in _matrix_lines(cert.invariant_state.matrix, digits):
                    _echo(line)
    if not (tp.ok and certified):
        sys.exit(EXIT_MAP)


class _Solutions:
    """Lazily memoized solves of one map: one per (subspace, tolerance).

    The fundamental map of the first solve at a tolerance is passed to every
    later solve at that tolerance, so it is computed once per map.
    """

    def __init__(self, channel, cert):
        self.channel, self.cert = channel, cert
        self.fundamentals = {}
        self.solutions = {}

    def get(self, subspace, tol):
        key = (subspace.projector_p.tobytes(), tol)
        if key not in self.solutions:
            hs = solve_hitting(
                self.channel, subspace, self.cert, tol, self.fundamentals.get(tol)
            )
            self.fundamentals[tol] = hs.fd
            self.solutions[key] = hs
        return self.solutions[key]


def _evaluate_query(solutions, query, tolerance, method):
    channel = solutions.channel
    subspace = realize_subspace(query, channel.dim)
    initial = realize_initial(query, channel.dim, tolerance)
    query_tol = query.tol or tolerance
    hs = solutions.get(subspace, query_tol)
    rho = initial.state

    probability = hitting_probability(hs, rho)
    routes: dict[str, float] = {}
    if method in ("direct", "all"):
        routes["direct"] = mean_hitting_time_direct(hs, rho)
    if method in ("mhtf", "mhtf-orthogonal", "all"):
        q = hs.subspace.projector_q
        residual = frobenius(q @ rho.matrix @ q - rho.matrix)
        if method == "mhtf-orthogonal" or residual <= ORTHOGONALITY_TOL:
            routes["mhtf"] = mhtf_orthogonal(hs, rho).tau
        else:
            routes["mhtf"] = mhtf_general(hs, rho)
    if method in ("series", "all"):
        routes["series"] = tau_series(channel, hs.projectors, rho, query_tol)

    record = {
        "method": method,
        "tau": routes["direct"] if "direct" in routes else next(iter(routes.values())),
        "routes": routes,
        "hitting_probability": probability,
        "hitting_probability_residual": abs(probability - 1.0),
        "normalization": {
            "factor": initial.normalization,
            "input": initial.description,
        },
        "diagnostics": {
            "spectral_radius_qphi": hs.spectral_radius_qphi,
            "condition_estimate": hs.condition_estimate,
        },
    }
    if method == "all":
        values = list(routes.values())
        record["max_route_deviation"] = max(values) - min(values)
    return record


def _print_hit_record(record, index: int, total: int, digits: int) -> None:
    if total > 1:
        _echo(f"query {index + 1}:")
        pad = "  "
    else:
        pad = ""
    _echo(f"{pad}method                 {record['method']}")
    _echo(f"{pad}tau                    {_fmt(record['tau'], digits)}")
    for name in ("direct", "mhtf", "series"):
        if name in record["routes"]:
            _echo(f"{pad}  {name:<20} {_fmt(record['routes'][name], digits)}")
    if "max_route_deviation" in record:
        _echo(
            f"{pad}max route deviation    "
            f"{_fmt(record['max_route_deviation'], digits)}"
        )
    _echo(
        f"{pad}hitting probability    {_fmt(record['hitting_probability'], digits)} "
        f"(residual {_fmt(record['hitting_probability_residual'], digits)})"
    )
    _echo(
        f"{pad}normalization          {_fmt(record['normalization']['factor'], digits)} "
        f"({record['normalization']['input']})"
    )
    diag = record["diagnostics"]
    _echo(
        f"{pad}spectral radius (QT)   {_fmt(diag['spectral_radius_qphi'], digits)}"
    )
    _echo(
        f"{pad}condition estimate     {_fmt(diag['condition_estimate'], digits)}"
    )


@main.command()
@click.argument("map_file", type=click.Path(dir_okay=False))
@click.argument("query_file", type=click.Path(dir_okay=False))
@click.option("--method", type=click.Choice(METHODS), default=None,
              help="Override the method of every query.")
@click.option("--tol", type=float, default=None, help="Override atol and rtol.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON records.")
@click.option("--digits", type=int, default=12, show_default=True,
              help="Display precision (human output only).")
@click.option("--row-stochastic", is_flag=True,
              help="Interpret a stochastic matrix as row-stochastic.")
def hit(map_file: str, query_file: str, method: str | None, tol: float | None,
        as_json: bool, digits: int, row_stochastic: bool) -> None:
    """Evaluate hitting-time queries from QUERY_FILE against MAP_FILE.

    Methods: direct (resolvent trace), mhtf (fundamental-map formula,
    orthogonal or first-step-conditioned as appropriate), mhtf-orthogonal
    (force the orthogonal formula), series (monitored-evolution summation),
    all (every route plus their maximum deviation).
    """
    tolerance = _tolerance(tol)
    _, channel = _load_map(map_file, row_stochastic, tolerance)
    try:
        queries = load_query_file(query_file)
    except ParseError as exc:
        _abort(EXIT_PARSE, str(exc))
    try:
        cert = invariant_state(channel, tolerance)
    except _MAP_ERRORS as exc:
        _abort(EXIT_MAP, str(exc))
    if cert.verdict != CERTIFIED_IRREDUCIBLE:
        _abort(
            EXIT_MAP,
            f"map is not certified irreducible (verdict: {cert.verdict})",
        )

    # Queries are answered in input order, so the first failing one sets the
    # exit code; those sharing a subspace and tolerance share one solve.
    solutions = _Solutions(channel, cert)
    records = []
    for query in queries:
        try:
            records.append(
                _evaluate_query(solutions, query, tolerance, method or query.method)
            )
        except ParseError as exc:
            _abort(EXIT_PARSE, str(exc))
        except (OrthogonalityError, *_MAP_ERRORS) as exc:
            _abort(EXIT_QUERY, str(exc))
        except NumericError as exc:
            _abort(EXIT_NUMERIC, str(exc))

    if as_json:
        _emit_json(records if len(records) > 1 else records[0])
    else:
        for index, record in enumerate(records):
            _print_hit_record(record, index, len(records), digits)


def _load_chain(map_file: str, row_stochastic: bool, tol: Tolerance | None):
    spec = _load_spec(map_file)
    if spec.kind != "stochastic":
        _abort(EXIT_MAP, "classical commands require a stochastic map file")
    try:
        return build_chain(stochastic_matrix(spec, row_stochastic), tol)
    except _MAP_ERRORS as exc:
        _abort(EXIT_MAP, str(exc))
    except NumericError as exc:
        _abort(EXIT_NUMERIC, str(exc))


def _classical_emit(record, as_json: bool, digits: int) -> None:
    if as_json:
        _emit_json(record)
        return
    _echo(f"command                {record['command']}")
    _echo(f"tau                    {_fmt(record['tau'], digits)}")
    if "return_times" in record:
        _echo("return times:")
        for state, value in sorted(record["return_times"].items()):
            _echo(f"  state {state:<4}           {_fmt(value, digits)}")
        _echo(
            f"anchor independence    "
            f"{_fmt(record['j_independence_residual'], digits)}"
        )
    if "monte_carlo" in record:
        mc = record["monte_carlo"]
        _echo(
            f"monte carlo            {_fmt(mc['mean'], digits)} "
            f"(std error {_fmt(mc['std_error'], digits)}, "
            f"trials {mc['trials']}, seed {mc['seed']})"
        )


def _classical_options(func):
    for option in reversed([
        click.option("--tol", type=float, default=None, help="Override atol and rtol."),
        click.option("--json", "as_json", is_flag=True, help="Emit a JSON record."),
        click.option("--digits", type=int, default=12, show_default=True,
                     help="Display precision (human output only)."),
        click.option("--row-stochastic", is_flag=True,
                     help="Interpret the stochastic matrix as row-stochastic."),
        click.option("--trials", type=int, default=None,
                     help="Also run a Monte-Carlo cross-check with this many trials."),
        click.option("--seed", type=int, default=0, show_default=True,
                     help="Monte-Carlo RNG seed (numpy PCG64)."),
    ]):
        func = option(func)
    return func


def _maybe_monte_carlo(record, chain, start, target, trials, seed):
    if trials is None:
        return
    estimate = classical_monte_carlo(chain.p, start, target, trials, seed)
    record["monte_carlo"] = {
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "trials": estimate.trials,
        "seed": estimate.seed,
    }


@main.group()
def classical() -> None:
    """Classical-chain formulas on a stochastic map file (states are 1-based)."""


@classical.command("mhtf")
@click.argument("map_file", type=click.Path(dir_okay=False))
@click.option("-i", "--initial", "i", type=int, required=True, help="Start state (1-based).")
@click.option("-j", "--target", "j", type=int, required=True, help="Target state (1-based).")
@_classical_options
def classical_mhtf_cmd(map_file, i, j, tol, as_json, digits, row_stochastic,
                       trials, seed) -> None:
    """Mean time of first visit to state j starting from state i."""
    tolerance = _tolerance(tol)
    chain = _load_chain(map_file, row_stochastic, tolerance)
    try:
        tau = classical_mhtf(chain, i - 1, j - 1)
        record = {"command": "mhtf", "i": i, "j": j, "tau": tau}
        _maybe_monte_carlo(record, chain, i - 1, [j - 1], trials, seed)
    except (PreconditionError, ValidationError) as exc:
        _abort(EXIT_QUERY, str(exc))
    except NumericError as exc:
        _abort(EXIT_NUMERIC, str(exc))
    _classical_emit(record, as_json, digits)


@classical.command("kac")
@click.argument("map_file", type=click.Path(dir_okay=False))
@click.option("-j", "--state", "j", type=int, required=True, help="State (1-based).")
@_classical_options
def classical_kac_cmd(map_file, j, tol, as_json, digits, row_stochastic,
                      trials, seed) -> None:
    """Mean return time of state j, the reciprocal stationary weight."""
    tolerance = _tolerance(tol)
    chain = _load_chain(map_file, row_stochastic, tolerance)
    try:
        tau = kac_return_time(chain, j - 1)
        record = {"command": "kac", "j": j, "tau": tau}
        _maybe_monte_carlo(record, chain, j - 1, [j - 1], trials, seed)
    except (PreconditionError, ValidationError) as exc:
        _abort(EXIT_QUERY, str(exc))
    except NumericError as exc:
        _abort(EXIT_NUMERIC, str(exc))
    _classical_emit(record, as_json, digits)


@classical.command("dist")
@click.argument("map_file", type=click.Path(dir_okay=False))
@click.option("-x", "--distribution", "x_spec", type=str, required=True,
              help="Initial distribution, comma-separated (e.g. '0.5,0.5').")
@click.option("-j", "--target", "j", type=int, required=True, help="Target state (1-based).")
@_classical_options
def classical_dist_cmd(map_file, x_spec, j, tol, as_json, digits, row_stochastic,
                       trials, seed) -> None:
    """Mean time to reach state j from an initial distribution."""
    tolerance = _tolerance(tol)
    chain = _load_chain(map_file, row_stochastic, tolerance)
    try:
        x = np.array([float(part) for part in x_spec.split(",")])
    except ValueError:
        _abort(EXIT_PARSE, f"cannot parse distribution {x_spec!r}")
    try:
        tau = classical_mhtf_distribution(chain, x, j - 1)
        record = {"command": "dist", "x": x.tolist(), "j": j, "tau": tau}
        _maybe_monte_carlo(record, chain, x, [j - 1], trials, seed)
    except (PreconditionError, ValidationError) as exc:
        _abort(EXIT_QUERY, str(exc))
    except NumericError as exc:
        _abort(EXIT_NUMERIC, str(exc))
    _classical_emit(record, as_json, digits)


@classical.command("subset")
@click.argument("map_file", type=click.Path(dir_okay=False))
@click.option("-i", "--initial", "i", type=int, required=True, help="Start state (1-based).")
@click.option("-S", "--subset", "subset_spec", type=str, required=True,
              help="Target subset, comma-separated 1-based states (e.g. '2,3').")
@_classical_options
def classical_subset_cmd(map_file, i, subset_spec, tol, as_json, digits,
                         row_stochastic, trials, seed) -> None:
    """Mean time to reach a subset of states, with per-state return times."""
    tolerance = _tolerance(tol)
    chain = _load_chain(map_file, row_stochastic, tolerance)
    try:
        subset = [int(part) for part in subset_spec.split(",")]
    except ValueError:
        _abort(EXIT_PARSE, f"cannot parse subset {subset_spec!r}")
    try:
        result = classical_mhtf_subset(chain, i - 1, [k - 1 for k in subset])
        record = {
            "command": "subset",
            "i": i,
            "subset": sorted(subset),
            "tau": result.tau,
            "return_times": {k + 1: v for k, v in result.return_times.items()},
            "j_independence_residual": result.j_independence_residual,
        }
        _maybe_monte_carlo(
            record, chain, i - 1, [k - 1 for k in subset], trials, seed
        )
    except (PreconditionError, ValidationError) as exc:
        _abort(EXIT_QUERY, str(exc))
    except NumericError as exc:
        _abort(EXIT_NUMERIC, str(exc))
    _classical_emit(record, as_json, digits)


@main.command()
@click.option("--seed", type=int, default=DEFAULT_SELFTEST_SEED, show_default=True,
              help="Seed for the random property checks.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON records.")
def selftest(seed: int, as_json: bool) -> None:
    """Run the embedded golden suite; exits 0 only if every check passes."""
    results = run_selftest(seed)
    if as_json:
        _emit_json(
            [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
        )
    else:
        for result in results:
            status = " ok " if result.ok else "FAIL"
            _echo(f"[{status}] {result.name}: {result.detail}")
    failed = [r.name for r in results if not r.ok]
    if failed:
        _echo(f"failed checks: {', '.join(failed)}", err=True)
        sys.exit(EXIT_SELFTEST)


if __name__ == "__main__":  # pragma: no cover
    main()
