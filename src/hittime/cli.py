"""Command-line front end.

Subcommands: ``validate`` (map file diagnostics), ``hit`` (hitting-time
queries against a map file), ``classical`` (chain formulas: mhtf, kac, dist,
subset) and ``selftest`` (embedded golden suite).  Results are printed as a
human-readable table by default or as a JSON record with ``--json``.

Exit codes: 0 success, 1 parse error, 2 map-validation failure, 3 query
precondition failure, 4 self-test failure, 5 numeric failure.  A library
error is mapped to its code in one place, :func:`_exits`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
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
from .errors import HittimeError, NumericError, ParseError, ValidationError
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
from .linalg import DEFAULT_TOL, Tolerance, frobenius
from .maps import (
    CERTIFIED_IRREDUCIBLE,
    check_complete_positivity,
    check_trace_preserving,
    invariant_state,
    positivity_sample,
)
from .oracle import classical_monte_carlo, tau_series

EXIT_PARSE = 1
EXIT_MAP = 2
EXIT_QUERY = 3
EXIT_SELFTEST = 4
EXIT_NUMERIC = 5
# The seed of the selftest's random property checks.  It lives here, so that
# no other command loads the selftest and the dense reference route it reads.
DEFAULT_SELFTEST_SEED = 20240817


def _echo(message: str, err: bool = False) -> None:
    # An explicit file keeps click from caching a wrapper per sys.stdout
    # object, which keeps every redirected in-process stream alive.
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _abort(code: int, message: str) -> None:
    _echo(f"error: {message}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _exits(stage: int):
    """Exit on a library error: 1 for a parse error, 5 for a numeric failure,
    and ``stage`` for any other: EXIT_MAP while the map file is loaded or
    certified, EXIT_QUERY for a query or a state given on the command line."""
    try:
        yield
    except ParseError as exc:
        _abort(EXIT_PARSE, str(exc))
    except NumericError as exc:
        _abort(EXIT_NUMERIC, str(exc))
    except HittimeError as exc:
        _abort(stage, str(exc))


_SHARED_FLAGS = (
    click.option("--tol", type=float, default=None, help="Override atol and rtol."),
    click.option("--json", "as_json", is_flag=True, help="Emit JSON output."),
    click.option("--digits", type=int, default=12, show_default=True,
                 help="Display precision (human output only)."),
    click.option("--row-stochastic", is_flag=True,
                 help="Interpret a stochastic matrix as row-stochastic."),
)


def _shared_flags(*trailing):
    """Add the shared flags, then ``trailing`` options, to a command.

    --tol and --digits are checked before the command runs (exit 1), and the
    command gets ``tol`` as a Tolerance, ``DEFAULT_TOL`` when it is not given.
    """
    def decorate(command):
        @functools.wraps(command)
        def checked(*, tol, digits, **kwargs):
            if tol is not None and not tol >= 0:  # NaN fails too
                _abort(EXIT_PARSE, "--tol must be non-negative")
            if digits < 0:
                _abort(EXIT_PARSE, "--digits must be non-negative")
            tolerance = DEFAULT_TOL if tol is None else Tolerance(tol, tol)
            return command(tol=tolerance, digits=digits, **kwargs)

        for option in reversed((*_SHARED_FLAGS, *trailing)):
            checked = option(checked)
        return checked
    return decorate


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


def _load_map(map_file: str, row_stochastic: bool, tol: Tolerance):
    with _exits(EXIT_MAP):
        return build_superoperator(load_map_spec(map_file), row_stochastic, tol)


_MAP_FILE = click.argument("map_file", type=click.Path(dir_okay=False))


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Hitting probabilities, mean hitting times and return times for
    trace-preserving maps and classical chains."""


@main.command()
@_MAP_FILE
@_shared_flags()
def validate(map_file: str, tol: Tolerance, as_json: bool, digits: int,
             row_stochastic: bool) -> None:
    """Validate a map file: trace preservation, complete positivity,
    irreducibility certificate and invariant state.

    Exits 0 only for a certified irreducible, trace-preserving map.
    """
    channel = _load_map(map_file, row_stochastic, tol)
    with _exits(EXIT_MAP):
        tp = check_trace_preserving(channel, tol)
        cp = check_complete_positivity(channel, tol)
        sampled = None if cp.ok else positivity_sample(channel, tol=tol)
        cert = invariant_state(channel, tol) if tp.ok else None

    record = {
        "dim": channel.dim,
        "provenance": channel.provenance,
        "trace_preserving": tp._asdict(),
        "completely_positive": cp._asdict(),
        "irreducibility": None,
        "invariant_state": None,
    }
    if sampled is not None:
        record["positivity_sampling"] = sampled._asdict()
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


def _evaluate_query(channel, cert, solutions, query, tolerance, method):
    """One query's record; ``solutions`` memoizes the solves of ``channel`` by
    (subspace as stated: sorted indices or vector bytes, query tolerance), so
    each distinct subspace is realized once."""
    query_tol = query.tol or tolerance
    if query.subspace_indices is not None:
        key = (tuple(sorted(set(query.subspace_indices))), query_tol)
    else:
        key = (tuple(v.tobytes() for v in query.subspace_vectors), query_tol)
    subspace = None if key in solutions else realize_subspace(query, channel.dim)
    initial = realize_initial(query, channel.dim, tolerance)
    if subspace is not None:
        solutions[key] = solve_hitting(channel, subspace, cert, query_tol)
    hs = solutions[key]
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
        routes["series"] = tau_series(channel, hs.subspace, rho, query_tol)

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
@_MAP_FILE
@click.argument("query_file", type=click.Path(dir_okay=False))
@click.option("--method", type=click.Choice(METHODS), default=None,
              help="Override the method of every query.")
@_shared_flags()
def hit(map_file: str, query_file: str, method: str | None, tol: Tolerance,
        as_json: bool, digits: int, row_stochastic: bool) -> None:
    """Evaluate hitting-time queries from QUERY_FILE against MAP_FILE.

    Methods: direct (resolvent trace), mhtf (fundamental-map formula,
    orthogonal or first-step-conditioned as appropriate), mhtf-orthogonal
    (force the orthogonal formula), series (monitored-evolution summation),
    all (every route plus their maximum deviation).
    """
    channel = _load_map(map_file, row_stochastic, tol)
    with _exits(EXIT_QUERY):
        queries = load_query_file(query_file)
    # The map is judged once, under --tol: refused unless trace preserving,
    # certified irreducible and with a fundamental map in working precision.
    # A query's own tolerance governs only that query.
    with _exits(EXIT_MAP):
        cert = invariant_state(channel, tol)
        cert.fundamental_pi()

    # Queries are answered in input order, so the first failing one sets the
    # exit code; those sharing a subspace and tolerance share one solve.
    solutions = {}
    with _exits(EXIT_QUERY):
        records = [
            _evaluate_query(channel, cert, solutions, query, tol, method or query.method)
            for query in queries
        ]

    if as_json:
        _emit_json(records if len(records) > 1 else records[0])
    else:
        for index, record in enumerate(records):
            _print_hit_record(record, index, len(records), digits)


def _load_chain(map_file: str, row_stochastic: bool, tol: Tolerance):
    with _exits(EXIT_MAP):
        spec = load_map_spec(map_file)
        if spec.kind != "stochastic":
            raise ValidationError("classical commands require a stochastic map file")
        return build_chain(stochastic_matrix(spec, row_stochastic), tol)


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


@main.group()
def classical() -> None:
    """Classical-chain formulas on a stochastic map file (states are 1-based)."""


_MONTE_CARLO_OPTIONS = (
    click.option("--trials", type=int, default=None,
                 help="Also run a Monte-Carlo cross-check with this many trials."),
    click.option("--seed", type=int, default=0, show_default=True,
                 help="Monte-Carlo RNG seed (numpy PCG64)."),
)


def _classical_command(name: str, *options):
    """Register ``classical NAME`` around a body that evaluates one formula.

    The body gets the chain and the values of ``options``, and returns the
    record fields, the Monte-Carlo start (a 0-based state or a distribution)
    and the 0-based target states.  The command loads the chain, runs the
    body and the optional ``--trials`` cross-check under the query exit
    code, and prints the record.
    """
    def register(body):
        def command(map_file, tol, as_json, digits, row_stochastic, trials, seed,
                    **values):
            chain = _load_chain(map_file, row_stochastic, tol)
            with _exits(EXIT_QUERY):
                fields, start, target = body(chain, **values)
                record = {"command": name, **fields}
                if trials is not None:
                    record["monte_carlo"] = dataclasses.asdict(
                        classical_monte_carlo(chain.p, start, target, trials, seed, tol)
                    )
            _classical_emit(record, as_json, digits)

        command.__doc__ = body.__doc__
        command = _shared_flags(*_MONTE_CARLO_OPTIONS)(command)
        for option in reversed((_MAP_FILE, *options)):
            command = option(command)
        return classical.command(name)(command)
    return register


def _index(chain, label: str, state: int) -> int:
    """The 0-based index of a 1-based state, refused with a 1-based message."""
    if not 1 <= state <= chain.n:
        raise ValidationError(f"{label} must lie in [1, {chain.n}], got {state}")
    return state - 1


_INITIAL = click.option("-i", "--initial", "i", type=int, required=True,
                        help="Start state (1-based).")
_TARGET = click.option("-j", "--target", "j", type=int, required=True,
                       help="Target state (1-based).")


@_classical_command("mhtf", _INITIAL, _TARGET)
def _mhtf(chain, i, j):
    """Mean time of first visit to state j starting from state i."""
    start, target = _index(chain, "initial state", i), _index(chain, "target state", j)
    return {"i": i, "j": j, "tau": classical_mhtf(chain, start, target)}, start, [target]


@_classical_command(
    "kac",
    click.option("-j", "--state", "j", type=int, required=True, help="State (1-based)."),
)
def _kac(chain, j):
    """Mean return time of state j, the reciprocal stationary weight."""
    state = _index(chain, "state", j)
    return {"j": j, "tau": kac_return_time(chain, state)}, state, [state]


@_classical_command(
    "dist",
    click.option("-x", "--distribution", "x_spec", type=str, required=True,
                 help="Initial distribution, comma-separated (e.g. '0.5,0.5')."),
    _TARGET,
)
def _dist(chain, x_spec, j):
    """Mean time to reach state j from an initial distribution."""
    try:
        x = np.array([float(part) for part in x_spec.split(",")])
    except ValueError:
        raise ParseError(f"cannot parse distribution {x_spec!r}") from None
    target = _index(chain, "target state", j)
    tau = classical_mhtf_distribution(chain, x, target)
    return {"x": x.tolist(), "j": j, "tau": tau}, x, [target]


@_classical_command(
    "subset",
    _INITIAL,
    click.option("-S", "--subset", "subset_spec", type=str, required=True,
                 help="Target subset, comma-separated 1-based states (e.g. '2,3')."),
)
def _subset(chain, i, subset_spec):
    """Mean time to reach a subset of states, with per-state return times."""
    try:
        subset = [int(part) for part in subset_spec.split(",")]
    except ValueError:
        raise ParseError(f"cannot parse subset {subset_spec!r}") from None
    start = _index(chain, "initial state", i)
    targets = [_index(chain, "subset state", k) for k in sorted(set(subset))]
    result = classical_mhtf_subset(chain, start, targets)
    fields = {
        "i": i,
        "subset": sorted(subset),
        "tau": result.tau,
        "return_times": {k + 1: v for k, v in result.return_times.items()},
        "j_independence_residual": result.j_independence_residual,
    }
    return fields, start, targets


@main.command()
@click.option("--seed", type=int, default=DEFAULT_SELFTEST_SEED, show_default=True,
              help="Seed for the random property checks.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON records.")
def selftest(seed: int, as_json: bool) -> None:
    """Run the embedded golden suite; exits 0 only if every check passes."""
    if seed < 0:
        _abort(EXIT_PARSE, "--seed must be non-negative")
    from .selftest import run_selftest

    results = run_selftest(seed)
    if as_json:
        _emit_json([dataclasses.asdict(r) for r in results])
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
