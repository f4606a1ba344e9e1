"""Correctness checker: every answer against the benchmark's own reference.

An answer is one ``hit`` query record, one ``validate`` verdict or one
``classical`` tau.  A request fails on a nonzero exit code, an uncaught
exception, output that is not the expected JSON, or any answer outside the
tolerances below.  A Monte-Carlo mean is accepted within ``MC_SIGMAS``
standard errors of the exact value; its seed is fixed, so the verdict is
deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

RTOL = 1e-6  # relative tolerance on every mean time and return time
PROBABILITY_ATOL = 1e-6  # hitting probabilities of irreducible maps are 1
STATE_ATOL = 1e-6  # entrywise, on the invariant state
MC_SIGMAS = 5.0


@dataclass
class Verdict:
    answers: int
    correct: int
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def _close(label: str, value, ref: float) -> list[str]:
    if isinstance(value, (int, float)) and abs(value - ref) <= RTOL * abs(ref):
        return []
    return [f"{label} = {value!r}, reference {ref!r}"]


def _check_hit(expected: dict, record) -> list[list[str]]:
    records = record if isinstance(record, list) else [record]
    if len(records) != len(expected["tau"]):
        return [["wrong number of query records"]] * len(expected["tau"])
    problems = []
    for k, (rec, tau) in enumerate(zip(records, expected["tau"])):
        found = [p for name, value in rec["routes"].items()
                 for p in _close(f"query {k} {name}", value, tau)]
        if abs(rec["hitting_probability"] - 1.0) > PROBABILITY_ATOL:
            found.append(f"query {k} hitting probability {rec['hitting_probability']!r}")
        problems.append(found)
    return problems


def _check_validate(expected: dict, record) -> list[list[str]]:
    found = [f"{key} not ok" for key in ("trace_preserving", "completely_positive")
             if not record[key]["ok"]]
    if (record["irreducibility"] or {}).get("verdict") != "certified_irreducible":
        found.append(f"irreducibility {record['irreducibility']!r}")
    else:
        pi = np.array(record["invariant_state"])
        pi = pi[..., 0] + 1j * pi[..., 1]
        error = float(np.max(np.abs(pi - expected["pi"])))
        if error > STATE_ATOL:
            found.append(f"invariant state off by {error:.3e}")
    return [found]


def _check_classical(expected: dict, record) -> list[list[str]]:
    tau = expected["tau"]
    found = _close("tau", record["tau"], tau)
    if expected["return_times"] is not None:
        got = record.get("return_times", {})
        if set(got) != set(expected["return_times"]):
            found.append(f"return times for states {sorted(got)}")
        else:
            for state, ref in expected["return_times"].items():
                found += _close(f"return time {state}", got[state], ref)
    if expected["monte_carlo"]:
        mc = record.get("monte_carlo")
        if mc is None:
            found.append("no monte_carlo record")
        elif not abs(mc["mean"] - tau) <= MC_SIGMAS * mc["std_error"]:
            found.append(
                f"monte carlo mean {mc['mean']!r} is more than {MC_SIGMAS:g} standard "
                f"errors ({mc['std_error']!r}) from {tau!r}"
            )
    return [found]


_CHECKERS = {"hit": _check_hit, "validate": _check_validate, "classical": _check_classical}


def check(request, code: int, stdout: str, stderr: str, error: str | None) -> Verdict:
    """Verdict on one request from its exit code, output streams and exception."""
    total = len(request.expected["tau"]) if request.kind == "hit" else 1
    if error is not None:
        return Verdict(total, 0, [f"{request.label}: uncaught exception: {error}"])
    if code != 0:
        return Verdict(total, 0, [f"{request.label}: exit code {code}: {stderr.strip()}"])
    try:
        per_answer = _CHECKERS[request.kind](request.expected, json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(total, 0, [f"{request.label}: unexpected output "
                                  f"({type(exc).__name__}: {exc})"])
    problems = [f"{request.label}: {p}" for answer in per_answer for p in answer]
    return Verdict(total, sum(not answer for answer in per_answer), problems)
