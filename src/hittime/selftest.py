"""Embedded verification suite behind the ``selftest`` CLI command.

Runs the golden regression checks (demo channels with exactly known
matrices and hitting times), the fundamental-map identity residuals, and
seeded random route-equivalence and classical-embedding properties.  The
golden matrices and the identities come from the dense reference route of
:mod:`hittime.blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import examples
from .blocks import block, fundamental, fundamental_identities, hitting_maps, lift, omega
from .classical import build_chain, classical_mhtf, classical_mhtf_subset, kac_return_time
from .fundamental import fundamental_map
from .hitting import (
    condition_first_step,
    hitting_probability,
    mean_hitting_time_direct,
    mhtf_general,
    mhtf_orthogonal,
    solve_hitting,
    subspace_from_indices,
)
from .maps import from_stochastic, invariant_state, pure_density
from .oracle import tau_series
from .sampling import (
    as_rng,
    random_column_stochastic,
    random_density_supported,
    random_irreducible_cptp,
    random_subspace,
)

__all__ = ["CheckResult", "run_selftest", "DEFAULT_SELFTEST_SEED"]

DEFAULT_SELFTEST_SEED = 20240817

@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _result(name: str, items: dict[str, tuple[float, float]]) -> CheckResult:
    """Summarize labelled (deviation, limit) pairs into one check result."""
    worst_label, (worst_dev, worst_limit) = max(
        items.items(), key=lambda kv: kv[1][0] / kv[1][1]
    )
    ok = all(dev <= limit for dev, limit in items.values())
    detail = f"worst: {worst_label} at {worst_dev:.3e} (limit {worst_limit:.1e})"
    return CheckResult(name, ok, detail)


def _dev(actual, expected) -> float:
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))


def _qubit_solution():
    channel = examples.qubit_demo_channel()
    subspace = examples.qubit_demo_subspace()
    return channel, subspace, solve_hitting(channel, subspace)


def check_qubit_golden_matrices() -> CheckResult:
    channel, subspace, hs = _qubit_solution()
    _, k = hitting_maps(channel, subspace)
    lim = 1e-12
    items = {
        "map representation": (_dev(channel.rep, examples.QUBIT_PHI), lim),
        "omega": (_dev(omega(hs.fd.pi), examples.QUBIT_OMEGA), lim),
        "fundamental matrix": (_dev(fundamental(hs.fd), examples.QUBIT_Z), lim),
        "subspace projector": (_dev(lift(subspace.projector_p), examples.QUBIT_PP), lim),
        "complement projector": (_dev(lift(subspace.projector_q), examples.QUBIT_QQ), lim),
        "time map": (_dev(k, examples.QUBIT_K), lim),
        "time map off-diagonal block": (_dev(block(k, subspace, 1, 2), examples.QUBIT_K12), lim),
    }
    return _result("qubit golden matrices", items)


def check_qubit_hitting_times() -> CheckResult:
    channel, subspace, hs = _qubit_solution()
    states = examples.qubit_demo_states()
    rho_phi = pure_density(states["phi"])
    rho_psi = pure_density(states["psi"])
    rho_chi = pure_density(states["chi"])

    direct = mean_hitting_time_direct(hs, rho_phi)
    ortho = mhtf_orthogonal(hs, rho_phi, rho_psi)
    series = tau_series(channel, subspace, rho_phi)
    first = condition_first_step(channel, subspace, rho_chi)
    items = {
        "direct time": (abs(direct - 6.0), 1e-9),
        "formula time": (abs(ortho.tau - 6.0), 1e-9),
        "return summand": (abs(ortho.psi_term - 4.0), 1e-9),
        "start summand": (abs(ortho.phi_term - (-2.0)), 1e-9),
        "series time": (abs(series - 6.0), 1e-8),
        "hitting probability": (abs(hitting_probability(hs, rho_phi) - 1.0), 1e-10),
        "direct time (chi)": (abs(mean_hitting_time_direct(hs, rho_chi) - 2.0), 1e-9),
        "general formula (chi)": (abs(mhtf_general(hs, rho_chi, rho_psi) - 2.0), 1e-9),
        "first-step weight": (abs(first.weight - 1.0 / 6.0), 1e-12),
        "first-step state": (_dev(first.next_state.matrix, rho_phi.matrix), 1e-12),
    }
    return _result("qubit hitting times", items)


def check_qudit_closed_forms(a: float) -> CheckResult:
    channel = examples.qudit_demo_channel(a)
    hs = solve_hitting(channel, examples.qudit_demo_subspace())
    states = examples.qudit_demo_states()
    rho_phi = pure_density(states["phi"])
    rho_chi = pure_density(states["chi"])

    tau_phi = mean_hitting_time_direct(hs, rho_phi)
    ortho = mhtf_orthogonal(hs, rho_phi)  # uniform reference state on V
    tau_chi = mean_hitting_time_direct(hs, rho_chi)
    general = mhtf_general(hs, rho_chi)
    series = tau_series(channel, hs.subspace, rho_phi)
    items = {
        "direct vs closed form": (abs(tau_phi - examples.qudit_tau_phi(a)), 1e-10),
        "formula vs direct": (abs(ortho.tau - tau_phi), 1e-9),
        "return summand": (abs(ortho.psi_term - examples.qudit_psi_term(a)), 1e-9),
        "start summand": (abs(ortho.phi_term - examples.qudit_phi_term(a)), 1e-9),
        "chi direct vs closed form": (abs(tau_chi - examples.qudit_tau_chi(a)), 1e-10),
        "chi general vs direct": (abs(general - tau_chi), 1e-9),
        "series vs direct": (abs(series - tau_phi), 1e-8),
    }
    return _result(f"closed forms on M4 (a={a})", items)


def check_fundamental_identities() -> CheckResult:
    items = {}
    for label, channel in (
        ("qubit demo", examples.qubit_demo_channel()),
        ("M4 demo", examples.qudit_demo_channel(0.6)),
    ):
        cert = invariant_state(channel)
        fd = fundamental_map(channel, cert)
        items[label] = (max(fundamental_identities(fd, channel).values()), 1e-10)
    return _result("fundamental map identities", items)


def check_route_equivalence(seed: int, instances: int = 12) -> CheckResult:
    rng = as_rng(seed)
    items = {}
    for count in range(instances):
        n = (2, 3, 4)[count % 3]
        channel, cert = random_irreducible_cptp(n, rng=rng)
        rank = int(rng.integers(1, n))
        subspace = random_subspace(n, rank, rng=rng)
        hs = solve_hitting(channel, subspace, cert)
        rho_phi = random_density_supported(subspace.complement_basis, rng=rng)
        rho_psi = random_density_supported(subspace.basis, rng=rng)
        direct = mean_hitting_time_direct(hs, rho_phi)
        ortho = mhtf_orthogonal(hs, rho_phi, rho_psi)
        series = tau_series(channel, subspace, rho_phi)
        label = f"instance {count} (n={n})"
        items[f"{label} formula"] = (abs(direct - ortho.tau), 1e-9)
        items[f"{label} series"] = (abs(direct - series), 1e-8)
        items[f"{label} probability"] = (
            abs(hitting_probability(hs, rho_phi) - 1.0),
            1e-10,
        )
    return _result("route equivalence on seeded random maps", items)


def check_classical_embedding(seed: int, instances: int = 5) -> CheckResult:
    rng = as_rng(seed)
    items = {}
    for count in range(instances):
        n = int(rng.integers(3, 7))
        chain = build_chain(random_column_stochastic(n, rng=rng))
        embedded = from_stochastic(chain.p)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        hs = solve_hitting(embedded, subspace_from_indices(n, [j]))
        unit = np.eye(n)
        label = f"chain {count} (n={n})"
        items[f"{label} hit"] = (
            abs(
                classical_mhtf(chain, i, j)
                - mean_hitting_time_direct(hs, pure_density(unit[:, i]))
            ),
            1e-8,
        )
        items[f"{label} return"] = (
            abs(
                kac_return_time(chain, j)
                - mean_hitting_time_direct(hs, pure_density(unit[:, j]))
            ),
            1e-8,
        )
        others = [k for k in range(n) if k != i]
        subset = sorted(int(v) for v in rng.choice(others, size=2, replace=False))
        result = classical_mhtf_subset(chain, i, subset)
        hs_sub = solve_hitting(embedded, subspace_from_indices(n, subset))
        items[f"{label} subset"] = (
            abs(
                result.tau
                - tau_series(embedded, hs_sub.subspace, pure_density(unit[:, i]))
            ),
            1e-8,
        )
    return _result("classical embedding on seeded random chains", items)


def run_selftest(seed: int = DEFAULT_SELFTEST_SEED) -> list[CheckResult]:
    """Run every embedded check; deterministic for a fixed seed.

    A check that raises is reported as failed rather than aborting the run.
    """
    checks = [
        ("qubit golden matrices", check_qubit_golden_matrices),
        ("qubit hitting times", check_qubit_hitting_times),
        ("closed forms on M4 (a=0.6)", lambda: check_qudit_closed_forms(0.6)),
        ("closed forms on M4 (a=0.28)", lambda: check_qudit_closed_forms(0.28)),
        ("closed forms on M4 (a=0.96)", lambda: check_qudit_closed_forms(0.96)),
        ("fundamental map identities", check_fundamental_identities),
        ("route equivalence on seeded random maps", lambda: check_route_equivalence(seed)),
        (
            "classical embedding on seeded random chains",
            lambda: check_classical_embedding(seed + 1),
        ),
    ]
    results = []
    for name, check in checks:
        try:
            results.append(check())
        except Exception as exc:  # a crashed check is a failed check
            results.append(
                CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
            )
    return results
