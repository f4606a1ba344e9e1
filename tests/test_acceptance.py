"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output) and enforces the stated runtime budget where one applies.
"""

import time

import numpy as np

import golden
from conftest import complement_basis
from hittime import (
    build_chain,
    classical_mhtf,
    classical_mhtf_distribution,
    classical_mhtf_subset,
    classical_monte_carlo,
    condition_first_step,
    from_stochastic,
    hitting_probability,
    invariant_state,
    kac_return_time,
    mean_hitting_time_direct,
    mhtf_general,
    mhtf_orthogonal,
    pure_density,
    solve_hitting,
    subspace_from_indices,
    tau_series,
    unvec,
    vec,
)
from hittime.blocks import (
    block,
    dnl,
    fundamental,
    fundamental_identities,
    hitting_maps,
    lift,
    omega,
)
from hittime.examples import (
    qubit_demo_channel,
    qubit_demo_states,
    qubit_demo_subspace,
    qudit_demo_channel,
    qudit_demo_states,
    qudit_demo_subspace,
)
from hittime.sampling import (
    random_column_stochastic,
    random_density_supported,
    random_irreducible_cptp,
    random_subspace,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def max_dev(actual, expected) -> float:
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))


def random_instance(index: int):
    """Seeded random irreducible map with subspace and admissible states."""
    rng = np.random.default_rng(1000 + index)
    n = (2, 3, 4)[index % 3]
    channel, cert = random_irreducible_cptp(n, rng=rng)
    rank = int(rng.integers(1, n))
    subspace = random_subspace(n, rank, rng=rng)
    rho_phi = random_density_supported(complement_basis(subspace.projector_q), rng=rng)
    rho_psi = random_density_supported(subspace.basis, rng=rng)
    return channel, cert, subspace, rho_phi, rho_psi


def test_criterion_1_golden_matrices():
    start = time.perf_counter()
    channel = qubit_demo_channel()
    cert = invariant_state(channel)
    hs = solve_hitting(channel, qubit_demo_subspace(), cert)
    _, k = hitting_maps(channel, hs.subspace)
    pi = cert.fundamental_pi()
    worst = max(
        max_dev(channel.rep, golden.QUBIT_PHI),
        max_dev(omega(pi), golden.QUBIT_OMEGA),
        max_dev(fundamental(channel, pi), golden.QUBIT_Z),
        max_dev(lift(hs.subspace.projector_p), golden.QUBIT_PP),
        max_dev(lift(hs.subspace.projector_q), golden.QUBIT_QQ),
        max_dev(k, golden.QUBIT_K),
        max_dev(block(k, hs.subspace, 1, 2), golden.QUBIT_K12),
    )
    elapsed = time.perf_counter() - start
    report(
        1,
        "golden matrices (qubit demo)",
        worst <= 1e-12 and elapsed < 0.1,
        f"max entrywise deviation {worst:.3e}, runtime {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_golden_scalars():
    channel = qubit_demo_channel()
    hs = solve_hitting(channel, qubit_demo_subspace())
    states = {k: pure_density(v) for k, v in qubit_demo_states().items()}

    direct = mean_hitting_time_direct(hs, states["phi"])
    ortho = mhtf_orthogonal(hs, states["phi"], states["psi"])
    series = tau_series(channel, hs.subspace, states["phi"])
    step = condition_first_step(channel, hs.subspace, states["chi"])
    general = mhtf_general(hs, states["chi"], states["psi"])

    checks = {
        "direct": (abs(direct - 6.0), 1e-9),
        "formula": (abs(ortho.tau - 6.0), 1e-9),
        "summand psi": (abs(ortho.psi_term - 4.0), 1e-9),
        "summand phi": (abs(ortho.phi_term + 2.0), 1e-9),
        "series": (abs(series - 6.0), 1e-8),
        "general route": (abs(general - 2.0), 1e-9),
        "first-step weight": (abs(step.weight - 1.0 / 6.0), 1e-12),
        "first-step state": (
            max_dev(step.next_state.matrix, states["phi"].matrix),
            1e-12,
        ),
    }
    ok = all(dev <= lim for dev, lim in checks.values())
    worst = max(checks.items(), key=lambda kv: kv[1][0] / kv[1][1])
    report(
        2,
        "golden scalars (qubit demo)",
        ok,
        f"worst {worst[0]}: {worst[1][0]:.3e} (limit {worst[1][1]:.0e})",
    )


def test_criterion_3_closed_forms():
    start = time.perf_counter()
    worst_direct = 0.0
    worst_route = 0.0
    for a in (0.28, 0.6, 0.96):
        b = np.sqrt(1.0 - a * a)
        channel = qudit_demo_channel(a)
        hs = solve_hitting(channel, qudit_demo_subspace())
        states = {k: pure_density(v) for k, v in qudit_demo_states().items()}
        tau_phi = mean_hitting_time_direct(hs, states["phi"])
        tau_chi = mean_hitting_time_direct(hs, states["chi"])
        worst_direct = max(
            worst_direct,
            abs(tau_phi - (1.0 + 1.0 / b**2)),
            abs(tau_chi - 2.0 * (1.0 + a / (2 * b) + 1.0 / (4 * b * b))),
        )
        worst_route = max(
            worst_route,
            abs(mhtf_orthogonal(hs, states["phi"]).tau - tau_phi),
            abs(mhtf_general(hs, states["chi"]) - tau_chi),
        )
    elapsed = time.perf_counter() - start
    report(
        3,
        "closed forms (M4 demo, a in {0.28, 0.6, 0.96})",
        worst_direct <= 1e-10 and worst_route <= 1e-9 and elapsed < 1.0,
        f"direct dev {worst_direct:.3e}, route dev {worst_route:.3e}, "
        f"runtime {elapsed * 1e3:.0f} ms",
    )


def _vector_identity_residual(channel, cert, sp, rho_phi, rho_psi) -> float:
    d_rep, n_rep, l_rep = dnl(hitting_maps(channel, sp)[1], channel, sp)
    z = fundamental(channel, cert.fundamental_pi())
    dz, lz = d_rep @ z, l_rep @ z

    def act(rep, rho):
        return unvec(rep @ vec(rho))

    first = act(block(n_rep, sp, 1, 2), rho_phi.matrix) - (
        act(block(dz, sp, 1, 1), rho_psi.matrix)
        - act(block(dz, sp, 1, 2), rho_phi.matrix)
        + act(block(lz, sp, 1, 2), rho_phi.matrix)
        - act(block(lz, sp, 1, 1), rho_psi.matrix)
    )
    second = act(block(n_rep, sp, 2, 1), rho_psi.matrix) - (
        act(block(dz, sp, 2, 2), rho_phi.matrix)
        - act(block(dz, sp, 2, 1), rho_psi.matrix)
        + act(block(lz, sp, 2, 1), rho_psi.matrix)
        - act(block(lz, sp, 2, 2), rho_phi.matrix)
    )
    return max(float(np.max(np.abs(first))), float(np.max(np.abs(second))))


def _first_row_residual(channel, sp) -> float:
    h, k = hitting_maps(channel, sp)
    _, _, l_rep = dnl(k, channel, sp)
    left = np.eye(k.shape[0]) - lift(sp.projector_q)
    return float(np.max(np.abs(left @ l_rep - left @ h)))


def test_criterion_4_identity_suite():
    worst_fundamental = 0.0
    worst_vector = 0.0
    worst_first_row = 0.0

    demo_states = {k: pure_density(v) for k, v in qubit_demo_states().items()}
    qudit_states = {k: pure_density(v) for k, v in qudit_demo_states().items()}
    demo_cases = [
        (
            qubit_demo_channel(),
            qubit_demo_subspace(),
            demo_states["phi"],
            demo_states["psi"],
        ),
        (
            qudit_demo_channel(0.6),
            qudit_demo_subspace(),
            qudit_states["phi"],
            None,
        ),
    ]
    for channel, subspace, rho_phi, rho_psi in demo_cases:
        cert = invariant_state(channel)
        worst_fundamental = max(
            worst_fundamental,
            max(fundamental_identities(cert.fundamental_pi(), channel).values()),
        )
        psi = rho_psi if rho_psi is not None else pure_density(
            qudit_demo_states()["psi1"]
        )
        worst_vector = max(
            worst_vector, _vector_identity_residual(channel, cert, subspace, rho_phi, psi)
        )
        worst_first_row = max(worst_first_row, _first_row_residual(channel, subspace))

    for index in range(50):
        channel, cert, subspace, rho_phi, rho_psi = random_instance(index)
        worst_fundamental = max(
            worst_fundamental,
            max(fundamental_identities(cert.fundamental_pi(), channel).values()),
        )
        worst_vector = max(
            worst_vector, _vector_identity_residual(channel, cert, subspace, rho_phi, rho_psi)
        )
        worst_first_row = max(worst_first_row, _first_row_residual(channel, subspace))

    ok = (
        worst_fundamental <= 1e-10
        and worst_vector <= 1e-10
        and worst_first_row <= 1e-10
    )
    report(
        4,
        "identity suite (demos + 50 seeded random maps)",
        ok,
        f"fundamental {worst_fundamental:.3e}, vector {worst_vector:.3e}, "
        f"first-row {worst_first_row:.3e}",
    )


def test_criterion_5_route_equivalence():
    start = time.perf_counter()
    worst_formula = 0.0
    worst_series = 0.0
    worst_probability = 0.0
    for index in range(50):
        channel, cert, subspace, rho_phi, rho_psi = random_instance(index)
        hs = solve_hitting(channel, subspace, cert)
        direct = mean_hitting_time_direct(hs, rho_phi)
        formula = mhtf_orthogonal(hs, rho_phi, rho_psi).tau
        series = tau_series(channel, hs.subspace, rho_phi)
        worst_formula = max(worst_formula, abs(direct - formula))
        worst_series = max(worst_series, abs(direct - series))
        worst_probability = max(
            worst_probability, abs(hitting_probability(hs, rho_phi) - 1.0)
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_formula <= 1e-9
        and worst_series <= 1e-8
        and worst_probability <= 1e-10
        and elapsed < 30.0
    )
    report(
        5,
        "route equivalence (50 seeded random maps)",
        ok,
        f"|direct-formula| {worst_formula:.3e}, |direct-series| {worst_series:.3e}, "
        f"|prob-1| {worst_probability:.3e}, runtime {elapsed:.2f} s",
    )


def test_criterion_6_reference_independence():
    worst_psi = 0.0
    for index in range(50):
        channel, cert, subspace, rho_phi, _ = random_instance(index)
        hs = solve_hitting(channel, subspace, cert)
        rng = np.random.default_rng(5000 + index)
        values = [
            mhtf_orthogonal(
                hs, rho_phi, random_density_supported(subspace.basis, rng=rng)
            ).psi_term
            for _ in range(20)
        ]
        worst_psi = max(worst_psi, max(values) - min(values))

    worst_j = 0.0
    for index in range(12):
        rng = np.random.default_rng(6000 + index)
        n = int(rng.integers(4, 9))
        chain = build_chain(random_column_stochastic(n, rng=rng))
        size = int(rng.integers(2, 4))
        members = rng.choice(n, size=size + 1, replace=False)
        i, subset = int(members[0]), sorted(int(k) for k in members[1:])
        result = classical_mhtf_subset(chain, i, subset)
        worst_j = max(worst_j, result.j_independence_residual)

    ok = worst_psi <= 1e-10 and worst_j <= 1e-9
    report(
        6,
        "reference-state and anchor-state independence",
        ok,
        f"psi-variation {worst_psi:.3e}, anchor-variation {worst_j:.3e}",
    )


def test_criterion_7_classical_agreement():
    start = time.perf_counter()
    worst_pair = 0.0
    worst_kac = 0.0
    worst_sigma = 0.0
    for index in range(20):
        rng = np.random.default_rng(7000 + index)
        n = 2 + index % 7
        chain = build_chain(random_column_stochastic(n, rng=rng))
        embedded = from_stochastic(chain.p)
        cert = invariant_state(embedded)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        unit = np.eye(n)

        hs = solve_hitting(embedded, subspace_from_indices(n, [j]), cert)
        worst_pair = max(
            worst_pair,
            abs(
                classical_mhtf(chain, i, j)
                - mean_hitting_time_direct(hs, pure_density(unit[:, i]))
            ),
        )
        worst_kac = max(
            worst_kac,
            abs(
                kac_return_time(chain, j)
                - mean_hitting_time_direct(hs, pure_density(unit[:, j]))
            ),
        )

        if n >= 3:
            others = [k for k in range(n) if k != i]
            subset = sorted(
                int(v) for v in rng.choice(others, size=min(2, len(others)), replace=False)
            )
        else:
            subset = [j]
        subset_result = classical_mhtf_subset(chain, i, subset)
        x = rng.dirichlet(np.ones(n))
        dist_value = classical_mhtf_distribution(chain, x, j)

        mc_cases = [
            (classical_mhtf(chain, i, j), i, [j]),
            (kac_return_time(chain, j), j, [j]),
            (dist_value, x, [j]),
            (subset_result.tau, i, subset),
        ]
        for analytic, mc_start, mc_target in mc_cases:
            estimate = classical_monte_carlo(
                chain.p, mc_start, mc_target, trials=100_000, seed=9000 + index
            )
            if estimate.std_error > 0:
                worst_sigma = max(
                    worst_sigma, abs(estimate.mean - analytic) / estimate.std_error
                )
            else:
                worst_sigma = max(worst_sigma, abs(estimate.mean - analytic) * 1e9)
    elapsed = time.perf_counter() - start
    ok = (
        worst_pair <= 1e-8
        and worst_kac <= 1e-8
        and worst_sigma <= 4.0
        and elapsed < 60.0
    )
    report(
        7,
        "classical agreement (20 seeded random chains)",
        ok,
        f"pairwise {worst_pair:.3e}, return {worst_kac:.3e}, "
        f"monte-carlo {worst_sigma:.2f} sigma, runtime {elapsed:.1f} s",
    )


def test_criterion_8_convention_lock():
    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(8000 + seed)
        a, b, x = (
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(3)
        )
        worst = max(worst, max_dev(vec(a @ x @ b.T), np.kron(a, b) @ vec(x)))
    report(
        8,
        "row-stacking convention lock",
        worst <= 1e-12,
        f"max deviation {worst:.3e} over 25 random triples",
    )
