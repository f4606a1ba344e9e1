"""Monitored first visits to a subspace: hitting and return time machinery.

Monitoring means a projective check after every application of the map T: the
process survives step r with the compressed state (QT)^r rho, where Q(X) = QXQ
projects onto the complement of the arrival subspace V.  The maps

    H = T (I - QT)^{-1},          (hitting probability map)
    K = T (I - QT)^{-2},          (mean hitting time map)

collect the whole monitored evolution:  Tr((I - Q) H rho) is the probability
of ever reaching V and Tr((I - Q) K rho) the expected time of the first visit.
The block decomposition induced by I - Q and Q links K to the fundamental map
Z and yields the mean hitting time formula used by :func:`mhtf_orthogonal`
and :func:`mhtf_general`.

Every answer is a linear functional of the start state, <l, vec(rho)> for a
fixed covector l, so :func:`solve_hitting` keeps only the covectors, found by
transposed vector solves against I - QT.  The dense H, K, their blocks and
D, N, L live in :mod:`hittime.blocks`, the reference route of the identity
and golden checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericError, OrthogonalityError, ValidationError
from .fundamental import FundamentalData, fundamental_map
from .linalg import (
    COND_CEIL,
    DEFAULT_TOL,
    MIN_SPECTRAL_GAP,
    Tolerance,
    frobenius,
    hermitian_form,
    hermitize,
    survival_radius,
    unvec,
    vec,
)
from .maps import (
    DensityMatrix,
    IrreducibilityCertificate,
    SuperOperator,
    as_density,
    density,
    invariant_state,
)

__all__ = [
    "ArrivalSubspace",
    "HittingSolution",
    "OrthogonalMhtf",
    "FirstStep",
    "ORTHOGONALITY_TOL",
    "subspace_from_vectors",
    "subspace_from_indices",
    "solve_hitting",
    "hitting_probability",
    "mean_hitting_time_direct",
    "mhtf_orthogonal",
    "condition_first_step",
    "mhtf_general",
]

# User-supplied states carry entry round-off, so support preconditions are
# checked against a residual looser than the numerical tolerance.
ORTHOGONALITY_TOL = 1e-8

# A solve with condition number c loses about c unit roundoffs of relative
# accuracy (Higham, Accuracy and Stability of Numerical Algorithms, ch. 7).
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


@dataclass(frozen=True, eq=False)
class ArrivalSubspace:
    """Orthogonal projector pair (P, Q = I - P) for a proper nonzero subspace.

    :meth:`compress` applies X -> QXQ, which is QQ = Q (x) conj(Q) on
    row-stacked vecs, without forming that n^2 x n^2 matrix;
    :func:`hittime.blocks.lift` builds the dense lifts for the reference checks.
    """

    dim_ambient: int
    rank: int
    projector_p: np.ndarray
    projector_q: np.ndarray
    basis: np.ndarray  # n x rank, orthonormal columns spanning the subspace
    complement_basis: np.ndarray  # n x (n - rank), orthonormal columns spanning range(Q)

    def compress(self, x: np.ndarray) -> np.ndarray:
        """QQ x, for x a vec or a matrix of n^2 rows such as a rep.

        Q acts on the two matrix indices of each column in turn: O(n^3) per
        column instead of the O(n^4) of the dense QQ.
        """
        n, q = self.dim_ambient, self.projector_q
        if x.shape[0] != n * n:
            raise DimensionError(f"expected {n * n} rows, got shape {x.shape}")
        y = (q @ x.reshape(n, -1)).reshape(n, n, -1)
        return (q.conj() @ y).reshape(x.shape)

    def compress_covector(self, covector: np.ndarray) -> np.ndarray:
        """l QQ = vec(conj(Q) L conj(Q)) for the covector l = vec(L)."""
        n, qc = self.dim_ambient, self.projector_q.conj()
        return (qc @ covector.reshape(n, n) @ qc).reshape(-1)


@dataclass(frozen=True, eq=False)
class HittingSolution:
    """Everything needed to answer hitting-time queries for one (map, subspace).

    Each query is a pairing <l, vec(rho)> with one of the covectors (row
    vectors) below, with e = vec(I):

    - ``probability_covector``  e (I - QQ) H   (hitting probability)
    - ``time_covector``         e (I - QQ) K   (direct mean time)
    - ``trace_covector``        e H            (cross-check of the direct time)
    - ``return_covector``       e K11 Z (I - QQ)   (return summand of the mhtf)
    - ``start_covector``        e K11 Z QQ         (start summand of the mhtf)

    It holds no dense map: :func:`hittime.blocks.hitting_maps` builds H and K
    for the reference checks.
    """

    map: SuperOperator
    subspace: ArrivalSubspace
    fd: FundamentalData
    probability_covector: np.ndarray
    time_covector: np.ndarray
    trace_covector: np.ndarray
    return_covector: np.ndarray
    start_covector: np.ndarray
    spectral_radius_qphi: float
    condition_estimate: float
    tol: Tolerance


class OrthogonalMhtf(NamedTuple):
    tau: float
    psi_term: float  # Tr((DZ)_11 rho_psi), independent of rho_psi
    phi_term: float  # Tr((DZ)_12 rho_phi)


class FirstStep(NamedTuple):
    absorbed: bool
    weight: float
    next_state: DensityMatrix | None


def subspace_from_vectors(vectors, tol: Tolerance | None = None) -> ArrivalSubspace:
    """Arrival subspace spanned by the given vectors.

    The vectors are orthonormalized; linear dependence is collapsed.  The
    span must be proper and nonzero.
    """
    if tol is None:
        tol = DEFAULT_TOL
    cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not cols:
        raise ValidationError("at least one spanning vector is required")
    n = cols[0].size
    for v in cols:
        if v.size != n:
            raise DimensionError("spanning vectors have mixed lengths")
    a = np.column_stack(cols)
    u, sing, _ = np.linalg.svd(a)
    if sing.size == 0 or sing[0] <= tol.atol:
        raise ValidationError("spanning vectors span the zero subspace")
    rank = int(np.sum(sing > tol.atol + tol.rtol * sing[0]))
    if rank >= n:
        raise ValidationError(
            "arrival subspace must be proper (a nontrivial subspace is required)"
        )
    basis = u[:, :rank]
    p = hermitize(basis @ basis.conj().T)
    return ArrivalSubspace(n, rank, p, np.eye(n) - p, basis, u[:, rank:])


def subspace_from_indices(n: int, indices) -> ArrivalSubspace:
    """Arrival subspace spanned by computational basis states (0-based indices)."""
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise ValidationError("at least one basis index is required")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValidationError(f"basis indices must lie in [0, {n - 1}]")
    if len(idx) >= n:
        raise ValidationError(
            "arrival subspace must be proper (a nontrivial subspace is required)"
        )
    eye = np.eye(n, dtype=complex)
    p = np.zeros((n, n), dtype=complex)
    p[idx, idx] = 1.0
    rest = np.setdiff1d(np.arange(n), idx)
    return ArrivalSubspace(n, len(idx), p, np.eye(n) - p, eye[:, idx], eye[:, rest])


def _survival_resolvent(
    t: SuperOperator, subspace: ArrivalSubspace
) -> tuple[np.ndarray, float, float]:
    """I - QT, with the spectral radius of QT and the condition of I - QT.

    Raises :class:`NumericError` unless the monitored evolution contracts and
    the resolvent is well conditioned.
    """
    radius = survival_radius(t.rep, subspace.complement_basis, t.provenance == "kraus")
    if radius >= 1.0 - MIN_SPECTRAL_GAP:
        raise NumericError(
            f"monitored evolution does not contract: spectral radius of the "
            f"survival map is {radius:.12g} (map reducible or subspace trivial)"
        )
    m = np.eye(t.rep.shape[0]) - subspace.compress(t.rep)
    cond = float(np.linalg.cond(hermitian_form(m)))
    if not np.isfinite(cond) or cond > COND_CEIL:
        raise NumericError(
            f"survival resolvent is singular to working precision "
            f"(condition estimate {cond:.3e}, spectral radius {radius:.12g})"
        )
    return m, radius, cond


def solve_hitting(
    t: SuperOperator,
    subspace: ArrivalSubspace,
    cert: IrreducibilityCertificate | None = None,
    tol: Tolerance | None = None,
    fd: FundamentalData | None = None,
) -> HittingSolution:
    """Query covectors for one (map, subspace).

    ``fd`` is the fundamental map of ``t``; pass it to share one across the
    subspaces of a map, otherwise it is computed here (from ``cert`` when
    given).  The covectors come from two transposed solves against I - QT:
    one for the probability and trace rows, one for the time row.
    """
    if tol is None:
        tol = DEFAULT_TOL
    if subspace.dim_ambient != t.dim:
        raise DimensionError(
            f"subspace lives in dimension {subspace.dim_ambient}, map in {t.dim}"
        )
    if fd is None:
        if cert is None:
            cert = invariant_state(t, tol)
        fd = fundamental_map(t, cert, tol)
    m, radius, cond = _survival_resolvent(t, subspace)
    # A covector l with l (I - QT) = r solves (I - QT)^T l = r.
    trace_row = vec(np.eye(t.dim))
    # e (I - QQ) = vec(conj(P)): e QQ = vec(conj(Q)^2) = vec(conj(Q)) for e = vec(I).
    first_row = vec(subspace.projector_p.conj())
    probability, trace = np.linalg.solve(
        m.T, np.column_stack([first_row @ t.rep, trace_row @ t.rep])
    ).T
    time = np.linalg.solve(m.T, probability)
    # e K11 = e (I - QQ) K (I - QQ)
    k11_row = time - subspace.compress_covector(time)
    kz = fd.z_covector(k11_row)
    start = subspace.compress_covector(kz)
    return HittingSolution(
        map=t,
        subspace=subspace,
        fd=fd,
        probability_covector=probability,
        time_covector=time,
        trace_covector=trace,
        return_covector=kz - start,
        start_covector=start,
        spectral_radius_qphi=radius,
        condition_estimate=cond,
        tol=tol,
    )


def _pair(covector: np.ndarray, w: np.ndarray) -> float:
    """Real part of <covector, w>, a trace functional of the vectorized w."""
    return float(np.real(covector @ w))


def hitting_probability(hs: HittingSolution, rho) -> float:
    """Probability of ever reaching the subspace: Tr((I - Q) H rho).

    Equals 1 for certified irreducible maps; the residual from 1 is a useful
    numerical health indicator.
    """
    state = as_density(rho, hs.tol)
    return _pair(hs.probability_covector, vec(state.matrix))


def mean_hitting_time_direct(hs: HittingSolution, rho) -> float:
    """Mean time of first visit, Tr((I - Q) K rho).

    The equivalent resolvent expression Tr(H rho) is evaluated as a built-in
    cross-check; a deviation beyond the tolerance or beyond the forward error
    the condition of I - QT allows signals numerical breakdown.
    """
    state = as_density(rho, hs.tol)
    w = vec(state.matrix)
    tau = _pair(hs.time_covector, w)
    cross = _pair(hs.trace_covector, w)
    rel = max(hs.tol.atol, hs.condition_estimate * _UNIT_ROUNDOFF)
    if abs(tau - cross) > rel * max(1.0, abs(tau)):
        raise NumericError(
            f"mean hitting time cross-check failed: {tau!r} vs {cross!r}"
        )
    return tau


def _require_supported(label: str, residual: float) -> None:
    if residual > ORTHOGONALITY_TOL:
        raise OrthogonalityError(
            f"{label} violates its support precondition (residual {residual:.3e})"
        )


def _reference_state(hs: HittingSolution, rho_psi) -> DensityMatrix:
    """rho_psi checked to be supported in V, or by default the normalized projector."""
    p = hs.subspace.projector_p
    if rho_psi is None:
        return DensityMatrix(p / hs.subspace.rank)
    state = as_density(rho_psi, hs.tol)
    _require_supported(
        "arrival-side state", frobenius(p @ state.matrix @ p - state.matrix)
    )
    return state


def mhtf_orthogonal(
    hs: HittingSolution,
    rho_phi,
    rho_psi=None,
) -> OrthogonalMhtf:
    """Mean hitting time via the fundamental map, for starts orthogonal to V.

    Requires Q rho_phi Q = rho_phi (start supported in the complement) and
    P rho_psi P = rho_psi (reference state supported in V; defaults to the
    normalized projector).  Returns

        tau = Tr((DZ)_11 rho_psi) - Tr((DZ)_12 rho_phi)

    together with the two summands; the first one does not depend on the
    choice of rho_psi.
    """
    phi_state = as_density(rho_phi, hs.tol)
    q = hs.subspace.projector_q
    _require_supported(
        "initial state", frobenius(q @ phi_state.matrix @ q - phi_state.matrix)
    )
    psi_state = _reference_state(hs, rho_psi)
    # Tr((DZ)_11 x) and Tr((DZ)_12 x) are the return and start covectors:
    # e (I - QQ) D = e K11.
    psi_term = _pair(hs.return_covector, vec(psi_state.matrix))
    phi_term = _pair(hs.start_covector, vec(phi_state.matrix))
    return OrthogonalMhtf(psi_term - phi_term, psi_term, phi_term)


def condition_first_step(
    t: SuperOperator,
    subspace: ArrivalSubspace,
    rho,
    tol: Tolerance | None = None,
) -> FirstStep:
    """One monitored step: either absorbed into V, or the surviving state.

    Computes sigma = Q T rho.  If sigma vanishes the walk is absorbed at the
    first step (mean hitting time 1); otherwise the surviving weight Tr(sigma)
    and the renormalized state sigma / Tr(sigma) are returned, satisfying
    tau(rho) = 1 + Tr(sigma) * tau(sigma / Tr(sigma)).
    """
    if tol is None:
        tol = DEFAULT_TOL
    state = as_density(rho, tol)
    sigma = unvec(subspace.compress(t.rep @ vec(state.matrix)))
    if frobenius(sigma) <= tol.atol:
        return FirstStep(True, 0.0, None)
    weight = float(np.trace(sigma).real)
    next_state = density(hermitize(sigma) / weight, Tolerance(ORTHOGONALITY_TOL, ORTHOGONALITY_TOL))
    return FirstStep(False, weight, next_state)


def mhtf_general(
    hs: HittingSolution,
    rho,
    rho_psi=None,
) -> float:
    """Mean hitting time via the fundamental map for an arbitrary start.

    Conditions on the first monitored step:

        tau = 1 + Tr(K11 Z11 rho_psi) Tr(Q T rho) - Tr(K11 Z12 Q T rho),

    where rho_psi is any density supported in V (defaults to the normalized
    projector; the value does not depend on the choice).  An absorbed first
    step gives tau = 1 exactly.
    """
    state = as_density(rho, hs.tol)
    psi_state = _reference_state(hs, rho_psi)
    sigma_vec = hs.subspace.compress(hs.map.rep @ vec(state.matrix))
    if float(np.linalg.norm(sigma_vec)) <= hs.tol.atol:
        return 1.0
    # e K11 Z11 and e K11 Z12 are the return and start covectors.
    weight = _pair(vec(np.eye(hs.map.dim)), sigma_vec)
    psi_term = _pair(hs.return_covector, vec(psi_state.matrix))
    start_term = _pair(hs.start_covector, sigma_vec)
    return 1.0 + psi_term * weight - start_term
