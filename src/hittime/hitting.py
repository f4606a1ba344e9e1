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

Every answer is a linear functional of the start state.  In the Hermitian
basis of a frame W that splits V off (:class:`ArrivalSubspace`), Q is a
coordinate mask, so :func:`solve_hitting` keeps covectors in frame
coordinates, solved against the frame form of T (:func:`~hittime.maps.frame_form`), and
each query pairs them with the coordinates of W* rho W.  The dense H, K,
their blocks and D, N, L live in :mod:`hittime.blocks`, the reference route
of the identity and golden checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericError, OrthogonalityError, ValidationError
from .linalg import (
    COND_CEIL,
    DEFAULT_TOL,
    EPS,
    Tolerance,
    bordered,
    frobenius,
    gamma,
    hermitian_block,
    hermitian_coords,
    hermitian_matrix,
    hermitize,
    spectral_radius,
)
from .maps import (
    DensityMatrix,
    IrreducibilityCertificate,
    SuperOperator,
    apply,
    as_density,
    density,
    frame_form,
    invariant_state,
)

__all__ = [
    "ArrivalSubspace",
    "HittingSolution",
    "OrthogonalMhtf",
    "FirstStep",
    "subspace_from_vectors",
    "subspace_from_indices",
    "solve_hitting",
    "hitting_probability",
    "mean_hitting_time_direct",
    "mhtf_orthogonal",
    "condition_first_step",
    "mhtf_general",
]


@dataclass(frozen=True, eq=False)
class ArrivalSubspace:
    """Orthogonal projector pair (P, Q = I - P) for a proper nonzero subspace, and its frame.

    ``frame`` is the unitary W = [basis, complement_basis], or None for an
    index target, whose frame is the computational basis.  W* Q W is a
    coordinate projector, so in the Hermitian basis of the frame X -> QXQ
    keeps the coordinates ``kept`` and zeroes the rest.
    """

    dim_ambient: int
    rank: int
    projector_p: np.ndarray
    projector_q: np.ndarray
    basis: np.ndarray  # n x rank, orthonormal columns spanning the subspace
    complement_basis: np.ndarray  # n x (n - rank), orthonormal columns spanning range(Q)
    frame: np.ndarray | None
    kept: np.ndarray

    def coords(self, x) -> np.ndarray:
        """Hermitian-basis coordinates of W* X W, for an n x n Hermitian X."""
        if self.frame is not None:
            x = self.frame.conj().T @ x @ self.frame
        return hermitian_coords(x)

    def mask(self, x: np.ndarray) -> np.ndarray:
        """QQ x, or l QQ for a covector l, in frame coordinates: x outside ``kept`` zeroed."""
        y = np.zeros_like(x)
        y[self.kept] = x[self.kept]
        return y

    def radius(self, h: np.ndarray) -> float:
        """The spectral radius of QT, the frame form h (or QT's) with the rows outside ``kept`` zeroed:
        that of h[kept][:, kept], the form of X -> B* T(B X B*) B on M_m, B the complement's basis."""
        return spectral_radius(h[np.ix_(self.kept, self.kept)])


@dataclass(frozen=True, eq=False)
class HittingSolution:
    """Everything needed to answer hitting-time queries for one (map, subspace).

    Each query pairs one of the covectors (row vectors) below with the frame
    coordinates of rho (``subspace.coords``), with e the coordinates of I:

    - ``probability_covector``  e (I - QQ) H   (hitting probability)
    - ``time_covector``         e (I - QT)^-1  (direct mean time, the survival sum)
    - ``trace_covector``        e H            (cross-check of the direct time)
    - ``return_covector``       e K11 Z (I - QQ)   (return summand of the mhtf)
    - ``start_covector``        e K11 Z QQ         (start summand of the mhtf)
    - ``survival_covector``     e QQ T             (weight of the first step)
    - ``first_step_covector``   e K11 Z QQ T       (first-step summand of the mhtf)

    ``psi_term``, the return covector paired with P / rank, is the mhtf's
    Tr((DZ)_11 rho_psi), the same for every state rho_psi supported in V.

    ``condition_estimate`` bounds the condition of M = I - QT: kappa_1 =
    2 lambda_max(X), X the matrix of the time row, for a positive map, and
    cond_2(M) for a ``raw`` one.  ``spectral_radius_qphi`` is, for a
    positive map, the upper bound on the radius of QT that the time row
    proves, and the radius itself for a ``raw`` map or where no bound is
    proved.
    """

    subspace: ArrivalSubspace
    probability_covector: np.ndarray
    time_covector: np.ndarray
    trace_covector: np.ndarray
    return_covector: np.ndarray
    start_covector: np.ndarray
    survival_covector: np.ndarray
    first_step_covector: np.ndarray
    psi_term: float
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


def subspace_from_vectors(vectors, tol: Tolerance = DEFAULT_TOL) -> ArrivalSubspace:
    """Arrival subspace spanned by the given vectors, whatever their overall scale.

    The vectors are orthonormalized; singular values up to (atol + rtol) times
    the largest are collapsed.  The span must be proper and nonzero.
    """
    cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not cols:
        raise ValidationError("at least one spanning vector is required")
    n = cols[0].size
    for v in cols:
        if v.size != n:
            raise DimensionError("spanning vectors have mixed lengths")
    a = np.column_stack(cols)
    u, sing, _ = np.linalg.svd(a)
    if sing.size == 0 or not sing[0] > 0:
        raise ValidationError("spanning vectors span the zero subspace")
    rank = int(np.sum(sing > (tol.atol + tol.rtol) * sing[0]))
    if rank >= n:
        raise ValidationError(
            "arrival subspace must be proper (a nontrivial subspace is required)"
        )
    # One Newton-Schulz step takes W = u to unitary within rounding: the frame
    # conjugates the map, so its departure from unitarity perturbs every answer.
    u = u @ (3.0 * np.eye(n) - u.conj().T @ u) / 2
    basis = u[:, :rank]
    p = hermitize(basis @ basis.conj().T)
    kept = hermitian_block(n, np.arange(rank, n))
    return ArrivalSubspace(n, rank, p, np.eye(n) - p, basis, u[:, rank:], u, kept)


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
    kept = hermitian_block(n, rest)
    return ArrivalSubspace(n, len(idx), p, np.eye(n) - p, eye[:, idx], eye[:, rest], None, kept)


def _ill_conditioned(cond: float, radius: float) -> NumericError:
    return NumericError(
        f"survival resolvent is singular to working precision "
        f"(condition estimate {cond:.3e}, spectral radius {radius:.12g})"
    )


def _conditioned(cond: float, radius: float) -> float:
    """``cond``, refused unless it is at most ``COND_CEIL`` (NaN and inf are refused too)."""
    if not cond <= COND_CEIL:
        raise _ill_conditioned(cond, radius)
    return cond


def _contracting(h: np.ndarray, subspace: ArrivalSubspace) -> float:
    """The spectral radius of QT (:meth:`ArrivalSubspace.radius`), refused unless below 1."""
    radius = subspace.radius(h)
    if not radius < 1.0:
        raise NumericError(
            f"monitored evolution does not contract: spectral radius of the "
            f"survival map is {radius:.12g} (map reducible or subspace trivial)"
        )
    return radius


def _time_row_bounds(resolvent: np.ndarray, e: np.ndarray, time: np.ndarray) -> tuple[float, float | None]:
    """kappa_1 = 2 lambda_max(X), X the Hermitian matrix of the time row y = e M^-1,
    and the radius bound the row proves, or None.

    With r = y M - e and R its matrix, X - Phi*(X) = I + R for Phi = QT.  If
    X is positive definite and ||R|| < 1, then Phi*(X) <= X - (1 - ||R||) I
    <= (1 - (1 - ||R||) / lambda_max(X)) X, and for a positive map that
    bounds the radius of Phi (Collatz-Wielandt; Evans & Hoegh-Krohn,
    *J. London Math. Soc.* 17, 1978).  ||R||_op is bounded by
    ||R||_F = ||r||_2, with gamma_{d+1} |y| |M| added for the rounding of r,
    and the eigenvalues of X are widened by d eps lambda_max(X) for their
    own.
    """
    x = hermitian_matrix(time)
    if not np.all(np.isfinite(x)):
        return math.inf, None
    eig = np.linalg.eigvalsh(x)
    cond = 2 * float(eig[-1])
    d = e.size
    slack = d * EPS * float(eig[-1])
    if not (np.isrealobj(time) and eig[0] > slack):
        return cond, None
    residual = frobenius(time @ resolvent - e) + gamma(d + 1) * frobenius(np.abs(time) @ np.abs(resolvent))
    if not residual < 1.0:
        return cond, None
    return cond, 1.0 - (1.0 - residual) / (float(eig[-1]) + slack)


def survival_rows(
    t: SuperOperator, subspace: ArrivalSubspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """The frame form h, e = coords(I), the rows (e (I - QQ) h, e, e h) M^-1, the radius of QT and a condition estimate of M = I - QT.

    For a :attr:`~hittime.maps.SuperOperator.positive` map the solve
    comes first.  M^-1 = sum_k (QT)^k is positive, so its trace norm is
    lambda_max(X), X the Hermitian matrix of the time row e M^-1 (Russo-Dye;
    Paulsen, *Completely Bounded Maps and Operator Algebras*, 2002,
    Cor. 2.9); with ||M|| <= 2 the estimate is kappa_1 = 2 lambda_max(X).
    The radius is the bound the time row proves (:func:`_time_row_bounds`),
    and :meth:`ArrivalSubspace.radius` only where it proves none.  A
    ``raw`` map takes that radius and cond_2(M), from its singular
    values, before the solve.  Raises :class:`NumericError` unless the
    monitored evolution contracts, and when the estimate exceeds
    ``COND_CEIL`` or the solve fails.
    """
    h = frame_form(t, subspace.frame)
    resolvent = np.eye(h.shape[0]) - subspace.mask(h)
    e = hermitian_coords(np.eye(t.dim))
    if not t.positive:
        radius = _contracting(h, subspace)
        cond = _conditioned(float(np.linalg.cond(resolvent)), radius)
    try:
        rows = np.linalg.solve(resolvent.T, np.stack([(e - subspace.mask(e)) @ h, e, e @ h]).T).T
    except np.linalg.LinAlgError:
        rows = None
    if t.positive:
        cond, radius = (math.inf, None) if rows is None else _time_row_bounds(resolvent, e, rows[1])
        if radius is None:
            radius = _contracting(h, subspace)
    if rows is None:
        raise _ill_conditioned(math.inf, radius)
    return h, e, rows, radius, _conditioned(cond, radius)


def solve_hitting(
    t: SuperOperator,
    subspace: ArrivalSubspace,
    cert: IrreducibilityCertificate | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> HittingSolution:
    """Query covectors for one (map, subspace), in the subspace's frame coordinates.

    ``cert``, the :func:`~hittime.maps.invariant_state` of ``t``, gives pi
    through its gate; pass it to share one across the subspaces of a map,
    otherwise it is computed here.  It is trusted, not checked against
    ``t``: the certificate of another map gives wrong answers, not an error.
    One transposed solve against M = I - QT, of e (I - QQ) T, e and e T,
    gives the probability, time and trace rows, and one against
    A = I - T + Omega the mhtf rows; A is built
    as :func:`~hittime.maps.invariant_state` builds it, so an index target
    solves against the matrix that certified the map.  One step through the
    frame form takes the mask of e and the start row to the survival and
    first-step rows of :func:`mhtf_general`.
    """
    if subspace.dim_ambient != t.dim:
        raise DimensionError(
            f"subspace lives in dimension {subspace.dim_ambient}, map in {t.dim}"
        )
    if cert is None:
        cert = invariant_state(t, tol)
    pi = cert.fundamental_pi()
    # Each covector l solves l (I - QT) = r, with e = coords(I) and
    # e (I - QQ) = coords(W* P W), exactly 1 on the target's diagonal.
    h, e, (probability, time, trace), radius, cond = survival_rows(t, subspace)
    # The probability row is e, so e K11 = e (I - QQ) K (I - QQ) is the time
    # row off the mask; x Z solves x A = e K11, A = I - h + coords(W* pi W) e^T.
    a = bordered(h, subspace.coords(pi.matrix), e)
    try:
        kz = np.linalg.solve(a.T, time - subspace.mask(time))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"fundamental solve failed (condition estimate {cert.condition_estimate:.3e})"
        ) from exc
    start = subspace.mask(kz)
    return_row = kz - start
    return HittingSolution(
        subspace=subspace,
        probability_covector=probability,
        time_covector=time,
        trace_covector=trace,
        return_covector=return_row,
        start_covector=start,
        survival_covector=subspace.mask(e) @ h,
        first_step_covector=start @ h,
        psi_term=_pair(return_row, subspace.coords(subspace.projector_p / subspace.rank)),
        spectral_radius_qphi=radius,
        condition_estimate=cond,
        tol=tol,
    )


def _pair(covector: np.ndarray, w: np.ndarray) -> float:
    """Real part of <covector, w>, a trace functional of the frame coordinates w."""
    return float(np.real(covector @ w))


def hitting_probability(hs: HittingSolution, rho) -> float:
    """Probability of ever reaching the subspace: Tr((I - Q) H rho).

    Equals 1 for certified irreducible maps; the residual from 1 is a useful
    numerical health indicator.
    """
    state = as_density(rho, hs.tol)
    return _pair(hs.probability_covector, hs.subspace.coords(state.matrix))


def mean_hitting_time_direct(hs: HittingSolution, rho) -> float:
    """Mean time of first visit, Tr((I - Q) K rho) = sum_k Tr((QT)^k rho).

    The survival sum e M^-1 rho, M = I - QT, is checked against Tr(H rho) =
    (e T) M^-1 rho, which differs by (e T - e) M^-1 rho: a deviation beyond the
    tolerance or the forward error cond(M) allows signals breakdown or a map
    that is not trace preserving.
    """
    state = as_density(rho, hs.tol)
    w = hs.subspace.coords(state.matrix)
    tau = _pair(hs.time_covector, w)
    cross = _pair(hs.trace_covector, w)
    # A solve with condition number c loses about c unit roundoffs (eps / 2)
    # of relative accuracy (Higham, Accuracy and Stability of Numerical
    # Algorithms, ch. 7).
    rel = max(hs.tol.atol, hs.condition_estimate * (EPS / 2))
    if abs(tau - cross) > rel * max(1.0, abs(tau)):
        raise NumericError(
            f"mean hitting time cross-check failed: {tau!r} vs {cross!r}"
        )
    return tau


def _require_supported(label: str, residual: float, tol: Tolerance) -> None:
    """Refuse a residual above atol + rtol, the allowance ``density`` gives a state's trace."""
    if residual > tol.atol + tol.rtol:
        raise OrthogonalityError(
            f"{label} violates its support precondition (residual {residual:.3e})"
        )


def _psi_term(hs: HittingSolution, rho_psi) -> float:
    """Tr((DZ)_11 rho_psi) for rho_psi checked to be supported in V, or by default ``hs.psi_term``."""
    if rho_psi is None:
        return hs.psi_term
    m, p = as_density(rho_psi, hs.tol).matrix, hs.subspace.projector_p
    _require_supported("arrival-side state", frobenius(p @ m @ p - m), hs.tol)
    return _pair(hs.return_covector, hs.subspace.coords(m))


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
    w = hs.subspace.coords(as_density(rho_phi, hs.tol).matrix)
    # ||Q rho Q - rho||_F: W* Q W is the coordinate mask of an orthonormal basis.
    _require_supported("initial state", frobenius(w - hs.subspace.mask(w)), hs.tol)
    # Tr((DZ)_11 x) and Tr((DZ)_12 x) are the return and start covectors:
    # e (I - QQ) D = e K11.
    psi_term = _psi_term(hs, rho_psi)
    phi_term = _pair(hs.start_covector, w)
    return OrthogonalMhtf(psi_term - phi_term, psi_term, phi_term)


def condition_first_step(
    t: SuperOperator,
    subspace: ArrivalSubspace,
    rho,
    tol: Tolerance = DEFAULT_TOL,
) -> FirstStep:
    """One monitored step: either absorbed into V, or the surviving state.

    Computes sigma = Q T(rho) Q.  If sigma vanishes the walk is absorbed at the
    first step (mean hitting time 1); otherwise the surviving weight Tr(sigma)
    and the renormalized state sigma / Tr(sigma) are returned, satisfying
    tau(rho) = 1 + Tr(sigma) * tau(sigma / Tr(sigma)).
    """
    state = as_density(rho, tol)
    q = subspace.projector_q
    sigma = q @ apply(t, state.matrix) @ q
    if frobenius(sigma) <= tol.atol:
        return FirstStep(True, 0.0, None)
    weight = float(np.trace(sigma).real)
    next_state = density(hermitize(sigma) / weight, tol)
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
    projector; the value does not depend on the choice).  Both traces over
    Q T rho are the survival and first-step rows paired with rho.
    """
    w = hs.subspace.coords(as_density(rho, hs.tol).matrix)
    return 1.0 + _psi_term(hs, rho_psi) * _pair(hs.survival_covector, w) - _pair(hs.first_step_covector, w)
