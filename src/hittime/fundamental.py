"""Fundamental map of an irreducible positive trace-preserving map.

For an irreducible map T with invariant state pi, the rank-one map
Omega = |pi><I| sends every state to pi, and I - T + Omega is invertible.
Its inverse Z is the fundamental map; it is trace preserving and satisfies

    Z Omega = Omega Z = Omega,
    Z (I - T) = (I - T) Z = I - Omega,
    Omega^2 = T Omega = Omega T = Omega.

Z is only ever applied: a covector l is carried through it by one transposed
solve of A = I - T + Omega, and the dense Omega and Z are built on first
access only, for the identity checks.  The identities are exposed as a
diagnostic report rather than asserted in the constructor, so construction
stays cheap while the identities remain first-class testable artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, PreconditionError
from .linalg import COND_CEIL, DEFAULT_TOL, Tolerance, frobenius, hermitian_form, vec
from .maps import (
    CERTIFIED_IRREDUCIBLE,
    DensityMatrix,
    IrreducibilityCertificate,
    SuperOperator,
    as_density,
    check_trace_preserving,
)

__all__ = [
    "FundamentalData",
    "FundamentalReport",
    "build_omega",
    "fundamental_map",
    "verify_fundamental_identities",
]

@dataclass(frozen=True, eq=False)
class FundamentalData:
    """Invariant state pi and the matrix A = I - T + Omega whose inverse is Z.

    :meth:`z_covector` applies Z to a covector by one solve; the dense
    ``omega_rep`` and ``z_rep`` are computed on first access.
    """

    pi: DensityMatrix
    a_rep: np.ndarray
    condition_estimate: float

    def z_covector(self, covector: np.ndarray) -> np.ndarray:
        """l Z, from the transposed solve A^T x = l."""
        try:
            return np.linalg.solve(self.a_rep.T, covector)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"fundamental solve failed (condition estimate {self.condition_estimate:.3e})"
            ) from exc

    @cached_property
    def omega_rep(self) -> np.ndarray:
        return build_omega(self.pi)

    @cached_property
    def z_rep(self) -> np.ndarray:
        # Column j of the solve against the identity is row j of Z.
        return self.z_covector(np.eye(self.a_rep.shape[0])).T


@dataclass(frozen=True, eq=False)
class FundamentalReport:
    """Frobenius residuals of the fundamental-map identities."""

    residuals: dict[str, float]
    max_residual: float
    ok: bool


def build_omega(pi, tol: Tolerance | None = None) -> np.ndarray:
    """Rank-one representation vec(pi) vec(I)^T of the map rho -> Tr(rho) pi."""
    state = as_density(pi, tol)
    n = state.dim
    return np.outer(vec(state.matrix), vec(np.eye(n)))


def fundamental_map(
    t: SuperOperator,
    cert: IrreducibilityCertificate,
    tol: Tolerance | None = None,
) -> FundamentalData:
    """The fundamental map Z = (I - rep + omega)^{-1} of ``t``, as A = I - rep + omega.

    Requires a ``certified_irreducible`` certificate and trace preservation.
    The condition number of A is estimated and surfaced; an A that is
    singular to working precision raises :class:`NumericError`.
    """
    if tol is None:
        tol = DEFAULT_TOL
    if cert.verdict != CERTIFIED_IRREDUCIBLE or cert.invariant_state is None:
        raise PreconditionError(
            f"map is not certified irreducible (verdict: {cert.verdict})"
        )
    tp = check_trace_preserving(t, tol)
    if not tp.ok:
        raise PreconditionError(
            f"map is not trace preserving (residual {tp.residual:.3e})"
        )
    # omega = vec(pi) vec(I)^T is nonzero only in the n columns k(n + 1)
    # where vec(I) is 1.
    pi = cert.invariant_state
    a = np.eye(t.rep.shape[0], dtype=np.result_type(t.rep, pi.matrix)) - t.rep
    a[:, :: t.dim + 1] += vec(pi.matrix)[:, None]
    cond = float(np.linalg.cond(hermitian_form(a)))
    if not np.isfinite(cond) or cond > COND_CEIL:
        raise NumericError(
            f"fundamental solve is singular to working precision "
            f"(condition estimate {cond:.3e})"
        )
    return FundamentalData(pi, a, cond)


def verify_fundamental_identities(
    fd: FundamentalData,
    t: SuperOperator,
    tol: Tolerance | None = None,
) -> FundamentalReport:
    """Report Frobenius residuals of the algebraic identities of Z and Omega."""
    if tol is None:
        tol = DEFAULT_TOL
    omega, z, rep = fd.omega_rep, fd.z_rep, t.rep
    d = rep.shape[0]
    eye = np.eye(d)
    n = fd.pi.dim
    vec_eye = vec(np.eye(n))
    residuals = {
        "omega_idempotent": frobenius(omega @ omega - omega),
        "phi_omega": frobenius(rep @ omega - omega),
        "omega_phi": frobenius(omega @ rep - omega),
        "z_omega": frobenius(z @ omega - omega),
        "omega_z": frobenius(omega @ z - omega),
        "z_one_minus_phi": frobenius(z @ (eye - rep) - (eye - omega)),
        "one_minus_phi_z": frobenius((eye - rep) @ z - (eye - omega)),
        "z_inverse": frobenius(z @ (eye - rep + omega) - eye),
        "z_trace_preserving": frobenius(z.conj().T @ vec_eye - vec_eye),
        "omega_trace_preserving": frobenius(omega.conj().T @ vec_eye - vec_eye),
    }
    worst = max(residuals.values())
    return FundamentalReport(residuals, worst, worst <= tol.atol)
