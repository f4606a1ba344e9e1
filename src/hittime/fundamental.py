"""Fundamental map of an irreducible positive trace-preserving map.

For an irreducible map T with invariant state pi, the rank-one map
Omega = |pi><I| sends every state to pi, and I - T + Omega is invertible.
Its inverse Z is the fundamental map; it is trace preserving and satisfies

    Z Omega = Omega Z = Omega,
    Z (I - T) = (I - T) Z = I - Omega,
    Omega^2 = T Omega = Omega T = Omega.

Z is only ever applied: a covector l is carried through it by one transposed
solve of A = I - T + Omega, in the Hermitian form of A that certified the
map irreducible.  The dense Omega and Z, and the residuals of the
identities above, live in :mod:`hittime.blocks`, the reference route of the
identity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, PreconditionError
from .linalg import COND_CEIL, DEFAULT_TOL, Tolerance, form_solve
from .maps import (
    CERTIFIED_IRREDUCIBLE,
    DensityMatrix,
    IrreducibilityCertificate,
    SuperOperator,
    check_trace_preserving,
)

__all__ = ["FundamentalData", "fundamental_map"]


@dataclass(frozen=True, eq=False)
class FundamentalData:
    """Invariant state pi and A = I - T + Omega, whose inverse is Z.

    ``a_form`` is the :func:`~hittime.linalg.hermitian_form` of A, the array
    the certificate took its singular values of.  :meth:`z_covector`
    applies Z to a covector by one solve there; no dense Omega or Z is kept
    (:mod:`hittime.blocks` builds them for the reference checks).
    """

    pi: DensityMatrix
    a_form: np.ndarray
    condition_estimate: float

    def z_covector(self, covector: np.ndarray) -> np.ndarray:
        """l Z for a covector l, or a column of covectors, in vec coordinates (x A = l)."""
        try:
            return form_solve(self.a_form, covector)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"fundamental solve failed (condition estimate {self.condition_estimate:.3e})"
            ) from exc


def fundamental_map(
    t: SuperOperator,
    cert: IrreducibilityCertificate,
    tol: Tolerance | None = None,
) -> FundamentalData:
    """The fundamental map Z = (I - rep + omega)^{-1} of ``t``, as A = I - rep + omega.

    Requires a ``certified_irreducible`` certificate and trace preservation.
    A and its condition number are the ones the certificate carries: the
    Hermitian form whose values-only SVD :func:`~hittime.maps.invariant_state`
    certifies with, and the condition that SVD gives.  An A that is singular
    to working precision raises :class:`NumericError`.
    """
    if tol is None:
        tol = DEFAULT_TOL
    if cert.verdict != CERTIFIED_IRREDUCIBLE or cert.a_form is None:
        raise PreconditionError(
            f"map is not certified irreducible (verdict: {cert.verdict})"
        )
    tp = check_trace_preserving(t, tol)
    if not tp.ok:
        raise PreconditionError(
            f"map is not trace preserving (residual {tp.residual:.3e})"
        )
    cond = cert.condition_estimate
    if not np.isfinite(cond) or cond > COND_CEIL:
        raise NumericError(
            f"fundamental solve is singular to working precision "
            f"(condition estimate {cond:.3e})"
        )
    return FundamentalData(cert.invariant_state, cert.a_form, cond)

