"""Fundamental map of an irreducible positive trace-preserving map.

For an irreducible map T with invariant state pi, the rank-one map
Omega = |pi><I| sends every state to pi, and I - T + Omega is invertible.
Its inverse Z is the fundamental map; it is trace preserving and satisfies

    Z Omega = Omega Z = Omega,
    Z (I - T) = (I - T) Z = I - Omega,
    Omega^2 = T Omega = Omega T = Omega.

Z is only ever applied: a covector l is carried through it by one transposed
solve of A = I - T + Omega.  The dense Omega and Z, and the residuals of the
identities above, live in :mod:`hittime.blocks`, the reference route of the
identity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, PreconditionError
from .linalg import COND_CEIL, DEFAULT_TOL, Tolerance, bordered, vec
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
    """Invariant state pi and the matrix A = I - T + Omega whose inverse is Z.

    :meth:`z_covector` applies Z to a covector by one solve; no dense Omega
    or Z is kept (:mod:`hittime.blocks` builds them for the reference checks).
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


def fundamental_map(
    t: SuperOperator,
    cert: IrreducibilityCertificate,
    tol: Tolerance | None = None,
) -> FundamentalData:
    """The fundamental map Z = (I - rep + omega)^{-1} of ``t``, as A = I - rep + omega.

    Requires a ``certified_irreducible`` certificate and trace preservation.
    The condition number of A is the one the certificate carries (from the
    values-only SVD :func:`~hittime.maps.invariant_state` certifies with);
    an A that is singular to working precision raises :class:`NumericError`.
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
    cond = cert.condition_estimate
    if not np.isfinite(cond) or cond > COND_CEIL:
        raise NumericError(
            f"fundamental solve is singular to working precision "
            f"(condition estimate {cond:.3e})"
        )
    # omega = vec(pi) vec(I)^T is nonzero only in the n columns k(n + 1)
    # where vec(I) is 1.
    pi = cert.invariant_state
    a = bordered(t.rep, vec(pi.matrix), slice(None, None, t.dim + 1))
    return FundamentalData(pi, a, cond)

