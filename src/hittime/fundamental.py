"""Fundamental map of an irreducible positive trace-preserving map.

For an irreducible map T with invariant state pi, the rank-one map
Omega = |pi><I| sends every state to pi, and I - T + Omega is invertible.
Its inverse Z is the fundamental map; it is trace preserving and satisfies

    Z Omega = Omega Z = Omega,
    Z (I - T) = (I - T) Z = I - Omega,
    Omega^2 = T Omega = Omega T = Omega.

Z is only ever applied, by one transposed solve of A = I - T + Omega in the
frame of each (map, subspace) (:func:`~hittime.hitting.solve_hitting`); this
module keeps pi and the condition gate.  The dense Omega and Z, and the
residuals of the identities above, live in :mod:`hittime.blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, PreconditionError
from .linalg import COND_CEIL, DEFAULT_TOL, Tolerance
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
    """Invariant state pi and the condition number of A = I - T + Omega, whose inverse is Z."""

    pi: DensityMatrix
    condition_estimate: float


def fundamental_map(
    t: SuperOperator,
    cert: IrreducibilityCertificate,
    tol: Tolerance | None = None,
) -> FundamentalData:
    """The data of the fundamental map Z = (I - rep + omega)^{-1} of ``t``.

    Requires a ``certified_irreducible`` certificate and trace preservation.
    The condition number of A = I - rep + omega is the one the certificate
    carries, from the values-only SVD :func:`~hittime.maps.invariant_state`
    certifies with.  An A that is singular to working precision raises
    :class:`NumericError`.
    """
    if tol is None:
        tol = DEFAULT_TOL
    if cert.verdict != CERTIFIED_IRREDUCIBLE:
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
    return FundamentalData(cert.invariant_state, cond)

