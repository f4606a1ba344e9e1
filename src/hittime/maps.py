"""Positive trace-preserving maps on M_n and their matrix representations.

A map T on n x n matrices is stored through its n^2 x n^2 matrix
representation ``rep`` acting on row-stacked vectorizations:
``T(X) = unvec(rep @ vec(X))``.  Constructors are provided for Kraus
families (``rep = sum_i kron(V_i, V_i.conj())``), for classical
column-stochastic matrices, and for raw representation matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, NumericError, PreconditionError, ValidationError
from .linalg import (
    COND_CEIL,
    DEFAULT_TOL,
    PsdCheck,
    Tolerance,
    _as_square,
    _from_hermitian_coords,
    _to_hermitian_coords,
    bordered,
    bordered_solve,
    fixed_space,
    frobenius,
    hermitian_form,
    hermitize,
    is_psd,
    isolates_fixed_vector,
    scaled_norm,
    unvec,
    vec,
)

__all__ = [
    "SuperOperator",
    "DensityMatrix",
    "IrreducibilityCertificate",
    "CERTIFIED_IRREDUCIBLE",
    "NOT_IRREDUCIBLE",
    "INCONCLUSIVE",
    "density",
    "pure_density",
    "from_kraus",
    "from_stochastic",
    "from_raw",
    "apply",
    "choi_matrix",
    "check_trace_preserving",
    "check_complete_positivity",
    "positivity_sample",
    "invariant_state",
    "validate_column_stochastic",
    "TraceCheck",
    "CpCheck",
    "PositivitySample",
]

CERTIFIED_IRREDUCIBLE = "certified_irreducible"
NOT_IRREDUCIBLE = "not_irreducible"
INCONCLUSIVE = "inconclusive"

# Unit-norm fixed vectors of genuine states have |trace| >= 1, so anything
# this small signals a traceless fixed point, not a state.
_TRACE_FLOOR = 1e-8
# Hermitizing the fixed vector must not move it off the fixed space.
_FIXED_RESIDUAL_CEIL = 1e-8


@dataclass(frozen=True, eq=False)
class SuperOperator:
    """Matrix representation of a linear map on M_n.

    Attributes
    ----------
    dim : int
        Dimension n of the underlying pure-state space.
    rep : ndarray, shape (n^2, n^2)
        Representation matrix acting on row-stacked vectorizations.
    provenance : str
        One of ``"kraus"``, ``"stochastic"``, ``"raw"``.  ``"kraus"`` asserts
        complete positivity, which the survival radius relies on.
    """

    dim: int
    rep: np.ndarray
    provenance: str

    @functools.cached_property
    def hermitian_form(self) -> np.ndarray:
        """The :func:`~hittime.linalg.hermitian_form` of ``rep``, computed once; read-only."""
        h = hermitian_form(self.rep)
        h.flags.writeable = False
        return h


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A positive semidefinite matrix of unit trace."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class IrreducibilityCertificate:
    """Operational irreducibility verdict for a trace-preserving map.

    ``certified_irreducible`` requires a one-dimensional fixed space whose
    normalized fixed point is a strictly positive state.  A certified
    certificate carries the 2-norm condition number of
    A = I - T + vec(pi) vec(I)^T, whose singular values certified it (the
    inverse of A is the fundamental map Z); it is NaN otherwise.
    """

    invariant_state: DensityMatrix | None
    fixed_space_dim: int
    min_eigenvalue_of_pi: float
    verdict: str
    condition_estimate: float = math.nan

    def fundamental_pi(self) -> DensityMatrix:
        """pi, once the certificate admits Z = A^{-1}: the map is certified
        irreducible, and A is not singular to working precision."""
        if self.verdict != CERTIFIED_IRREDUCIBLE:
            raise PreconditionError(
                f"map is not certified irreducible (verdict: {self.verdict})"
            )
        cond = self.condition_estimate
        if not np.isfinite(cond) or cond > COND_CEIL:
            raise NumericError(
                f"fundamental solve is singular to working precision "
                f"(condition estimate {cond:.3e})"
            )
        return self.invariant_state


class TraceCheck(NamedTuple):
    ok: bool
    residual: float


class CpCheck(NamedTuple):
    ok: bool
    min_choi_eigenvalue: float


class PositivitySample(NamedTuple):
    ok: bool
    failures: int
    worst_eigenvalue: float
    samples: int
    seed: int


def _finite_square(a, name: str) -> np.ndarray:
    m = _as_square(a, name)
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def density(matrix, tol: Tolerance = DEFAULT_TOL) -> DensityMatrix:
    """Validate and wrap a matrix as a density matrix.

    Requires Hermiticity, unit trace and positive semidefiniteness, each
    within tolerance.  Positivity is checked on the Hermitian part.
    """
    m = _finite_square(matrix, "density matrix")
    herm_residual = frobenius(m - m.conj().T)
    if herm_residual > tol.atol + tol.rtol * frobenius(m):
        raise ValidationError(
            f"density matrix is not Hermitian (residual {herm_residual:.3e})"
        )
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > tol.atol + tol.rtol:
        raise ValidationError(f"density matrix has trace {tr}, expected 1")
    check = is_psd(m, tol)
    if not check.ok:
        raise ValidationError(
            f"density matrix is not positive semidefinite "
            f"(min eigenvalue {check.min_eigenvalue:.3e})"
        )
    return DensityMatrix(m.copy())


def pure_density(state) -> DensityMatrix:
    """Density matrix |phi><phi| of a pure state, normalizing the vector."""
    v = np.asarray(state, dtype=complex).reshape(-1)
    nrm = scaled_norm(v)
    if nrm == 0.0:
        raise ValidationError("pure state vector must be nonzero")
    if not math.isfinite(nrm):
        raise ValidationError(f"pure state vector has norm {nrm}")
    v = v / nrm
    return DensityMatrix(np.outer(v, v.conj()))


def as_density(rho, tol: Tolerance = DEFAULT_TOL) -> DensityMatrix:
    """Coerce a DensityMatrix or raw matrix into a validated DensityMatrix."""
    if isinstance(rho, DensityMatrix):
        return rho
    return density(rho, tol)


def from_kraus(kraus_ops: Sequence) -> SuperOperator:
    """Superoperator of the map X -> sum_i V_i X V_i*.

    Trace preservation (sum V_i* V_i = I) is not checked here:
    :func:`check_trace_preserving` reports it, and the routes that need it
    (:func:`invariant_state`, the fundamental map) enforce it.
    """
    if len(kraus_ops) == 0:
        raise ValidationError("at least one Kraus operator is required")
    ops = tuple(_finite_square(v, "Kraus operator") for v in kraus_ops)
    n = ops[0].shape[0]
    for v in ops:
        if v.shape[0] != n:
            raise DimensionError(
                f"Kraus operators have mixed dimensions {v.shape[0]} vs {n}"
            )
    rep = np.zeros((n * n, n * n), dtype=complex)
    for v in ops:
        rep += np.kron(v, v.conj())
    return SuperOperator(n, rep, "kraus")


def validate_column_stochastic(p, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Validate a column-stochastic matrix and return it as a float array.

    Column j holds the outgoing distribution of state j; entries must be
    non-negative and each column must sum to 1 within tolerance.  Offending
    columns are named 1-based in error messages.
    """
    arr = np.asarray(p)
    if np.iscomplexobj(arr):
        if np.max(np.abs(arr.imag)) > tol.atol:
            raise ValidationError("stochastic matrix must be real")
        arr = arr.real
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"stochastic matrix must be square, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("stochastic matrix contains non-finite entries")
    for j in range(arr.shape[1]):
        col = arr[:, j]
        if col.min() < -tol.atol:
            raise ValidationError(
                f"column {j + 1} has a negative entry ({col.min():.3e})"
            )
        colsum = float(col.sum())
        if abs(colsum - 1.0) > tol.atol + tol.rtol:
            raise ValidationError(f"column {j + 1} sums to {colsum!r}, expected 1")
    return arr


def from_stochastic(p, tol: Tolerance = DEFAULT_TOL) -> SuperOperator:
    """Embed a column-stochastic matrix as a map on M_n.

    The resulting map sends diag(x) to diag(P x) and annihilates off-diagonal
    components, so its action on diagonal matrices mimics the Markov chain.
    """
    arr = validate_column_stochastic(p, tol)
    n = arr.shape[0]
    rep = np.zeros((n * n, n * n), dtype=complex)
    diag_idx = np.arange(n) * (n + 1)
    rep[np.ix_(diag_idx, diag_idx)] = arr
    return SuperOperator(n, rep, "stochastic")


def from_raw(rep) -> SuperOperator:
    """Wrap an n^2 x n^2 representation matrix verbatim; nothing is assumed."""
    m = _finite_square(rep, "superoperator representation")
    n = math.isqrt(m.shape[0])
    if n * n != m.shape[0]:
        raise DimensionError(
            f"representation size {m.shape[0]} is not a perfect square"
        )
    return SuperOperator(n, m.copy(), "raw")


def apply(t: SuperOperator, x) -> np.ndarray:
    """Apply the map to a matrix: unvec(rep @ vec(X))."""
    m = _finite_square(x, "map argument")
    if m.shape[0] != t.dim:
        raise DimensionError(f"expected a {t.dim} x {t.dim} matrix, got {m.shape}")
    return unvec(t.rep @ vec(m))


def choi_matrix(t: SuperOperator) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) T(|i><j|), PSD iff T is completely positive."""
    n = t.dim
    rep4 = t.rep.reshape(n, n, n, n)
    return np.einsum("klij->ikjl", rep4).reshape(n * n, n * n)


def check_trace_preserving(t: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> TraceCheck:
    """Check T*(I) = I; returns the verdict and the Frobenius residual."""
    n = t.dim
    # T*(I) = conj(rep)^T vec(I) = conj(vec(I) rep), without a conjugated copy of rep.
    residual = frobenius(unvec((vec(np.eye(n)) @ t.rep).conj()) - np.eye(n))
    return TraceCheck(residual <= tol.atol + tol.rtol * math.sqrt(n), residual)


def check_complete_positivity(t: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> CpCheck:
    """PSD test on the Choi matrix; certifies complete positivity."""
    check: PsdCheck = is_psd(choi_matrix(t), tol)
    return CpCheck(check.ok, check.min_eigenvalue)


def positivity_sample(
    t: SuperOperator,
    samples: int = 1000,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> PositivitySample:
    """Heuristic positivity check for maps whose Choi matrix is not PSD.

    Applies the map to ``samples`` random pure-state densities and checks the
    outputs for positive semidefiniteness.  A pass does not prove positivity;
    a failure disproves it.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    worst = math.inf
    for _ in range(samples):
        v = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
        out = apply(t, pure_density(v).matrix)
        check = is_psd(out, tol)
        worst = min(worst, check.min_eigenvalue)
        if not check.ok:
            failures += 1
    return PositivitySample(failures == 0, failures, worst, samples, seed)


def invariant_state(
    t: SuperOperator, tol: Tolerance = DEFAULT_TOL
) -> IrreducibilityCertificate:
    """Compute the invariant state of the map and certify irreducibility.

    The map must be trace preserving.  In the map's
    :attr:`SuperOperator.hermitian_form` (real when the map preserves
    Hermiticity), with e = vec(I), the candidate pi comes from one bordered
    solve (:func:`bordered_solve`), and the values-only SVD of
    A = I - T + vec(pi) e^T certifies a one-dimensional fixed space
    (:func:`isolates_fixed_vector`).  A certified map keeps the condition
    number the same SVD gives, the gate of the fundamental map Z = A^{-1}
    (:meth:`IrreducibilityCertificate.fundamental_pi`).  When the
    certificate fails, :func:`fixed_space` decides and reports the
    dimension.  A one-dimensional fixed space whose Hermitized,
    trace-normalized fixed point is a strictly positive state yields the
    verdict ``certified_irreducible``; a larger fixed space yields
    ``not_irreducible``; degenerate numerical outcomes are ``inconclusive``.
    """
    tp = check_trace_preserving(t, tol)
    if not tp.ok:
        raise PreconditionError(
            f"map is not trace preserving (residual {tp.residual:.3e})"
        )
    h = t.hermitian_form
    head = slice(0, t.dim)  # vec(I) in the Hermitian basis

    def fundamental_svd(pi: np.ndarray) -> np.ndarray:
        return np.linalg.svd(bordered(h, _to_hermitian_coords(pi), head), compute_uv=False)

    sing = None
    try:
        candidate = hermitize(unvec(_from_hermitian_coords(bordered_solve(h, head))))
        tr = float(np.trace(candidate).real)
        if abs(tr) >= _TRACE_FLOOR:
            sing = fundamental_svd(candidate / tr)
    except np.linalg.LinAlgError:
        pass
    if sing is None or not isolates_fixed_vector(sing, h, tol):
        sing = None
        basis = fixed_space(h, tol)
        dim = len(basis)
        if dim == 0:
            return IrreducibilityCertificate(None, 0, float("nan"), INCONCLUSIVE)
        if dim > 1:
            return IrreducibilityCertificate(None, dim, float("nan"), NOT_IRREDUCIBLE)
        candidate = hermitize(unvec(_from_hermitian_coords(basis[0])))
        tr = float(np.trace(candidate).real)
    if abs(tr) < _TRACE_FLOOR:
        return IrreducibilityCertificate(None, 1, float("nan"), INCONCLUSIVE)
    pi = candidate / tr
    check = is_psd(pi, tol)
    fixed_residual = frobenius(apply(t, pi) - pi)
    if not check.ok or fixed_residual > _FIXED_RESIDUAL_CEIL:
        return IrreducibilityCertificate(None, 1, check.min_eigenvalue, INCONCLUSIVE)
    if check.min_eigenvalue <= tol.atol:
        return IrreducibilityCertificate(
            DensityMatrix(pi), 1, check.min_eigenvalue, NOT_IRREDUCIBLE
        )
    if sing is None:
        sing = fundamental_svd(pi)
    cond = float(sing[0] / sing[-1]) if sing[-1] > 0 else math.inf
    return IrreducibilityCertificate(
        DensityMatrix(pi), 1, check.min_eigenvalue, CERTIFIED_IRREDUCIBLE, cond
    )
