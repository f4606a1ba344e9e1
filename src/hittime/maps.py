"""Positive trace-preserving maps on M_n and their matrix representations.

A map T on n x n matrices acts through its n^2 x n^2 matrix representation
``rep`` on row-stacked vectorizations: ``T(X) = unvec(rep @ vec(X))``.
Constructors are provided for Kraus families, for classical
column-stochastic matrices, and for raw representation matrices.  A Kraus
map keeps its family V_i, from which its real and frame forms, its action,
its trace check and its Choi matrix are computed; it builds
``rep = sum_i kron(V_i, V_i.conj())`` only when ``rep`` is read.
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
    bordered,
    bordered_solve,
    divide,
    finite_square,
    fixed_space,
    frobenius,
    hermitian_coords,
    hermitian_form,
    hermitian_matrix,
    hermitize,
    is_psd,
    kraus_form,
    scaled_norm,
    singular_bounds,
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
# A map on M_n whose representation has Frobenius norm r above this over n is
# refused.  Below it, T*(I) - I, T(rho) - T(rho)* for a state rho, the Choi
# matrix and the forms have norms at most 2 sqrt(n) max(r, 1), and each
# Frobenius norm sums squares below max double / 4n.
_SCALE_CEIL = math.sqrt(np.finfo(float).max) / 4


def _check_scale(r: float, n: int, what: str) -> None:
    if not r <= _SCALE_CEIL / n:
        raise ValidationError(
            f"{what} {r:.3e}, above sqrt(max double) / 4n = {_SCALE_CEIL / n:.3e} for n = {n}: "
            f"the trace check, T(rho) or a Frobenius norm could overflow"
        )


class SuperOperator:
    """A linear map on M_n, given by its Kraus family or by its matrix representation.

    Attributes
    ----------
    dim : int
        Dimension n of the underlying pure-state space.
    rep : ndarray, shape (n^2, n^2)
        Representation matrix acting on row-stacked vectorizations.  A map
        built from its Kraus family builds it on first access, as
        sum_i kron(V_i, conj(V_i)); nothing on the answer path reads it.
    provenance : str
        One of ``"kraus"``, ``"stochastic"``, ``"raw"``; all but ``"raw"``
        assert positivity (:attr:`positive`).
    kraus : ndarray, shape (k, n, n), or None
        The Kraus family V_i of X -> sum_i V_i X V_i*, read-only; None for
        other provenances.
    """

    def __init__(self, dim: int, rep: np.ndarray | None, provenance: str,
                 kraus: np.ndarray | None = None):
        self.dim = dim
        self.provenance = provenance
        self.kraus = kraus
        if rep is not None:
            self.__dict__["rep"] = rep

    @functools.cached_property
    def rep(self) -> np.ndarray:
        rep = np.zeros((self.dim * self.dim,) * 2, dtype=complex)
        for v in self.kraus:
            rep += np.kron(v, v.conj())
        return rep

    @property
    def positive(self) -> bool:
        """Whether the map is known to be positive: a Kraus or stochastic map, not a ``raw`` one."""
        return self.provenance != "raw"

    @functools.cached_property
    def hermitian_form(self) -> np.ndarray:
        """The :func:`~hittime.linalg.hermitian_form` of ``rep``, computed once; read-only.

        A Kraus map takes it from its family (:func:`~hittime.linalg.kraus_form`).
        """
        h = hermitian_form(self.rep) if self.kraus is None else kraus_form(self.kraus)
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
    certificate carries an upper bound on the 2-norm condition number of
    A = I - T + vec(pi) vec(I)^T, from the singular value bounds that
    certified it (the inverse of A is the fundamental map Z): ||A||_F over
    the Cholesky floor of :func:`~hittime.linalg.sigma_min_floor`, or
    cond_2(A) itself where the SVD decided; it is NaN otherwise.  ``tol`` is
    the tolerance the verdict was judged under.
    """

    invariant_state: DensityMatrix | None
    fixed_space_dim: int
    min_eigenvalue_of_pi: float
    verdict: str
    condition_estimate: float = math.nan
    tol: Tolerance = DEFAULT_TOL

    def fundamental_pi(self) -> DensityMatrix:
        """pi, once the certificate admits Z = A^{-1}: the map is certified
        irreducible, and A is not singular to working precision.

        A refusal names the tolerance: a nearly reducible map, whose
        coupling or least eigenvalue of pi falls below it, may certify
        under a smaller one."""
        if self.verdict != CERTIFIED_IRREDUCIBLE:
            raise PreconditionError(
                f"map is not certified irreducible (verdict: {self.verdict} under "
                f"atol {self.tol.atol:g} and rtol {self.tol.rtol:g}); a smaller "
                f"tolerance (--tol) may certify a nearly reducible map"
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


def density(matrix, tol: Tolerance = DEFAULT_TOL) -> DensityMatrix:
    """Validate and wrap a matrix as a density matrix.

    Requires Hermiticity, unit trace and positive semidefiniteness, each
    within tolerance, and returns the Hermitian part.
    """
    m = finite_square(matrix, "density matrix")
    with np.errstate(over="ignore"):
        herm_residual = scaled_norm(m - m.conj().T)
    # A skew part beyond the double range is refused even where ||m||_F is too.
    if herm_residual == math.inf or herm_residual > tol.atol + tol.rtol * scaled_norm(m):
        raise ValidationError(f"density matrix is not Hermitian (residual {herm_residual:.3e})")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > tol.atol + tol.rtol:
        raise ValidationError(f"density matrix has trace {tr}, expected 1")
    herm = hermitize(m)
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    if not min_eig >= -tol.atol:
        raise ValidationError(f"density matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})")
    return DensityMatrix(herm)


def pure_density(state) -> DensityMatrix:
    """Density matrix |phi><phi| of a pure state, normalizing the vector."""
    v = np.asarray(state, dtype=complex).reshape(-1)
    nrm = scaled_norm(v)
    if nrm == 0.0:
        raise ValidationError("pure state vector must be nonzero")
    if not math.isfinite(nrm):
        raise ValidationError(f"pure state vector has norm {nrm}")
    v = divide(v, nrm)
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
    (:func:`invariant_state`, the fundamental map) enforce it.  A family with
    sum_i ||V_i||_F^2 above sqrt(max double) / 4n is refused.
    """
    if len(kraus_ops) == 0:
        raise ValidationError("at least one Kraus operator is required")
    ops = tuple(finite_square(v, "Kraus operator") for v in kraus_ops)
    n = ops[0].shape[0]
    for v in ops:
        if v.shape[0] != n:
            raise DimensionError(
                f"Kraus operators have mixed dimensions {v.shape[0]} vs {n}"
            )
    family = np.stack(ops)
    norm = scaled_norm(family)  # ||rep||_F <= sum_i ||V_i||_F^2 = norm^2
    _check_scale(norm * norm, n, "Kraus family has sum_i ||V_i||_F^2 =")
    family.flags.writeable = False
    return SuperOperator(n, None, "kraus", family)


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
    lows = arr.min(axis=0, initial=math.inf)
    # A contiguous row of the transpose sums as arr[:, j].sum() does, bit for bit.
    with np.errstate(over="ignore"):  # a sum beyond the double range is inf, refused
        sums = np.ascontiguousarray(arr.T).sum(axis=1)
    bad = (lows < -tol.atol) | (np.abs(sums - 1.0) > tol.atol + tol.rtol)
    if bad.any():
        j = int(np.argmax(bad))  # the first offending column, a negative entry first
        if lows[j] < -tol.atol:
            raise ValidationError(f"column {j + 1} has a negative entry ({lows[j]:.3e})")
        raise ValidationError(f"column {j + 1} sums to {float(sums[j])!r}, expected 1")
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
    """Wrap an n^2 x n^2 representation matrix verbatim; nothing is assumed,
    but a Frobenius norm above sqrt(max double) / 4n is refused."""
    m = finite_square(rep, "superoperator representation")
    n = math.isqrt(m.shape[0])
    if n * n != m.shape[0]:
        raise DimensionError(
            f"representation size {m.shape[0]} is not a perfect square"
        )
    _check_scale(scaled_norm(m), n, "superoperator representation has Frobenius norm")
    return SuperOperator(n, m.copy(), "raw")


def apply(t: SuperOperator, x) -> np.ndarray:
    """Apply the map to a matrix: sum_i V_i X V_i* for a Kraus map, else unvec(rep @ vec(X))."""
    m = finite_square(x, "map argument")
    if m.shape[0] != t.dim:
        raise DimensionError(f"expected a {t.dim} x {t.dim} matrix, got {m.shape}")
    if t.kraus is None:
        return unvec(t.rep @ vec(m))
    return (t.kraus @ m @ t.kraus.conj().transpose(0, 2, 1)).sum(axis=0)


def frame_form(t: SuperOperator, w: np.ndarray | None) -> np.ndarray:
    """The Hermitian form of X -> W* T(W X W*) W for the unitary frame ``w``; the map's own for None.

    For a Kraus map it is the form of the family W* V_i W (:func:`~hittime.linalg.kraus_form`),
    otherwise that of K* rep K, K = kron(W, conj(W)), contracted one index of rep at a time.
    """
    if w is None:
        return t.hermitian_form
    if t.kraus is not None:
        return kraus_form(w.conj().T @ t.kraus @ w)
    n, d, wc = t.dim, t.dim * t.dim, w.conj()
    x = w.T @ (t.rep.reshape(d * n, n) @ wc).reshape(d, n, n)
    x = w.T @ (wc.T @ x.reshape(n, n * d)).reshape(n, n, d)
    return hermitian_form(x.reshape(d, d))


def choi_matrix(t: SuperOperator) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) T(|i><j|), PSD iff T is completely positive.

    For a Kraus map it is G G*, G the n^2 x k matrix whose columns are the
    column-stacked V_i.
    """
    n = t.dim
    if t.kraus is not None:
        g = t.kraus.transpose(0, 2, 1).reshape(len(t.kraus), n * n).T
        return g @ g.conj().T
    rep4 = t.rep.reshape(n, n, n, n)
    return np.einsum("klij->ikjl", rep4).reshape(n * n, n * n)


def check_trace_preserving(t: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> TraceCheck:
    """Check T*(I) = I; returns the verdict and the Frobenius residual.

    T*(I) is sum_i V_i* V_i for a Kraus map.
    """
    n = t.dim
    if t.kraus is None:
        # T*(I) = conj(rep)^T vec(I) = conj(vec(I) rep), without a conjugated copy of rep.
        adjoint = unvec((vec(np.eye(n)) @ t.rep).conj())
    else:
        stacked = t.kraus.reshape(-1, n)  # [V_1; ...; V_k]
        adjoint = stacked.conj().T @ stacked
    residual = frobenius(adjoint - np.eye(n))
    return TraceCheck(residual <= tol.atol + tol.rtol * math.sqrt(n), residual)


def check_complete_positivity(t: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> CpCheck:
    """PSD test on the Choi matrix; certifies complete positivity.

    The Choi matrix of k Kraus operators V_i is sum_i vec(V_i) vec(V_i)*,
    positive semidefinite of rank at most k: for a Kraus map of k < n^2
    operators its least eigenvalue is exactly 0, reported without building
    it.
    """
    if t.kraus is not None and len(t.kraus) < t.dim * t.dim:
        return CpCheck(True, 0.0)
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
    Hermiticity), with e = coords(I), the candidate pi comes from one bordered
    solve (:func:`bordered_solve`), and bounds on the extreme singular values
    of A = I - T + coords(pi) e^T certify a one-dimensional fixed space
    (:func:`~hittime.linalg.singular_bounds`): for a real form one shifted
    Cholesky factorization, with ||A||_F above, and the values-only SVD of
    A when that fails, does not clear the threshold, or the form is
    complex.  A certified map keeps the condition bound
    sigma_max / sigma_min the same bounds give, the gate of the fundamental
    map Z = A^{-1} (:meth:`IrreducibilityCertificate.fundamental_pi`).  When
    the certificate fails, :func:`fixed_space` decides and reports the
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
    e = hermitian_coords(np.eye(t.dim))
    bounds = None
    try:
        candidate = hermitize(hermitian_matrix(bordered_solve(h, e)))
        tr = float(np.trace(candidate).real)
        if abs(tr) >= _TRACE_FLOOR:
            bounds = singular_bounds(bordered(h, hermitian_coords(candidate / tr), e), h, tol, True)
    except np.linalg.LinAlgError:
        pass
    if bounds is None:
        basis = fixed_space(h, tol)
        dim = len(basis)
        if dim == 0:
            return IrreducibilityCertificate(None, 0, math.nan, INCONCLUSIVE, tol=tol)
        if dim > 1:
            return IrreducibilityCertificate(None, dim, math.nan, NOT_IRREDUCIBLE, tol=tol)
        candidate = hermitize(hermitian_matrix(basis[0]))
        tr = float(np.trace(candidate).real)
    if abs(tr) < _TRACE_FLOOR:
        return IrreducibilityCertificate(None, 1, math.nan, INCONCLUSIVE, tol=tol)
    pi = candidate / tr  # exactly Hermitian: a Hermitized matrix over a real trace
    min_eig = float(np.linalg.eigvalsh(pi)[0])
    fixed_residual = frobenius(apply(t, pi) - pi)
    if not (min_eig >= -tol.atol and fixed_residual <= _FIXED_RESIDUAL_CEIL):
        return IrreducibilityCertificate(None, 1, min_eig, INCONCLUSIVE, tol=tol)
    if min_eig <= tol.atol:
        return IrreducibilityCertificate(DensityMatrix(pi), 1, min_eig, NOT_IRREDUCIBLE, tol=tol)
    low, high = bounds or singular_bounds(bordered(h, hermitian_coords(pi), e), h, tol, False)
    cond = high / low if low > 0 else math.inf
    return IrreducibilityCertificate(DensityMatrix(pi), 1, min_eig, CERTIFIED_IRREDUCIBLE, cond, tol)
