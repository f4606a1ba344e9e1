"""Dense complex linear algebra built on a row-stacking vectorization.

A square matrix is flattened row by row, so ``vec([[a, b], [c, d]])`` is
``(a, b, c, d)``.  Under this convention

    vec(A @ X @ B.T) == kron(A, B) @ vec(X)

for all square ``A, B, X``, and the matrix representation of the conjugation
``X -> B X B*`` is ``kron(B, B.conj())``.  Everything downstream (superoperator
representations, fundamental matrices, hitting maps) relies on this identity,
which is pinned by the test suite.

A map that preserves Hermiticity (every positive map does) has a real
representation in the Hilbert-Schmidt-orthonormal Hermitian basis;
:func:`hermitian_form` changes to that basis, where the kernels of such maps
(solves, the fixed space, condition numbers, the survival radius) run in
real arithmetic and a compression X -> CXC is a mask (:func:`hermitian_block`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ValidationError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "start_distribution",
    "vec",
    "unvec",
    "hermitize",
    "frobenius",
    "scaled_norm",
    "fixed_space",
    "bordered",
    "bordered_solve",
    "isolates_fixed_vector",
    "is_psd",
    "PsdCheck",
    "spectral_radius",
    "hermitian_form",
    "hermitian_block",
    "survival_radius",
]

# Monitored evolution must contract: a spectral radius of QT this close to 1
# makes the resolvent solves and the series meaningless.
MIN_SPECTRAL_GAP = 1e-9
# Solves whose 2-norm condition number exceeds this are singular to working
# precision.
COND_CEIL = 1e14
# How far a start distribution's sum may stray from 1.
DISTRIBUTION_SUM_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
# The Perron route of survival_radius: the smallest compression size m^2
# that takes it, its power steps, and its budget of Collatz-Wielandt
# brackets, one inverse-iteration solve between two.  Against a full eigvals
# (one BLAS thread, 2-vCPU Xeon, random rank-2 Kraus maps) it costs 0.66
# against 1.3 ms at m^2 = 64, 1.0 against 4.0 ms at 100 and 6.6 against
# 56 ms at 324; below 81 the saving is under a millisecond, so eigvals stays.
_PERRON_MIN_DIM = 81
_PERRON_POWER_STEPS = 16
_PERRON_BRACKETS = 10
# Each solve must shrink the bracket width by this factor; a stalled bracket
# (a reducible map's tied Perron eigenvalues) falls back to eigvals at once.
_PERRON_SHRINK = 0.5


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by the validation routines."""

    atol: float = 1e-10
    rtol: float = 1e-10

    def __post_init__(self) -> None:
        if not (self.atol >= 0 and self.rtol >= 0):  # NaN fails too
            raise ValueError("tolerances must be non-negative")


DEFAULT_TOL = Tolerance()


def start_distribution(x, n: int) -> np.ndarray:
    """``x`` as a start distribution over n states: entries >= -atol that sum to 1."""
    dist = np.asarray(x, dtype=float).reshape(-1)
    if dist.size != n:
        raise ValidationError(f"distribution has length {dist.size}, chain has {n} states")
    # Written so that NaN and inf entries fail too.
    if not (dist.min() >= -DEFAULT_TOL.atol and abs(dist.sum() - 1.0) <= DISTRIBUTION_SUM_TOL):
        raise ValidationError("initial distribution must be non-negative and sum to 1")
    return dist


def _as_square(a, name: str = "matrix", keep_real: bool = False) -> np.ndarray:
    m = np.asarray(a)
    if not (keep_real and np.isrealobj(m)):
        m = m.astype(complex, copy=False)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def vec(a) -> np.ndarray:
    """Flatten a square matrix row by row into a length-n^2 vector."""
    return _as_square(a, "vec input").reshape(-1)


def unvec(v) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a length-n^2 vector into an n x n matrix."""
    w = np.asarray(v, dtype=complex).reshape(-1)
    n = math.isqrt(w.size)
    if n * n != w.size:
        raise DimensionError(f"unvec input length {w.size} is not a perfect square")
    return w.reshape(n, n)


def hermitize(x) -> np.ndarray:
    """Hermitian part (X + X*) / 2, used before positivity checks.

    X / 2 + X* / 2 only when X + X* overflows, so ordinary inputs keep every bit.
    """
    m = _as_square(x, "x")
    try:
        with np.errstate(over="raise"):
            return (m + m.conj().T) / 2
    except FloatingPointError:
        return m / 2 + m.conj().T / 2


def frobenius(x) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(x)))


def scaled_norm(v) -> float:
    """2-norm of v whose squares may under- or overflow.

    Only when the plain norm is 0 or not finite is v first divided by its
    largest real or imaginary part, so ordinary inputs keep every bit.  The
    result is inf only when the norm itself exceeds the double range, and 0
    only for v = 0.
    """
    v = np.asarray(v)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if 0.0 < norm < math.inf:
        return norm
    scale = float(np.maximum(np.abs(v.real), np.abs(v.imag)).max(initial=0.0))
    if not 0.0 < scale < math.inf:  # v = 0, or non-finite entries
        return norm
    return scale * float(np.linalg.norm(v / scale))


@functools.lru_cache(maxsize=32)
def _hermitian_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vec indices of the diagonal entries, of (i, j) and of (j, i), i < j; cached, read-only."""
    i, j = np.triu_indices(n, 1)
    indices = np.arange(n) * (n + 1), i * n + j, j * n + i
    for a in indices:
        a.flags.writeable = False
    return indices


def hermitian_form(a) -> np.ndarray:
    """U* A U for U mapping row-stacked vec coordinates to the Hermitian basis.

    The basis is the Hilbert-Schmidt-orthonormal family E_ii,
    (E_ij + E_ji) / sqrt(2) and i (E_ij - E_ji) / sqrt(2) for i < j, in that
    order.  Hermitian matrices have real coordinates in it, so a map that
    preserves Hermiticity has a real form: it is returned as a real array
    when the imaginary part is at rounding level, and as the complex
    matrix otherwise.  U is unitary, so singular values and eigenvalues are
    those of A.  Works on one complex copy with in-place butterflies.
    """
    a = np.asarray(a)
    n = math.isqrt(a.shape[0]) if a.ndim == 2 else -1
    d = n * n
    if a.shape != (d, d):
        raise DimensionError(f"expected an n^2 x n^2 matrix, got shape {a.shape}")
    order = np.concatenate(_hermitian_basis(n))
    w = a[np.ix_(order, order)].astype(complex, copy=False)
    half = (d - n) // 2
    upper, lower = slice(n, n + half), slice(n + half, d)
    r = math.sqrt(0.5)
    # Columns: A U.  Rows: U* (A U).  Each pair (x, y) becomes
    # (r (x + y), phase r (x - y)).
    for x, y, phase in ((w[:, upper], w[:, lower], 1j), (w[upper], w[lower], -1j)):
        x += y
        y *= -2.0
        y += x
        x *= r
        y *= phase * r
    scale = max(w.real.max(), -w.real.min(), 0.0)
    imag = max(w.imag.max(), -w.imag.min(), 0.0)
    if imag <= d * _EPS * scale:
        return w.real.copy()
    return w


def _from_hermitian_coords(c: np.ndarray) -> np.ndarray:
    """U c: the row-stacked vec of the matrix with Hermitian-basis coordinates c (each column)."""
    n = math.isqrt(c.shape[0])
    diag, upper, lower = _hermitian_basis(n)
    half = upper.size
    sym, anti = c[n:n + half], c[n + half:]
    x = np.empty(c.shape, dtype=complex)
    x[diag] = c[:n]
    x[upper] = (sym + 1j * anti) * math.sqrt(0.5)
    x[lower] = (sym - 1j * anti) * math.sqrt(0.5)
    return x


def _to_hermitian_coords(h) -> np.ndarray:
    """Real coordinates U* vec(H) of a Hermitian H in the basis of :func:`hermitian_form`."""
    flat = np.asarray(h).reshape(-1)
    diag, upper, _ = _hermitian_basis(math.isqrt(flat.size))
    off = flat[upper] * math.sqrt(2)
    return np.concatenate([flat[diag].real, off.real, off.imag])


def hermitian_block(n: int, cols) -> np.ndarray:
    """The coordinates that X -> C X C keeps, for C the projector onto the basis vectors ``cols``.

    They keep the basis order, which is that of the Hermitian basis of M_m
    (m = len(cols)), so the kept rows and columns of a :func:`hermitian_form`
    are the form of the compressed map on M_m.
    """
    inside = np.zeros(n, dtype=bool)
    inside[cols] = True
    i, j = np.triu_indices(n, 1)
    pair = inside[i] & inside[j]
    return np.flatnonzero(np.concatenate([inside, pair, pair]))


def fixed_space(m, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical eigenvalue-1 eigenspace of ``m``.

    Returns the right singular vectors ``v`` of ``m - I`` whose residual
    ``norm((m - I) v)`` is at most ``atol + rtol * norm(m, 2)``.  The list is
    empty when 1 is not an eigenvalue.  A real ``m`` (such as the real
    :func:`hermitian_form` of a map) is decomposed in real arithmetic.  It
    takes two SVDs, so the certifying callers run it only when the
    :func:`bordered_solve` certificate fails, to report the dimension.
    """
    mm = _as_square(m, "m", keep_real=True)
    d = mm.shape[0]
    threshold = tol.atol + tol.rtol * float(np.linalg.norm(mm, 2))
    _, sing, vh = np.linalg.svd(mm - np.eye(d))
    return [vh[i].conj() for i in range(d) if sing[i] <= threshold]


def bordered(m, x, cols) -> np.ndarray:
    """I - m + x e^T, where e is 1 on the coordinates ``cols`` and 0 elsewhere.

    For e^T m = e^T (e = vec(I) for a trace-preserving map, all ones for a
    column-stochastic matrix) and x the fixed point, its inverse is the
    fundamental map.  It is singular exactly when a fixed vector has e^T v = 0,
    that is, when the fixed space has dimension 2 or more.
    """
    a = np.eye(m.shape[0], dtype=np.result_type(m, x)) - m
    a[:, cols] += x[:, None]
    return a


def bordered_solve(m, cols) -> np.ndarray:
    """The fixed vector x of ``m`` with e^T x = 1, from one solve.

    With r = e / e^T e and e^T m = e^T, (I - m + r e^T) x = r forces
    e^T x = 1 and (I - m) x = 0.  An exactly singular system raises
    ``numpy.linalg.LinAlgError``; a nearly singular one gives an inaccurate
    x, which :func:`isolates_fixed_vector` detects.
    """
    r = np.zeros(m.shape[0])
    r[cols] = 1.0
    r /= r.sum()
    return np.linalg.solve(bordered(m, r, cols), r)


def isolates_fixed_vector(sing: np.ndarray, m, tol: Tolerance) -> bool:
    """Whether the singular values of ``bordered(m, x, cols)`` leave m one fixed vector.

    Rank-one interlacing gives sigma_min <= sigma_{d-1}(I - m), so
    sigma_min > atol + rtol * min(||m||_F, sqrt(||m||_1 ||m||_inf)) leaves it
    one vector at most: both bound ||m||_2, so this is at least the threshold
    of :func:`fixed_space` (the Hoelder bound is the tighter for maps on M_n).
    Below d * eps * sigma_max (numpy's ``matrix_rank`` cut) sigma_min is
    rounding, and x need not be a fixed point at all.
    """
    a = np.abs(m)
    threshold = tol.atol + tol.rtol * min(frobenius(m), math.sqrt(a.sum(0).max() * a.sum(1).max()))
    return bool(sing[-1] > max(threshold, sing.size * _EPS * sing[0]))


class PsdCheck(NamedTuple):
    ok: bool
    min_eigenvalue: float


def is_psd(x, tol: Tolerance = DEFAULT_TOL) -> PsdCheck:
    """Check positive semidefiniteness of a (nearly) Hermitian matrix.

    ``ok`` is true iff ``x`` is Hermitian within tolerance and the smallest
    eigenvalue of its Hermitian part is at least ``-atol``.  The minimum
    eigenvalue is always reported; a value above ``atol`` certifies strict
    positivity.
    """
    m = _as_square(x, "x")
    herm_residual = frobenius(m - m.conj().T)
    min_eig = float(np.linalg.eigvalsh(hermitize(m))[0])
    hermitian = herm_residual <= tol.atol + tol.rtol * frobenius(m)
    return PsdCheck(hermitian and min_eig >= -tol.atol, min_eig)


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a square matrix (real input stays real)."""
    mm = _as_square(m, "m", keep_real=True)
    if mm.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(mm))))


def _rescaled(x: np.ndarray) -> np.ndarray:
    """x over its largest entry modulus; a zero or non-finite x is a failed iteration."""
    scale = float(np.abs(x).max())
    if not 0.0 < scale < math.inf:
        raise np.linalg.LinAlgError("zero or non-finite iterate")
    return x / scale


def _collatz_wielandt(h: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """[alpha, beta] with alpha X <= Phi(X) <= beta X, X the matrix of coordinates x.

    Phi is the map whose real Hermitian form is h.  With L the Cholesky
    factor of X (``LinAlgError`` unless X is positive definite), alpha and
    beta are the extreme eigenvalues of L^-1 Phi(X) L^-*.
    """
    m = math.isqrt(x.size)
    w = np.linalg.inv(np.linalg.cholesky(_from_hermitian_coords(x).reshape(m, m)))
    y = _from_hermitian_coords(h @ x).reshape(m, m)
    eig = np.linalg.eigvalsh(w @ y @ w.conj().T)
    return float(eig[0]), float(eig[-1])


def _perron_radius(h: np.ndarray) -> float | None:
    """Spectral radius of a positive map from its real Hermitian form h, or None.

    Every positive definite iterate X brackets the radius (Collatz-Wielandt):
    Phi(X) <= beta X gives r <= beta and Phi(X) >= alpha X gives r >= alpha.
    Power steps from I precede shifted inverse iteration with
    sigma = beta + (beta - alpha) > r.  Then (sigma - Phi)^-1 =
    sum_k Phi^k / sigma^(k+1) is positive, so the iterates stay positive
    definite, and |sigma - mu| >= sigma - r for every eigenvalue mu, so the
    Perron eigenvector wins even against a peripheral spectrum.  Returns the
    midpoint once beta - alpha <= m^2 eps beta; None when an iterate is not
    positive definite (a singular Perron vector), a solve is singular, a
    solve leaves the width above ``_PERRON_SHRINK`` times the last one, or
    the budget runs out.
    """
    d = h.shape[0]
    x = _to_hermitian_coords(np.eye(math.isqrt(d)))
    width = math.inf
    try:
        for _ in range(_PERRON_POWER_STEPS):
            x = _rescaled(h @ x)
        for _ in range(_PERRON_BRACKETS):
            lo, hi = _collatz_wielandt(h, x)
            if hi - lo <= d * _EPS * hi:
                return (lo + hi) / 2
            if hi - lo > _PERRON_SHRINK * width:
                break
            width = hi - lo
            shifted = -h
            shifted.flat[:: d + 1] += 2 * hi - lo
            x = _rescaled(np.linalg.solve(shifted, x))
    except np.linalg.LinAlgError:
        pass
    return None


def survival_radius(block: np.ndarray, positive: bool = False) -> float:
    """Spectral radius of the survival map QT from ``block``, the kept block of a frame form.

    QT is the frame form h with the rows outside the kept coordinates zeroed,
    so its nonzero spectrum is that of ``block`` = h[kept][:, kept], the form
    of X -> B* T(B X B*) B on M_m, B the complement's basis.

    ``positive`` asserts that the map, and so the compression, is positive (a
    Kraus map is).  A real block with m^2 >= ``_PERRON_MIN_DIM`` then takes
    the Collatz-Wielandt bracket of :func:`_perron_radius`; when it cannot
    close, and for every other map, the radius is the block's :func:`spectral_radius`.
    """
    if positive and block.shape[0] >= _PERRON_MIN_DIM and np.isrealobj(block):
        radius = _perron_radius(block)
        if radius is not None:
            return radius
    return spectral_radius(block)
