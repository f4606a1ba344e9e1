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
:func:`hermitian_form` changes to that basis (:func:`kraus_form` builds the
form of a Kraus map from its operators), where the kernels of such maps
(solves, the fixed space, condition numbers, the survival radius) run in
real arithmetic and a compression X -> CXC is a mask (:func:`hermitian_block`).
Only this module spells that basis: other modules use :func:`hermitian_coords`,
:func:`hermitian_matrix` and :func:`l1_bound`, and border with e = coords(I).
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
    "finite_square",
    "frobenius",
    "scaled_norm",
    "divide",
    "fixed_space",
    "bordered",
    "bordered_solve",
    "isolates_fixed_vector",
    "singular_bounds",
    "is_psd",
    "PsdCheck",
    "spectral_radius",
    "hermitian_form",
    "kraus_form",
    "hermitian_block",
    "hermitian_coords",
    "hermitian_matrix",
    "l1_bound",
    "sigma_min_floor",
    "gamma",
]

# Solves whose 2-norm condition number exceeds this are singular to working
# precision.
COND_CEIL = 1e14
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by the validation routines."""

    atol: float = 1e-10
    rtol: float = 1e-10

    def __post_init__(self) -> None:
        if not (self.atol >= 0 and self.rtol >= 0):  # NaN fails too
            raise ValueError("tolerances must be non-negative")


DEFAULT_TOL = Tolerance()


def start_distribution(x, n: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """``x`` as a start distribution over n states: entries >= -``tol.atol`` that sum to 1.

    The sum may miss 1 by ``tol.atol + tol.rtol``, as a chain's column may.
    """
    dist = np.asarray(x, dtype=float).reshape(-1)
    if dist.size != n:
        raise ValidationError(f"distribution has length {dist.size}, chain has {n} states")
    # Written so that NaN and inf entries fail too.
    if not (dist.min() >= -tol.atol and abs(dist.sum() - 1.0) <= tol.atol + tol.rtol):
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


def finite_square(a, name: str) -> np.ndarray:
    """``a`` as a complex square matrix, refused unless every entry is finite."""
    m = _as_square(a, name)
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
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
    return scale * float(np.linalg.norm(divide(v, scale)))


def divide(x, s: float) -> np.ndarray:
    """x / s for a float s > 0, as numpy divides; a quotient beyond the double range is inf.

    numpy divides a complex array by s through 1 / s, which overflows for a
    subnormal s; there the real and imaginary parts are divided instead.
    """
    x = np.asarray(x)
    with np.errstate(over="ignore"):
        if s >= 1 / np.finfo(float).max or not np.iscomplexobj(x):
            return x / s
        return (np.ascontiguousarray(x).view(float) / s).view(complex)


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
    if imag <= d * EPS * scale:
        return w.real.copy()
    return w


def kraus_form(ops) -> np.ndarray:
    """The real :func:`hermitian_form` of X -> sum_i V_i X V_i*, straight from the (k, n, n) family.

    Row (k, l) of the representation, as a matrix over the columns (a, b),
    is O = sum_i V_i[k, :]^T conj(V_i[l, :]), the (k, l) entry of T(E_ab).
    Its real and imaginary parts come from one batched real product per
    pair k <= l, [[X_k, Y_k], [Y_k, -X_k]] [X_l, Y_l]^T with V = X + iY,
    whose inner dimension is twice the Kraus rank: memory O(k n^3 + n^4)
    and no complex d x d array.  The diagonal, symmetric and antisymmetric
    combinations of O are the columns.  T(E) is Hermitian for a Hermitian
    basis element E, so row (k, k) is Re T(E)_kk and the pair k < l gives
    sqrt(2) Re T(E)_kl and sqrt(2) Im T(E)_kl.
    """
    ops = np.asarray(ops)
    n = ops.shape[-1]
    diag, upper, lower = _hermitian_basis(n)
    k, l = divmod(np.concatenate([diag, upper]), n)  # the pairs k <= l in the basis order
    rows = ops.transpose(1, 2, 0)  # rows[k, a, s] = V_s[k, a]
    x, y = rows.real, rows.imag
    left = np.concatenate([np.concatenate([x, y], 2), np.concatenate([y, -x], 2)], 1)
    right = np.concatenate([x, y], 2).transpose(0, 2, 1)
    o = (left[k] @ right[l]).reshape(k.size, 2, n * n)  # row-stacked Re O, Im O
    r, q = math.sqrt(0.5), math.sqrt(2)

    def columns(a, b, diag_scale, pair_scale):
        """Re of the columns for (a, b) = (Re O, Im O), Im for (Im O, -Re O), scaled."""
        sym, anti = a[:, upper] + a[:, lower], b[:, lower] - b[:, upper]
        return np.concatenate([a[:, diag] * diag_scale, sym * pair_scale, anti * pair_scale], axis=1)

    # sqrt(2) r = 1 on the rows of the pairs k < l.
    re, im = o[:, 0], o[:, 1]
    return np.concatenate([
        columns(re[:n], im[:n], 1.0, r),
        columns(re[n:], im[n:], q, 1.0),
        columns(im[n:], -re[n:], q, 1.0),
    ])


def hermitian_matrix(c: np.ndarray) -> np.ndarray:
    """The n x n matrix whose coordinates in the basis of :func:`hermitian_form` are ``c``."""
    n = math.isqrt(c.size)
    diag, upper, lower = _hermitian_basis(n)
    sym, anti = c[n:n + upper.size], c[n + upper.size:]
    x = np.empty(c.shape, dtype=complex)
    x[diag] = c[:n]
    x[upper] = (sym + 1j * anti) * math.sqrt(0.5)
    x[lower] = (sym - 1j * anti) * math.sqrt(0.5)
    return x.reshape(n, n)


def hermitian_coords(h) -> np.ndarray:
    """Real coordinates U* vec(H) of a Hermitian H in the basis of :func:`hermitian_form`."""
    flat = np.asarray(h).reshape(-1)
    diag, upper, _ = _hermitian_basis(math.isqrt(flat.size))
    off = flat[upper] * math.sqrt(2)
    return np.concatenate([flat[diag].real, off.real, off.imag])


def l1_bound(c: np.ndarray) -> float:
    """An upper bound on ||vec X||_1, X the matrix of coordinates ``c``.

    In the Hermitian basis (diagonal first) x_ij, x_ji = (s +- i a) / sqrt(2),
    so |x_ij| + |x_ji| <= sqrt(2) (|s| + |a|), complex s, a too: the bound
    exceeds the norm by at most sqrt(2) on real coordinates.  It bounds the
    trace of a positive X.
    """
    n = math.isqrt(c.size)
    return float(np.abs(c[:n]).sum() + math.sqrt(2) * np.abs(c[n:]).sum())


def hermitian_block(n: int, cols) -> np.ndarray:
    """The coordinates that X -> C X C keeps, for C the projector onto the basis vectors ``cols``.

    They keep the basis order, which is that of the Hermitian basis of M_m
    (m = len(cols)), so the kept rows and columns of a :func:`hermitian_form`
    are the form of the compressed map on M_m.
    """
    inside = np.zeros(n, dtype=bool)
    inside[cols] = True
    i, j = divmod(_hermitian_basis(n)[1], n)
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


def bordered(m, x, e) -> np.ndarray:
    """I - m + x e^T for a 0/1 covector e.

    For e^T m = e^T (e = coords(I) for a trace-preserving map, all ones for
    a column-stochastic matrix) and x the fixed point, its inverse is the
    fundamental map.  It is singular exactly when a fixed vector has e^T v = 0,
    that is, when the fixed space has dimension 2 or more.
    """
    a = np.eye(m.shape[0], dtype=np.result_type(m, x)) - m
    a[:, e != 0] += x[:, None]
    return a


def bordered_solve(m, e) -> np.ndarray:
    """The fixed vector x of ``m`` with e^T x = 1, from one solve.

    With r = e / e^T e and e^T m = e^T, (I - m + r e^T) x = r forces
    e^T x = 1 and (I - m) x = 0.  An exactly singular system raises
    ``numpy.linalg.LinAlgError``; a nearly singular one gives an inaccurate
    x, which :func:`isolates_fixed_vector` detects.
    """
    r = e / e.sum()
    return np.linalg.solve(bordered(m, r, e), r)


def isolates_fixed_vector(low: float, high: float, m, tol: Tolerance) -> bool:
    """Whether sigma_min >= ``low`` and sigma_max <= ``high`` of ``bordered(m, x, e)`` leave m one fixed vector.

    Rank-one interlacing gives sigma_min <= sigma_{d-1}(I - m), so
    sigma_min > atol + rtol * min(||m||_F, sqrt(||m||_1 ||m||_inf)) leaves it
    one vector at most: both bound ||m||_2, so this is at least the threshold
    of :func:`fixed_space` (the Hoelder bound is the tighter for maps on M_n).
    Below d * eps * sigma_max (numpy's ``matrix_rank`` cut) sigma_min is
    rounding, and x need not be a fixed point at all.  The bounds may be the
    singular values themselves or those of :func:`sigma_min_floor`.
    """
    a = np.abs(m)
    threshold = tol.atol + tol.rtol * min(frobenius(m), math.sqrt(a.sum(0).max() * a.sum(1).max()))
    return bool(low > max(threshold, m.shape[0] * EPS * high))


def singular_bounds(a: np.ndarray, m, tol: Tolerance, judged: bool) -> tuple[float, float] | None:
    """(low, high) with low <= sigma_min(a), sigma_max(a) <= high, for a = ``bordered(m, x, e)``.

    The :func:`sigma_min_floor` and ||a||_F for a real ``a``, else the values-only SVD.  With
    ``judged``, bounds that leave m more than one fixed vector (:func:`isolates_fixed_vector`) fall
    to the SVD, and None when it leaves more too: the SVD isolates it wherever the floor does.
    """
    if np.isrealobj(a):
        low, high = sigma_min_floor(a), frobenius(a)
        if low > 0 and (not judged or isolates_fixed_vector(low, high, m, tol)):
            return low, high
    sing = np.linalg.svd(a, compute_uv=False)
    low, high = float(sing[-1]), float(sing[0])
    return None if judged and not isolates_fixed_vector(low, high, m, tol) else (low, high)


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = eps / 2: the relative error of a k-term dot product."""
    return k * EPS / 2 / (1 - k * EPS / 2)


def sigma_min_floor(a: np.ndarray) -> float:
    """A lower bound on the least singular value of a real square ``a``, or 0.0.

    One Cholesky factorization of fl(G - s I), G = fl(A^T A), at a fixed
    shift.  delta = gamma_d ||A||_F^2 bounds ||G - A^T A||_2, because
    |G - A^T A| <= gamma_d |A|^T |A|; c = 2 gamma_{d+1} tr(G) bounds the
    backward error of a floating-point Cholesky factorization that runs to
    completion (Rump, "Verification of positive definiteness", *BIT* 46,
    2006), together with the rounding of the shift.  If it succeeds at
    s = 2 (delta + c), then lambda_min(A^T A) >= s - delta - c, so
    sigma_min(A) >= sqrt(delta + c).  The shift does not depend on ``a``
    beyond its scale, so a certified A has sigma_max / sigma_min <=
    ||A||_F / sqrt(delta + c), about 1 / sqrt(4 d u).
    """
    d = a.shape[0]
    g = a.T @ a
    trace = float(np.trace(g))
    if not 0.0 < trace < math.inf:
        return 0.0
    # delta + c, with delta <= 2 gamma_d tr(G): tr(G) is ||A||_F^2 to within gamma_d.
    margin = 2 * (gamma(d) + gamma(d + 1)) * trace
    g.flat[:: d + 1] -= 2 * margin
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return 0.0
    return math.sqrt(margin)


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
