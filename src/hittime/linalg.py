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
:func:`hermitian_form` changes to that basis, so the spectral kernels of such
maps (fixed space, condition numbers, the survival radius) run in real
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "vec",
    "unvec",
    "hermitize",
    "frobenius",
    "fixed_space",
    "is_psd",
    "PsdCheck",
    "spectral_radius",
    "hermitian_form",
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


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by the validation routines."""

    atol: float = 1e-10
    rtol: float = 1e-10

    def __post_init__(self) -> None:
        if not (self.atol >= 0 and self.rtol >= 0):  # NaN fails too
            raise ValueError("tolerances must be non-negative")


DEFAULT_TOL = Tolerance()


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
    """Hermitian part (X + X*) / 2, used before positivity checks."""
    m = _as_square(x, "x")
    return (m + m.conj().T) / 2


def frobenius(x) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(x)))


def _hermitian_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vec indices of the diagonal entries, of (i, j) and of (j, i) for i < j."""
    i, j = np.triu_indices(n, 1)
    return np.arange(n) * (n + 1), i * n + j, j * n + i


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
    if imag <= d * np.finfo(float).eps * scale:
        return w.real.copy()
    return w


def _from_hermitian_coords(c: np.ndarray) -> np.ndarray:
    """U c: the row-stacked vec of the matrix with Hermitian-basis coordinates c."""
    n = math.isqrt(c.size)
    diag, upper, lower = _hermitian_basis(n)
    half = upper.size
    sym, anti = c[n:n + half], c[n + half:]
    x = np.empty(c.size, dtype=complex)
    x[diag] = c[:n]
    x[upper] = (sym + 1j * anti) * math.sqrt(0.5)
    x[lower] = (sym - 1j * anti) * math.sqrt(0.5)
    return x


def fixed_space(m, tol: Tolerance | None = None) -> list[np.ndarray]:
    """Orthonormal basis of the numerical eigenvalue-1 eigenspace of ``m``.

    Returns the right singular vectors ``v`` of ``m - I`` whose residual
    ``norm((m - I) v)`` is at most ``atol + rtol * norm(m, 2)``.  The list is
    empty when 1 is not an eigenvalue.  A real ``m`` is decomposed in real
    arithmetic; a complex n^2 x n^2 ``m`` (a map on M_n) in its
    :func:`hermitian_form`, with the vectors mapped back to vec coordinates.
    """
    if tol is None:
        tol = DEFAULT_TOL
    mm = _as_square(m, "m", keep_real=True)
    d = mm.shape[0]
    lifted = np.iscomplexobj(mm) and math.isqrt(d) ** 2 == d
    h = hermitian_form(mm) if lifted else mm.copy()
    threshold = tol.atol + tol.rtol * float(np.linalg.norm(h, 2))
    h.flat[:: d + 1] -= 1.0
    _, sing, vh = np.linalg.svd(h)
    basis = [vh[i].conj() for i in range(d) if sing[i] <= threshold]
    return [_from_hermitian_coords(v) for v in basis] if lifted else basis


class PsdCheck(NamedTuple):
    ok: bool
    min_eigenvalue: float


def is_psd(x, tol: Tolerance | None = None) -> PsdCheck:
    """Check positive semidefiniteness of a (nearly) Hermitian matrix.

    ``ok`` is true iff ``x`` is Hermitian within tolerance and the smallest
    eigenvalue of its Hermitian part is at least ``-atol``.  The minimum
    eigenvalue is always reported; a value above ``atol`` certifies strict
    positivity.
    """
    if tol is None:
        tol = DEFAULT_TOL
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


def survival_radius(rep, basis) -> float:
    """Spectral radius of QQ rep for QQ = kron(Q, conj(Q)), Q = B B*.

    ``basis`` B is an n x m orthonormal basis of range(Q).  With
    K = kron(B, conj(B)), QQ = K K*, so QQ rep has the nonzero spectrum of
    the m^2 x m^2 compression K* rep K, the map X -> B* T(B X B*) B on M_m.
    That compression is decomposed in its :func:`hermitian_form`.
    """
    b = np.asarray(basis)
    n, m = b.shape
    d = n * n
    bc = b.conj()
    # Right factor: columns (g, h) of rep K, contracting the column indices
    # (c, e) of rep with B[c, g] conj(B)[e, h].
    x = b.T @ (np.asarray(rep).reshape(d, n, n) @ bc)
    # Left factor: rows (a, b) contracted with conj(B)[a, g] B[b, h].
    x = b.T @ (bc.T @ x.reshape(n, n * m * m)).reshape(m, n, m * m)
    return spectral_radius(hermitian_form(x.reshape(m * m, m * m)))
