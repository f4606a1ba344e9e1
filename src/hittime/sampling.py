"""Seeded random instances used by property tests and the self-test."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .hitting import ArrivalSubspace, subspace_from_vectors
from .linalg import DEFAULT_TOL, Tolerance, hermitize
from .maps import (
    CERTIFIED_IRREDUCIBLE,
    DensityMatrix,
    IrreducibilityCertificate,
    SuperOperator,
    from_kraus,
    invariant_state,
)

__all__ = [
    "as_rng",
    "random_cptp_map",
    "random_irreducible_cptp",
    "random_density",
    "random_density_supported",
    "random_subspace",
    "random_column_stochastic",
]

_MAX_TRIES = 20


def as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _complex_gaussian(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_cptp_map(n: int, num_kraus: int | None = None, rng=None) -> SuperOperator:
    """Random completely positive trace-preserving map from Gaussian Kraus seeds.

    The raw operators G_i are whitened by S^{-1/2} with S = sum G_i* G_i, so
    the family satisfies sum V_i* V_i = I exactly up to round-off.
    """
    rng = as_rng(rng)
    if num_kraus is None:
        num_kraus = n * n
    seeds = [_complex_gaussian(rng, n, n) for _ in range(num_kraus)]
    s = sum(g.conj().T @ g for g in seeds)
    eigval, eigvec = np.linalg.eigh(s)
    whitener = eigvec @ np.diag(eigval**-0.5) @ eigvec.conj().T
    return from_kraus([g @ whitener for g in seeds])


def random_irreducible_cptp(
    n: int,
    num_kraus: int | None = None,
    rng=None,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[SuperOperator, IrreducibilityCertificate]:
    """Random CPTP map together with its irreducibility certificate.

    Generic Gaussian instances are irreducible; re-draws are a safety net.
    """
    rng = as_rng(rng)
    for _ in range(_MAX_TRIES):
        t = random_cptp_map(n, num_kraus, rng)
        cert = invariant_state(t, tol)
        if cert.verdict == CERTIFIED_IRREDUCIBLE:
            return t, cert
    raise ValidationError(
        f"could not sample a certified irreducible map in {_MAX_TRIES} tries"
    )


def random_density(n: int, rng=None, rank: int | None = None) -> DensityMatrix:
    """Random full-rank (or given-rank) density matrix."""
    rng = as_rng(rng)
    g = _complex_gaussian(rng, n, rank if rank is not None else n)
    m = g @ g.conj().T
    return DensityMatrix(hermitize(m / np.trace(m).real))


def random_density_supported(basis: np.ndarray, rng=None) -> DensityMatrix:
    """Random density whose range lies in the span of the given orthonormal columns."""
    rng = as_rng(rng)
    r = basis.shape[1]
    inner = random_density(r, rng).matrix
    return DensityMatrix(hermitize(basis @ inner @ basis.conj().T))


def random_subspace(n: int, rank: int, rng=None) -> ArrivalSubspace:
    """Haar-ish random arrival subspace of the given rank (0 < rank < n)."""
    rng = as_rng(rng)
    q, _ = np.linalg.qr(_complex_gaussian(rng, n, n))
    return subspace_from_vectors([q[:, j] for j in range(rank)])


def random_column_stochastic(n: int, rng=None) -> np.ndarray:
    """Random column-stochastic matrix with strictly positive entries (irreducible)."""
    rng = as_rng(rng)
    return rng.dirichlet(np.ones(n), size=n).T
