"""Structured unit-norm frames on the sphere with provably low coherence.

For prime n and m | n - 1, pick the order-m multiplicative subgroup
Lambda = {g^0, g^e, ..., g^((m-1)e)} mod n (e = (n-1)/m, g a primitive
root) and keep the Lambda-indexed rows of the n x n Fourier matrix
F[k, j] = exp(2 pi i k j / n), j = 1..n. Splitting into real and
imaginary parts,

    V = (1/sqrt(m)) [[Re F, -Im F], [Im F, Re F]]  in R^(2m x 2n),

gives 2n unit vectors in dimension 2m whose pairwise inner products are
controlled by the character sums S_t = sum_{k in Lambda} e^(2 pi i k t / n):
the mutual coherence is  mu = max_t max(|Re S_t|, |Im S_t|) / m  over
t = 1..n-1, and it never exceeds sqrt(n)/m.

Write a frame matrix with ``pointset.save_csv(frame.V, path)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import AdmissibilityError, DomainError
from .numtheory import _subgroup, is_prime

__all__ = [
    "SphericalFrame",
    "CoherenceReport",
    "AsymptoticCoherenceBound",
    "sphere_index_set",
    "sphere_frame",
    "mutual_coherence",
    "asymptotic_coherence_bound",
]


@dataclass(frozen=True, eq=False)
class SphericalFrame:
    """2n unit-norm frame vectors in R^(2m), as columns of ``V``."""

    V: np.ndarray
    m: int
    n: int
    index_set: tuple[int, ...]

    @property
    def ambient_dim(self) -> int:
        return 2 * self.m

    @property
    def n_vectors(self) -> int:
        return 2 * self.n


@dataclass(frozen=True)
class CoherenceReport:
    """Mutual coherence plus the sqrt(n)/m guarantee.

    ``bound_holds`` flags mu <= sqrt(n)/m (up to 1e-12 slack).
    """

    mu: float
    bound: float
    bound_holds: bool


@dataclass(frozen=True)
class AsymptoticCoherenceBound:
    """Growth-rate coherence bound m^(-1/2) n^(1/6) (ln m)^(1/6).

    The bound is stated up to an unspecified constant and only for
    m <= n^(2/3); ``applicable`` records that proviso (checked exactly
    as m^3 <= n^2). Report-only: use it to judge scaling, not as a
    certified ceiling.
    """

    value: float
    applicable: bool


def sphere_index_set(m: int, n: int) -> tuple[int, ...]:
    """The order-m multiplicative subgroup of the nonzero residues mod n.

    Examples
    --------
    >>> sorted(sphere_index_set(2, 5))
    [1, 4]
    """
    m = operator.index(m)
    n = operator.index(n)
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if n < 2:
        raise DomainError(f"n must be prime, got {n}")
    if (n - 1) % m != 0:
        raise AdmissibilityError(f"m does not divide n-1 (m={m}, n={n})")
    if not is_prime(n):
        raise DomainError(f"n must be prime, got {n}")
    return tuple(_subgroup(m, n))


def sphere_frame(m: int, n: int) -> SphericalFrame:
    """Build the 2m x 2n frame from the order-m subgroup rows.

    Columns j and j + n are orthogonal by construction, and every
    column has unit norm.
    """
    idx = sphere_index_set(m, n)
    n = operator.index(n)
    lam = np.asarray(idx, dtype=np.int64)
    j = np.arange(1, n + 1, dtype=np.int64)
    ang = 2.0 * np.pi * ((lam[:, None] * j[None, :]) % n) / n
    c = np.cos(ang)
    s = np.sin(ang)
    V = np.block([[c, -s], [s, c]]) / math.sqrt(m)
    return SphericalFrame(V=V, m=m, n=n, index_set=idx)


def mutual_coherence(frame: SphericalFrame, method: str = "character_sum") -> CoherenceReport:
    """Largest |inner product| between distinct frame vectors.

    method="character_sum" (default) evaluates max over t = 1..n-1 of
    max(|Re S_t|, |Im S_t|)/m with S_t the subgroup character sum --
    O(nm) work. method="pairwise" forms the full Gram matrix of V and
    takes the off-diagonal maximum -- the O(n^2 m) reference oracle.
    Both paths return the same value to floating-point accuracy.
    """
    m, n = frame.m, frame.n
    if method == "pairwise":
        G = frame.V.T @ frame.V
        A = np.abs(G)
        np.fill_diagonal(A, 0.0)
        mu = float(A.max())
    elif method == "character_sum":
        lam = np.asarray(frame.index_set, dtype=np.int64)
        mu_num = 0.0
        block = max(1, (1 << 22) // max(1, m))
        for lo in range(1, n, block):
            t = np.arange(lo, min(lo + block, n), dtype=np.int64)
            # reduce k*t mod n before the angle so cos/sin see small args
            ang = 2.0 * np.pi * ((lam[:, None] * t[None, :]) % n) / n
            s_re = np.cos(ang).sum(axis=0)
            s_im = np.sin(ang).sum(axis=0)
            mu_num = max(mu_num, float(np.abs(s_re).max()), float(np.abs(s_im).max()))
        mu = mu_num / m
    else:
        raise DomainError(f"method must be 'character_sum' or 'pairwise', got {method!r}")
    bound = math.sqrt(n) / m
    return CoherenceReport(mu=mu, bound=bound, bound_holds=mu <= bound + 1e-12)


def asymptotic_coherence_bound(m: int, n: int) -> AsymptoticCoherenceBound:
    """Evaluate m^(-1/2) n^(1/6) (ln m)^(1/6) and its applicability.

    Examples
    --------
    >>> asymptotic_coherence_bound(1, 5).value
    0.0
    """
    m = operator.index(m)
    n = operator.index(n)
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    value = 0.0 if m == 1 else m ** (-0.5) * n ** (1.0 / 6.0) * math.log(m) ** (1.0 / 6.0)
    return AsymptoticCoherenceBound(value=value, applicable=m**3 <= n**2)
