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

Every entry of V and every term of S_t is cos or sin of 2 pi r / n for a
residue r = (k j) mod n. ``V`` gathers them from one length-n cos/sin
table. The coherence walks the cosets g^i Lambda, i < e: the m sums of a
coset are the rotations of one column of m cos/sin values, so it takes
n - 1 cos/sin evaluations, no gathers and m (n-1) adds, with the bits of
the direct formula.

``sphere_frame`` refuses a frame larger than physical memory up front and
builds ``V`` on its first read; the character sums never read it. Write a
frame matrix with ``pointset.save_csv(frame.V, path)``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import AdmissibilityError, DomainError, SizeLimitError, _at_least, _require_memory
from .metrics import _INT64_MAX, _powers
from .numtheory import _prime_modulus, _subgroup, _subgroup_guard, primitive_root

__all__ = [
    "SphericalFrame",
    "CoherenceReport",
    "AsymptoticCoherenceBound",
    "sphere_index_set",
    "sphere_frame",
    "mutual_coherence",
    "asymptotic_coherence_bound",
]

# Elements of one coset block's m x cols arrays in ``mutual_coherence``.
_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class SphericalFrame:
    """2n unit-norm frame vectors in R^(2m), as columns of ``V`` (built on first read)."""

    m: int
    n: int
    index_set: tuple[int, ...]

    @functools.cached_property
    def V(self) -> np.ndarray:
        m, n = self.m, self.n
        c, s = _unit_circle(n)
        scale = math.sqrt(m)
        c /= scale
        s /= scale
        lam = np.asarray(self.index_set, dtype=np.int64)
        r = lam[:, None] * np.arange(1, n + 1, dtype=np.int64)[None, :]
        np.remainder(r, n, out=r)
        # residues lie in [0, n), and mode="clip" lets take write into the
        # views of V without an intermediate buffer; (-s)/sqrt(m) equals
        # -(s/sqrt(m)) exactly, so the negated copy keeps the block's bits
        V = np.empty((2 * m, 2 * n))
        np.take(c, r, out=V[:m, :n], mode="clip")
        np.take(s, r, out=V[m:, :n], mode="clip")
        V[m:, n:] = V[:m, :n]
        np.negative(V[m:, :n], out=V[:m, n:])
        return V

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
    m, n = _subgroup_args(m, n)
    return _subgroup(m, n, m)


def _subgroup_args(m: int, n: int) -> tuple[int, int]:
    """m and n as ints, once m | n - 1, n is prime (n < 2 fails as not
    prime) and the size guard of the m subgroup powers passes."""
    m = _at_least(m, 1, "m")
    n = operator.index(n)
    if n >= 2 and (n - 1) % m != 0:
        raise AdmissibilityError(f"m does not divide n-1 (m={m}, n={n})")
    _subgroup_guard(m, m, _prime_modulus(n))
    return m, n


def _unit_circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi r / n for r = 0..n-1.

    The angle of residue r is 2.0 * pi * r / n, the float expression of
    the per-entry formula, so gathering these tables by residue gives the
    bits of evaluating cos/sin entry by entry.
    """
    ang = 2.0 * np.pi * np.arange(n, dtype=np.int64) / n
    return np.cos(ang), np.sin(ang)


def sphere_frame(m: int, n: int) -> SphericalFrame:
    """The 2m x 2n frame of the order-m subgroup rows.

    Columns j and j + n are orthogonal by construction, and every
    column has unit norm. ``V`` is built on its first read, but
    ``SizeLimitError`` is raised up front, before the index set is
    listed, when the index set exceeds physical memory, when a product
    k * j could pass 2**63 - 1, or when the frame, its m x n residue
    matrix and the two length-n tables together exceed physical memory.
    """
    m, n = _subgroup_args(m, n)
    # k <= n - 1 and j <= n; no odd n separates this bound from the
    # (n-1)**2 < 2**63 bound of pointset.generate
    if (n - 1) * n > _INT64_MAX:
        raise SizeLimitError(f"k * j overflows int64 for n={n}; need (n-1)*n < 2**63")
    _require_memory(8 * (4 * m * n + m * n + 2 * n), f"sphere frame for m={m}, n={n}")
    return SphericalFrame(m=m, n=n, index_set=_subgroup(m, n, m))


def mutual_coherence(frame: SphericalFrame, method: str = "character_sum") -> CoherenceReport:
    """Largest |inner product| between distinct frame vectors.

    method="character_sum" (default) evaluates max over t = 1..n-1 of
    max(|Re S_t|, |Im S_t|)/m with S_t the subgroup character sum, in
    blocks of cosets (see the module docstring). It needs the index set
    ``sphere_frame`` lists, h**0, ..., h**(m-1) with h the subgroup's
    generator, and raises ``DomainError`` for any other.
    method="pairwise" forms the full Gram matrix of V and takes the
    off-diagonal maximum -- the O(n^2 m) reference oracle, which builds
    ``frame.V``; it raises ``SizeLimitError`` before allocating when its
    two (2n)^2 arrays exceed physical memory. Both paths return the same
    value to floating-point accuracy.
    """
    m, n = frame.m, frame.n
    if method == "pairwise":
        _require_memory(2 * 8 * (2 * n) ** 2, f"pairwise Gram for n={n}")
        G = frame.V.T @ frame.V
        A = np.abs(G)
        np.fill_diagonal(A, 0.0)
        mu = float(A.max())
    elif method == "character_sum":
        # with t = h**k g**i, lambda_j t = h**(j+k) g**i: coset g**i's m sums are
        # the rotations ring[k : k + m] of one column, each added in index-set order
        g = primitive_root(n)
        lam = np.asarray(frame.index_set, dtype=np.int64)
        e, rest = divmod(n - 1, m)
        if rest or not np.array_equal(lam, _powers(pow(g, e, n), m, n)):
            raise DomainError("character_sum needs index_set to list the successive powers "
                              "of the order-m subgroup's generator, as sphere_frame does")
        cols = min(e, max(1, _BLOCK // m))
        g_i = _powers(g, cols, n)
        mu_num = 0.0
        for start in range(0, e, cols):
            reps = g_i[: e - start] * pow(g, start, n) % n
            ang = 2.0 * np.pi * (lam[:, None] * reps[None, :] % n) / n
            for f in (np.cos, np.sin):
                acc = f(ang)
                ring = np.concatenate((acc, acc[: m - 1]))
                for j in range(1, m):
                    acc += ring[j : j + m]
                mu_num = max(mu_num, float(np.abs(acc).max()))
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
    m = _at_least(m, 1, "m")
    n = _at_least(n, 2, "n")
    value = 0.0 if m == 1 else m ** (-0.5) * n ** (1.0 / 6.0) * math.log(m) ** (1.0 / 6.0)
    return AsymptoticCoherenceBound(value=value, applicable=m**3 <= n**2)
