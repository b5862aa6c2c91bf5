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
residue r = (k j) mod n, evaluated as 2.0 * pi * r / n. ``V`` evaluates
its m n residues in place in its cos block. The coherence walks the
cosets g^i Lambda, i < e: the m sums of a coset are the rotations of one
column of m cos/sin values, so it takes n - 1 cos/sin evaluations, no
gathers and m (n-1) adds, with the bits of the direct formula.

A ``SphericalFrame`` is its (m, n): it checks them when it is made and
lists Lambda on the first read of ``index_set``. ``sphere_frame`` also
refuses a frame larger than physical memory up front; ``V`` is built on
its first read, and the character sums never read it. Write a frame
matrix with ``pointset.save_csv(frame.V, path)``.
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
    "sphere_frame",
    "mutual_coherence",
    "asymptotic_coherence_bound",
]

# Elements of one coset block's m x cols arrays in ``mutual_coherence``.
_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class SphericalFrame:
    """2n unit-norm frame vectors in R^(2m), as columns of ``V`` (built on first read).

    Making one checks m >= 1, m | n - 1, n prime (n < 2 fails as not
    prime), the size guard of the index set, and (n-1) * n < 2**63, so
    that no product k * j of an index and a column wraps in int64. It
    lists nothing: ``index_set``, the order-m subgroup h**0, ..., h**(m-1)
    mod n with h its generator, is listed on its first read.

    Examples
    --------
    >>> sorted(SphericalFrame(2, 5).index_set)
    [1, 4]
    """

    m: int
    n: int

    def __post_init__(self):
        m = _at_least(self.m, 1, "m")
        n = operator.index(self.n)
        if n >= 2 and (n - 1) % m != 0:
            raise AdmissibilityError(f"m does not divide n-1 (m={m}, n={n})")
        _subgroup_guard(m, m, _prime_modulus(n))
        # k <= n - 1 and j <= n; no odd n separates this bound from the
        # (n-1)**2 < 2**63 bound of pointset.generate
        if (n - 1) * n > _INT64_MAX:
            raise SizeLimitError(f"k * j overflows int64 for n={n}; need (n-1)*n < 2**63")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    @functools.cached_property
    def index_set(self) -> tuple[int, ...]:
        return _subgroup(self.m, self.n, self.m)

    @functools.cached_property
    def V(self) -> np.ndarray:
        m, n = self.m, self.n
        lam = np.asarray(self.index_set, dtype=np.int64)
        r = lam[:, None] * np.arange(1, n + 1, dtype=np.int64)[None, :]
        np.remainder(r, n, out=r)
        # the angles 2.0 * pi * r / n fill the cos block, sin reads them into
        # the sin block and cos then overwrites them; (-s)/sqrt(m) equals
        # -(s/sqrt(m)) exactly, so the negated copy keeps the block's bits
        V = np.empty((2 * m, 2 * n))
        c, s = V[:m, :n], V[m:, :n]
        np.multiply(2.0 * np.pi, r, out=c)
        c /= n
        np.sin(c, out=s)
        np.cos(c, out=c)
        scale = math.sqrt(m)
        c /= scale
        s /= scale
        V[m:, n:] = c
        np.negative(s, out=V[:m, n:])
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


def sphere_frame(m: int, n: int) -> SphericalFrame:
    """The 2m x 2n frame of the order-m subgroup rows.

    Columns j and j + n are orthogonal by construction, and every
    column has unit norm. ``SphericalFrame(m, n)`` checks m and n; on
    top of that, ``SizeLimitError`` is raised up front when the frame and
    its m x n residue matrix together exceed physical memory. Nothing is
    listed or built until ``index_set`` or ``V`` is read.
    """
    frame = SphericalFrame(m, n)
    _require_memory(8 * 5 * frame.m * frame.n, f"sphere frame for m={frame.m}, n={frame.n}")
    return frame


def mutual_coherence(frame: SphericalFrame, method: str = "character_sum") -> CoherenceReport:
    """Largest |inner product| between distinct frame vectors.

    method="character_sum" (default) evaluates max over t = 1..n-1 of
    max(|Re S_t|, |Im S_t|)/m with S_t the subgroup character sum, in
    blocks of cosets (see the module docstring); it never reads
    ``frame.index_set`` or ``frame.V``.
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
        e = (n - 1) // m
        lam = _powers(pow(g, e, n), m, n)
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
