"""Generating-vector construction for rank-1 lattices.

A rank-1 lattice with n points in [0, 1)^d is defined by an integer
generating vector z through x_i = (i * z mod n) / n, i = 0..n-1. Two
constructions are provided:

* ``subgroup_generating_vector`` -- closed form. For prime n with
  2d | n - 1 it places the components on the order-2d multiplicative
  subgroup of the nonzero residues: z = [g^0, g^e, ..., g^((d-1)e)] mod n
  with e = (n-1)/(2d) and g the smallest primitive root. Pairwise
  toroidal distances are then constant on cosets of the order-2d subgroup
  {+-z_j}, so the lattice has at most (n-1)/(2d) distinct distance values
  and every multiplicity is a multiple of 2d (distinct cosets can tie;
  generically they do not). There is no search: finding g factors n - 1
  (trial division by the primes below 1000, then Pollard-Brent rho;
  milliseconds typically, a fraction of a second at worst, for n < 2^64)
  and tests a few small candidates with one modular exponentiation per
  prime factor of n - 1; z then takes O(d) modular multiplications.
* ``korobov_search`` -- the classical exhaustive baseline. Scores every
  multiplier a in 1..n-1 by the minimum toroidal distance of the vector
  [1, a, a^2, ..., a^(d-1)] mod n and keeps the best (ties break to the
  smallest multiplier). Exact O(n^2) via discrete logs (Nuyens & Cools
  2006): in the exponents of a primitive root every score is a minimum
  of cyclic window sums, read off integer prefix sums for any d.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import AdmissibilityError, DomainError, SizeLimitError
from .metrics import _INT64_MAX, _norm_exponent
from .numtheory import _subgroup, is_prime

__all__ = [
    "GeneratingVector",
    "SearchResult",
    "subgroup_generating_vector",
    "korobov_vector",
    "korobov_search",
    "find_admissible_n",
]

_METHODS = ("subgroup", "korobov", "explicit")


@dataclass(frozen=True)
class GeneratingVector:
    """Integer generating vector of a rank-1 lattice.

    ``GeneratingVector(z, n)`` validates user-supplied components (any
    sequence of ints) and tags them with method "explicit".

    Attributes
    ----------
    z : tuple of int
        Components, each in 1..n-1.
    n : int
        Point count; prime for every construction in this module.
    method : str
        How the vector was obtained: "subgroup", "korobov" or "explicit".
    """

    z: tuple[int, ...]
    n: int
    method: str = "explicit"

    def __post_init__(self) -> None:
        n = operator.index(self.n)
        z = tuple(operator.index(c) for c in self.z)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "z", z)
        if self.method not in _METHODS:
            raise DomainError(f"unknown method {self.method!r}")
        if len(z) < 1:
            raise DomainError("generating vector needs at least one component")
        if not is_prime(n):
            raise DomainError(f"n must be prime, got {n}")
        bad = [c for c in z if not 1 <= c <= n - 1]
        if bad:
            raise DomainError(
                f"components must lie in 1..n-1, got {bad[:3]} for n={n}"
            )

    @property
    def d(self) -> int:
        return len(self.z)

    def as_array(self) -> np.ndarray:
        """Components as an int64 numpy vector."""
        return np.asarray(self.z, dtype=np.int64)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive Korobov multiplier search.

    ``score`` is the minimum toroidal distance of ``vector`` under the
    searched norm, derived from an exact integer key.
    """

    vector: GeneratingVector
    score: float
    multiplier: int
    candidates_evaluated: int
    norm: str


def subgroup_generating_vector(d: int, n: int) -> GeneratingVector:
    """Closed-form generating vector on a multiplicative subgroup.

    Parameters
    ----------
    d : int
        Dimension, >= 1.
    n : int
        Point count; must be prime with 2d | n - 1.

    Returns
    -------
    GeneratingVector
        z = [g^0, g^e, ..., g^((d-1)e)] mod n, e = (n-1)/(2d), g the
        smallest primitive root of n.

    Raises
    ------
    AdmissibilityError
        If n >= 2 and 2d does not divide n - 1.
    DomainError
        If d < 1 or n is not prime (n < 2 is checked first).

    Examples
    --------
    >>> subgroup_generating_vector(2, 5).z
    (1, 2)
    >>> subgroup_generating_vector(3, 13).z
    (1, 4, 3)
    """
    d = operator.index(d)
    n = operator.index(n)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if n < 2:
        raise DomainError(f"n must be prime, got {n}")
    if (n - 1) % (2 * d) != 0:
        raise AdmissibilityError(f"2d does not divide n-1 (d={d}, n={n})")
    if not is_prime(n):
        raise DomainError(f"n must be prime, got {n}")
    z = tuple(_subgroup(2 * d, n)[:d])
    return GeneratingVector(z=z, n=n, method="subgroup")


def korobov_vector(alpha: int, d: int, n: int) -> GeneratingVector:
    """Korobov vector [1, alpha, alpha^2, ..., alpha^(d-1)] mod n."""
    alpha = operator.index(alpha)
    d = operator.index(d)
    n = operator.index(n)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if not is_prime(n):
        raise DomainError(f"n must be prime, got {n}")
    if not 1 <= alpha <= n - 1:
        raise DomainError(f"alpha must lie in 1..n-1, got {alpha}")
    z = tuple(pow(alpha, k, n) for k in range(d))
    return GeneratingVector(z=z, n=n, method="korobov")


def _weight_table(n: int, p: int) -> np.ndarray:
    """w[r] = min(r, n-r) (l1) or its square (l2), r = 0..n-1."""
    r = np.arange(n, dtype=np.int64)
    w = np.minimum(r, n - r)
    return w * w if p == 2 else w


def _korobov_keys(d: int, n: int, w: np.ndarray) -> np.ndarray:
    """Integer score of every multiplier a, indexed by a (entry 0 is -1).

    With g the smallest primitive root, k = g^u and a = g^v, the score
    min over k of sum_{j<d} w[k a^j mod n] becomes
    min_u sum_{j<d} W[(u + v j) mod N] with N = n - 1 and
    W[x] = w[g^x mod n]. For each v the progression u, u + v, ... splits
    into c = gcd(v, N) cycles of length L = N / c, so a window of d
    steps is floor(d / L) whole cycles plus a cyclic window of d mod L
    steps, read off an int64 prefix sum. That is O(N) work per v, for
    any d.
    """
    N = n - 1
    powers = np.asarray(_subgroup(N, n), dtype=np.int64)  # powers[v] = g^v mod n
    W = w[powers]
    steps = np.arange(N, dtype=np.int64)
    keys = np.empty(N, dtype=np.int64)
    for v in range(N):
        c = math.gcd(v, N)
        L = N // c
        turns, s = divmod(d, L)
        # row r of the c x L table walks the cycle r, r + v, r + 2v, ...
        cycles = W[steps[:c, None] + (v * steps[:L]) % N]
        best = turns * cycles.sum(axis=1)
        if s:
            prefix = np.zeros((c, L + s), dtype=np.int64)
            np.cumsum(cycles, axis=1, out=prefix[:, 1 : L + 1])
            prefix[:, L + 1 :] = prefix[:, L, None] + prefix[:, 1:s]
            best = best + (prefix[:, s:] - prefix[:, :L]).min(axis=1)
        keys[v] = best.min()
    by_multiplier = np.full(n, -1, dtype=np.int64)
    by_multiplier[powers] = keys
    return by_multiplier


def korobov_search(d: int, n: int, norm: str = "l1") -> SearchResult:
    """Exhaustive Korobov multiplier search under a toroidal norm.

    Scores all n-1 multipliers, maximizing the minimum toroidal
    distance of the lattice; ties break to the smallest multiplier.
    Scores are compared as exact integers (scaled by n for l1, by n^2
    for l2), so the tie-breaking is exact. The search is exact O(n^2)
    via discrete logs: see ``_korobov_keys``. Every int64 intermediate
    there (index products, prefix sums) is below (n-1) * max(n-1, w),
    w the largest weight: (n-1)//2 for l1, its square for l2. When that
    bound exceeds 2**63 - 1 -- l2 from n = 3329023, l1 from
    n = 3037000501 -- ``SizeLimitError`` is raised before any table is
    built.

    Parameters
    ----------
    d, n : int
        Dimension >= 1 and prime point count with n >= 2d + 1.
    norm : str
        Norm to optimize, "l1" (default) or "l2".

    Examples
    --------
    >>> res = korobov_search(2, 5, "l1")
    >>> (res.multiplier, res.score)
    (2, 0.6)
    """
    d = operator.index(d)
    n = operator.index(n)
    p = _norm_exponent(norm)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if not is_prime(n):
        raise DomainError(f"n must be prime, got {n}")
    if n < 2 * d + 1:
        raise AdmissibilityError(f"need n >= 2d + 1, got d={d}, n={n}")
    half = (n - 1) // 2
    max_w = half if p == 1 else half * half
    if (n - 1) * max(n - 1, max_w) > _INT64_MAX:
        raise SizeLimitError(f"korobov_search overflows int64 for n={n}, {norm} norm")

    keys = _korobov_keys(d, n, _weight_table(n, p))
    best_alpha = int(np.argmax(keys))  # first maximum: the smallest multiplier
    best_key = int(keys[best_alpha])
    score = best_key / n if p == 1 else float(np.sqrt(best_key)) / n
    return SearchResult(
        vector=korobov_vector(best_alpha, d, n),
        score=score,
        multiplier=best_alpha,
        candidates_evaluated=n - 1,
        norm=norm,
    )


def find_admissible_n(d: int, count: int, start: int = 2) -> list[int]:
    """First ``count`` primes n >= start with 2d | n - 1 (and n >= 2d+1).

    Examples
    --------
    >>> find_admissible_n(50, 3)
    [101, 401, 601]
    """
    d = operator.index(d)
    count = operator.index(count)
    start = operator.index(start)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    step = 2 * d
    first = max(start, step + 1)
    t = -(-(first - 1) // step)  # ceil((first-1)/step)
    candidate = step * t + 1
    out: list[int] = []
    while len(out) < count:
        if is_prime(candidate):
            out.append(candidate)
        candidate += step
    return out
