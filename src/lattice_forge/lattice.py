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
* ``korobov_search`` -- the classical exhaustive baseline. Keeps the
  multiplier a whose vector [1, a, a^2, ..., a^(d-1)] mod n has the
  largest minimum toroidal distance (ties break to the smallest a). The
  orbit a, n - a, a^-1, n - a^-1 shares one distance (Sloan & Joe 1994),
  so one multiplier in four is ranked. An exact score costs O(n) via
  discrete logs (Nuyens & Cools 2006): in the exponents of a primitive
  root every score is a minimum of cyclic window sums, read off integer
  prefix sums for any d. An upper bound from the terms at k = 1..64 lets
  most orbits go unscored (early abort, L'Ecuyer & Munger 2016), so the
  O(n^2) of scoring them all is the worst case, not the rule. The search
  builds the winning vector itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import AdmissibilityError, DomainError, SizeLimitError, _at_least, _require_memory
from .metrics import _BLOCK, _INT64_MAX, _nondegenerate, _norm_exponent, _powers
from .numtheory import _prime_modulus, _subgroup, _subgroup_guard, is_prime, primitive_root

__all__ = [
    "GeneratingVector",
    "SearchResult",
    "subgroup_generating_vector",
    "korobov_search",
    "find_admissible_n",
]

_METHODS = ("subgroup", "korobov", "explicit")

# Korobov scores are bounded by their terms at k = 1.._BOUND_K.
_BOUND_K = 64


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
        z = tuple(map(operator.index, self.z))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "z", z)
        if self.method not in _METHODS:
            raise DomainError(f"unknown method {self.method!r}")
        if len(z) < 1:
            raise DomainError("generating vector needs at least one component")
        _prime_modulus(n)
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

    ``vector`` is the Korobov vector of the best ``multiplier``, and
    ``score`` its minimum toroidal distance under the searched norm,
    derived from an exact integer key. One multiplier of each orbit
    {a, n - a, a^-1, n - a^-1} is ranked, by its exact key or by an
    upper bound below the best key.
    """

    vector: GeneratingVector
    score: float
    multiplier: int


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
    d, n = _subgroup_args(d, n)
    return GeneratingVector(z=_subgroup(2 * d, n, d), n=n, method="subgroup")


def _subgroup_args(d: int, n: int) -> tuple[int, int]:
    """d and n as ints, checked as ``subgroup_generating_vector`` takes them:
    d >= 1, 2d | n - 1, n prime, then the d powers' size guard."""
    d = _at_least(d, 1, "d")
    n = operator.index(n)
    if n >= 2 and (n - 1) % (2 * d) != 0:
        raise AdmissibilityError(f"2d does not divide n-1 (d={d}, n={n})")
    _subgroup_guard(d, 2 * d, _prime_modulus(n))
    return d, n


def _weight_table(n: int, p: int) -> np.ndarray:
    """w[r] = min(r, n-r) (l1) or its square (l2), r = 0..n-1."""
    r = np.arange(n, dtype=np.int64)
    w = np.minimum(r, n - r)
    return w * w if p == 2 else w


def _exponent_tables(n: int, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """powers[v] = g^v mod n, W[v] = w[g^v mod n] and steps[v] = v, v < n-1."""
    powers = _powers(primitive_root(n), n - 1, n)
    return powers, w[powers], np.arange(n - 1, dtype=np.int64)


def _korobov_key(v: int, d: int, W: np.ndarray, steps: np.ndarray) -> int:
    """Integer score of the multiplier a = g^v (tables from ``_exponent_tables``).

    With k = g^u, the score min over k of sum_{j<d} w[k a^j mod n]
    becomes min_u sum_{j<d} W[(u + v j) mod N], N = n - 1. The progression
    u, u + v, ... splits into c = gcd(v, N) cycles of length L = N / c,
    so a window of d steps is floor(d / L) whole cycles plus a cyclic
    window of d mod L steps, read off an int64 prefix sum. That is O(N)
    work, for any d.
    """
    N = len(W)
    c = math.gcd(v, N)
    L = N // c
    turns, s = divmod(d, L)
    # row r of the c x L table walks the cycle r, r + v, r + 2v, ...
    cycles = W[steps[:c, None] + (v * steps[:L]) % N]
    best = turns * cycles.sum(axis=1) if turns else 0
    if s:
        prefix = np.zeros((c, L + s), dtype=np.int64)
        cycles.cumsum(axis=1, out=prefix[:, 1 : L + 1])
        prefix[:, L + 1 :] = prefix[:, L, None] + prefix[:, 1:s]
        best = best + (prefix[:, s:] - prefix[:, :L]).min(axis=1)
    return int(best.min())


def _korobov_bounds(d: int, W: np.ndarray, shifts: list[int]) -> np.ndarray:
    """Upper bound on the score of every multiplier a = g^v, indexed by v.

    The score is a minimum over k, so its terms at k = 1.._BOUND_K bound
    it: sum_{j<d} W[(u + v j) mod N] for each u in ``shifts``, the
    discrete logs of those k (k = g^u mod n). Multipliers go in blocks of
    at most ``_BLOCK`` (j, v) exponents, read from the doubled table
    W + W so that u + (v j mod N) needs no reduction.
    That is _BOUND_K * d gathers per multiplier against O(N) work for an
    exact key, so the bound is formed only when _BOUND_K * d <= N;
    otherwise every bound is +inf (the int64 maximum) and the search
    scores every orbit.
    """
    N = len(W)
    bound = np.full(N, _INT64_MAX, dtype=np.int64)
    if _BOUND_K * d > N:
        return bound
    doubled = np.concatenate((W, W))
    j = np.arange(d, dtype=np.int64)[:, None]
    cols = max(1, _BLOCK // d)
    for start in range(0, N, cols):
        exps = j * np.arange(start, min(start + cols, N), dtype=np.int64) % N
        out = bound[start : start + exps.shape[1]]
        for u in shifts:
            np.minimum(out, doubled[u : u + N].take(exps).sum(axis=0), out=out)
    return bound


def korobov_search(d: int, n: int, norm: str = "l1") -> SearchResult:
    """Exhaustive Korobov multiplier search under a toroidal norm.

    Maximizes the minimum toroidal distance over the multipliers 1..n-1;
    ties break to the smallest multiplier. Scores are compared as exact
    integers (scaled by n for l1, by n^2 for l2), so ties are exact.

    a, n - a, a^-1 and n - a^-1 give equivalent rank-1 rules with one
    score (Sloan & Joe, Lattice Methods for Multiple Integration, 1994):
    with a = g^v, the orbit {v, v + N/2, -v, N/2 - v} mod N = n - 1. Only
    each orbit's smallest multiplier is ranked, about N/4 in all; the
    winner is the smallest of its own orbit, so it is not missed.

    Each exact score costs O(n) via discrete logs: see ``_korobov_key``.
    Most orbits never need one (early abort, as in L'Ecuyer & Munger
    2016): the score is a minimum over k, so its terms at k = 1..64 bound
    it from above (``_korobov_bounds``), and an orbit's bound is the
    least of its members' bounds. Orbits are scored in descending bound
    order, smallest multiplier first among equal bounds, and the scan stops
    at the first orbit that cannot win: a bound below the best exact score,
    or equal to it with a larger multiplier (ties go to the smaller one).
    When 64 d exceeds n - 1 the bound is skipped and every orbit is
    scored, so the search is O(n^2) at worst.

    Every int64 intermediate (index products, prefix sums) is below
    (n-1) * max(n-1, w), w the largest weight: (n-1)//2 for l1, its
    square for l2. When that bound exceeds 2**63 - 1 -- l2 from
    n = 3329023, l1 from n = 3037000501 -- ``SizeLimitError`` is raised
    before any table is built. So it is when the tables could need more
    than physical memory: 66 bytes per residue, or 48 plus 48 MiB of
    block scratch while the bound is formed, whichever is more.

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
    d, n, p = _korobov_args(d, n, norm)
    _korobov_guard(d, n)
    half = (n - 1) // 2
    powers, W, steps = _exponent_tables(n, _weight_table(n, p))
    bound = _korobov_bounds(d, W, np.flatnonzero(powers <= _BOUND_K).tolist())
    # fold v with v + N/2 (a, n - a), then u with -u mod N/2 (a, 1/a): entry
    # u < q then holds the least bound and smallest multiplier of u's orbit
    q = half // 2 + 1
    for table in (bound, powers):
        np.minimum(table[:half], table[half:], out=table[:half])
        np.minimum(table[1:q], table[half - 1 : half - q : -1], out=table[1:q])
    order = np.lexsort((powers[:q], -bound[:q]))  # descending bound, then smallest a
    best_key, best_alpha = -1, 0
    for u in order:
        alpha = int(powers[u])
        if bound[u] < best_key or (bound[u] == best_key and alpha > best_alpha):
            break
        key = _korobov_key(int(u), d, W, steps)
        if key > best_key or (key == best_key and alpha < best_alpha):
            best_key, best_alpha = key, alpha
    score = best_key / n if p == 1 else float(np.sqrt(best_key)) / n
    z = tuple(pow(best_alpha, j, n) for j in range(d))
    return SearchResult(GeneratingVector(z, n, "korobov"), score, best_alpha)


def _korobov_guard(d: int, n: int) -> None:
    """Raise ``SizeLimitError`` when the search's tables mod n exceed physical memory."""
    # while the bound is formed the search holds four int64 tables of n
    # entries (powers, W, steps, the bound), the doubled W and at most three
    # int64 blocks of scratch; while a key is scored, the four tables, the
    # order of about n/4 entries and at most four n-entry int64 arrays
    _require_memory(max(48 * n + 24 * _BLOCK, 66 * n), f"korobov search for d={d}, n={n}")


def _korobov_args(d: int, n: int, norm: str) -> tuple[int, int, int]:
    """d, n and the norm's exponent p, checked as ``korobov_search`` takes them.

    Runs every check that refuses before any table is built, except the
    memory guard: the norm, d >= 1, n prime, n >= 2d + 1 and the int64
    bound on the search's intermediates.
    """
    p = _norm_exponent(norm)
    d, n = _nondegenerate(d, n)
    half = (n - 1) // 2
    max_w = half if p == 1 else half * half
    if (n - 1) * max(n - 1, max_w) > _INT64_MAX:
        raise SizeLimitError(f"korobov_search overflows int64 for n={n}, {norm} norm")
    return d, n, p


def find_admissible_n(d: int, count: int, start: int = 2) -> list[int]:
    """First ``count`` primes n >= start with 2d | n - 1 (and n >= 2d+1).

    Raises ``SizeLimitError`` first if 50 bytes per modulus exceed physical memory.

    Examples
    --------
    >>> find_admissible_n(50, 3)
    [101, 401, 601]
    """
    d = _at_least(d, 1, "d")
    count = _at_least(count, 1, "count")
    step = 2 * d
    first = max(operator.index(start), step + 1)
    t = -(-(first - 1) // step)  # ceil((first-1)/step)
    candidate = step * t + 1
    _require_memory(50 * count, f"admissible list of {count} moduli for d={d}")
    out: list[int] = []
    while len(out) < count:
        if is_prime(candidate):
            out.append(candidate)
        candidate += step
    return out
