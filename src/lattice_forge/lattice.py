"""Generating-vector construction for rank-1 lattices.

A rank-1 lattice with n points in [0, 1)^d is defined by an integer
generating vector z through x_i = (i * z mod n) / n, i = 0..n-1. Two
constructions are provided:

* ``subgroup_generating_vector`` -- closed form. For prime n with
  2d | n - 1 it places the components on the index-2d multiplicative
  subgroup of the nonzero residues: z = [g^0, g^e, ..., g^((d-1)e)] mod n
  with e = (n-1)/(2d) and g a primitive root. Pairwise toroidal distances
  are then constant on cosets of the order-2d subgroup {+-z_j}, so the
  lattice has at most (n-1)/(2d) distinct distance values and every
  multiplicity is a multiple of 2d (distinct cosets can tie; generically
  they do not). Construction costs O(d log n) modular exponentiations --
  no search.
* ``korobov_search`` -- the classical exhaustive baseline. Scans every
  multiplier a in 1..n-1, scores the vector [1, a, a^2, ..., a^(d-1)]
  mod n by its minimum toroidal distance, and keeps the best (ties break
  to the smallest multiplier). O(n^2 d) work, organized in integer block
  arithmetic so scores are exact.
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import AdmissibilityError, DomainError
from .metrics import ToroidalNorm, norm_exponent
from .numtheory import PrimeModulus, is_prime, primitive_root

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


def subgroup_generating_vector(d: int, n: int | PrimeModulus) -> GeneratingVector:
    """Closed-form generating vector on a multiplicative subgroup.

    Parameters
    ----------
    d : int
        Dimension, >= 1.
    n : int or PrimeModulus
        Point count; must be prime with 2d | n - 1.

    Returns
    -------
    GeneratingVector
        z = [g^0, g^e, ..., g^((d-1)e)] mod n, e = (n-1)/(2d), g the
        smallest primitive root of n.

    Raises
    ------
    AdmissibilityError
        If 2d does not divide n - 1.
    DomainError
        If d < 1 or n is not prime.

    Examples
    --------
    >>> subgroup_generating_vector(2, 5).z
    (1, 2)
    >>> subgroup_generating_vector(3, 13).z
    (1, 4, 3)
    """
    d = operator.index(d)
    n_int = operator.index(n)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if (n_int - 1) % (2 * d) != 0:
        raise AdmissibilityError(f"2d does not divide n-1 (d={d}, n={n_int})")
    if not is_prime(n_int):
        raise DomainError(f"n must be prime, got {n_int}")
    g = primitive_root(n_int)
    e = (n_int - 1) // (2 * d)
    z = tuple(pow(g, k * e, n_int) for k in range(d))
    return GeneratingVector(z=z, n=n_int, method="subgroup")


def korobov_vector(alpha: int, d: int, n: int | PrimeModulus) -> GeneratingVector:
    """Korobov vector [1, alpha, alpha^2, ..., alpha^(d-1)] mod n."""
    alpha = operator.index(alpha)
    d = operator.index(d)
    n_int = operator.index(n)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if not is_prime(n_int):
        raise DomainError(f"n must be prime, got {n_int}")
    if not 1 <= alpha <= n_int - 1:
        raise DomainError(f"alpha must lie in 1..n-1, got {alpha}")
    z = tuple(pow(alpha, k, n_int) for k in range(d))
    return GeneratingVector(z=z, n=n_int, method="korobov")


def _weight_table(n: int, p: int) -> np.ndarray:
    """w[r] = min(r, n-r) (l1) or its square (l2), r = 0..n-1."""
    r = np.arange(n, dtype=np.int64)
    w = np.minimum(r, n - r)
    return w * w if p == 2 else w


def _search_block(alphas: np.ndarray, d: int, n: int, w: np.ndarray) -> tuple[int, int]:
    """Best (integer score, multiplier) over one block of candidates.

    For each candidate a, the score is min over k = 1..n-1 of
    sum_{j=0}^{d-1} w[(k * a^j) mod n]; ties break to the smallest a
    (alphas is ascending and argmax returns the first maximum).
    """
    a_count = alphas.shape[0]
    k = np.arange(1, n, dtype=np.int64)
    idx = np.broadcast_to(k, (a_count, n - 1)).copy()
    acc = np.broadcast_to(w[1:], (a_count, n - 1)).copy()  # j = 0 term: w[k]
    gathered = np.empty_like(idx)
    col = alphas[:, None]
    for _ in range(d - 1):
        np.multiply(idx, col, out=idx)
        np.mod(idx, n, out=idx)
        np.take(w, idx, out=gathered)
        np.add(acc, gathered, out=acc)
    scores = acc.min(axis=1)
    pos = int(np.argmax(scores))
    return int(scores[pos]), int(alphas[pos])


def korobov_search(
    d: int,
    n: int | PrimeModulus,
    norm: ToroidalNorm | int | str = "l1",
    *,
    threads: int = 1,
    block_size: int = 256,
) -> SearchResult:
    """Exhaustive Korobov multiplier search under a toroidal norm.

    Evaluates all n-1 multipliers, maximizing the minimum toroidal
    distance of the lattice; ties break to the smallest multiplier.
    Scores are compared as exact integers (scaled by n for l1, by n^2
    for l2), so the tie-breaking is exact.

    Parameters
    ----------
    d, n : int
        Dimension >= 1 and prime point count with n >= 2d + 1.
    norm : ToroidalNorm | int | str
        Norm to optimize (default l1).
    threads : int
        Worker threads over candidate blocks. The reduction (max score,
        then min multiplier) is associative and commutative, so the
        result does not depend on the thread count.
    block_size : int
        Candidates per vectorized block.

    Examples
    --------
    >>> res = korobov_search(2, 5, "l1")
    >>> (res.multiplier, res.score)
    (2, 0.6)
    """
    d = operator.index(d)
    n_int = operator.index(n)
    p = norm_exponent(norm)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if not is_prime(n_int):
        raise DomainError(f"n must be prime, got {n_int}")
    if n_int < 2 * d + 1:
        raise AdmissibilityError(f"need n >= 2d + 1, got d={d}, n={n_int}")
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    if block_size < 1:
        raise DomainError(f"block_size must be >= 1, got {block_size}")

    w = _weight_table(n_int, p)
    blocks = [
        np.arange(lo, min(lo + block_size, n_int), dtype=np.int64)
        for lo in range(1, n_int, block_size)
    ]
    if threads == 1 or len(blocks) == 1:
        results = [_search_block(b, d, n_int, w) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda b: _search_block(b, d, n_int, w), blocks))

    best_key, best_alpha = max(results, key=lambda t: (t[0], -t[1]))
    score = best_key / n_int if p == 1 else float(np.sqrt(best_key)) / n_int
    return SearchResult(
        vector=korobov_vector(best_alpha, d, n_int),
        score=score,
        multiplier=best_alpha,
        candidates_evaluated=n_int - 1,
        norm="l1" if p == 1 else "l2",
    )


def find_admissible_n(d: int, count: int, start: int = 2) -> list[PrimeModulus]:
    """First ``count`` primes n >= start with 2d | n - 1 (and n >= 2d+1).

    Examples
    --------
    >>> [int(m) for m in find_admissible_n(50, 3)]
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
    out: list[PrimeModulus] = []
    while len(out) < count:
        if is_prime(candidate):
            out.append(PrimeModulus(candidate))
        candidate += step
    return out
