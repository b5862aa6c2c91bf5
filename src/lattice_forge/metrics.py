"""Toroidal (wrap-around) distances and rank-1 lattice distance diagnostics.

The l_p distance on the unit torus is

    dist_p(x, y) = ( sum_j min(|x_j - y_j|, 1 - |x_j - y_j|)**p )**(1/p).

For a rank-1 lattice every pairwise difference x_i - x_j is itself a
lattice point, so the n(n-1)/2 pairwise distances collapse onto the n-1
norms ||x_k||, k = 1..n-1, with

    ||x_k||_p**p = sum_j m_{k,j}**p / n**p,
    m_{k,j} = min(k z_j mod n, n - (k z_j mod n)).

``lattice_min_distance`` exploits this reformulation and keeps the census
on exact integer keys (sum of m for l1, sum of m**2 for l2), so equal
distances are grouped exactly -- no floating-point aliasing. Since k and
n-k share a key it scans k <= (n-1)/2 only, in O(nd); for a subgroup
vector the key is constant on each coset of {+-z_j}, so it forms the
(n-1)/(2d) coset keys instead, in O(n). The census is two int64 arrays,
the distinct keys and their counts, from one ``np.unique`` over the keys
of every block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import AdmissibilityError, DomainError, SizeLimitError, _at_least, _require_memory
from .numtheory import _prime_modulus, is_prime, primitive_root

if TYPE_CHECKING:  # import for annotations only; no runtime dependency
    from .lattice import GeneratingVector
    from .pointset import LatticePointSet

__all__ = [
    "DistanceReport",
    "DistanceBounds",
    "OptimalDistances",
    "toroidal_distance",
    "lattice_min_distance",
    "min_distance_bounds",
    "optimal_distances",
    "brute_force_min_distance",
]

# Brute-force pairwise enumeration refuses point sets larger than this.
BRUTE_FORCE_CAP = 10_000

_INT64_MAX = 2**63 - 1

# Elements (rows times components) per block of the census scans, and of
# the Korobov search's bound.
_BLOCK = 1 << 21


def _norm_exponent(norm: str) -> int:
    """The exponent p of the toroidal norm "l1" (1) or "l2" (2)."""
    if norm not in ("l1", "l2"):
        raise DomainError(f"norm must be 'l1' or 'l2', got {norm!r}")
    return 1 if norm == "l1" else 2


@dataclass(frozen=True, eq=False)
class DistanceReport:
    """Minimum-distance diagnostics for a rank-1 lattice.

    The census is stored once, as two int64 arrays. Every other view is
    derived from them as Python ints and floats, the distance of a key
    being ``key / n`` (l1) or ``math.sqrt(key) / n`` (l2).

    Attributes
    ----------
    keys : numpy.ndarray
        Distinct exact integer keys, ascending: the sum of the wrapped
        residues (l1) or of their squares (l2). ``min_key`` is ``keys[0]``.
    counts : numpy.ndarray
        How many k in 1..n-1 have each key (``multiplicities()``).
    argmin_k : int
        Smallest k in 1..n-1 whose lattice point attains the minimum.
    norm : str
        "l1" or "l2".
    n : int
        Number of lattice points.
    """

    keys: np.ndarray
    counts: np.ndarray
    argmin_k: int
    norm: str
    n: int

    def _distance(self, key: int) -> float:
        return key / self.n if self.norm == "l1" else math.sqrt(key) / self.n

    @property
    def min_key(self) -> int:
        return int(self.keys[0])

    @property
    def min_distance(self) -> float:
        return self._distance(self.min_key)

    @property
    def distinct_count(self) -> int:
        return len(self.keys)

    @property
    def census(self) -> tuple[tuple[float, int], ...]:
        return tuple(zip(map(self._distance, self.keys.tolist()), self.counts.tolist()))

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(self.counts.tolist())


@dataclass(frozen=True)
class DistanceBounds:
    """Two-sided bounds on the minimum toroidal distance of a rank-1
    lattice with a non-degenerate generating vector (n prime, n >= 2d+1)."""

    l1_lower: float
    l1_upper: float
    l2_lower: float
    l2_upper: float


@dataclass(frozen=True)
class OptimalDistances:
    """Distance values of the equidistant lattice at n = 2d + 1.

    When n = 2d + 1 is prime, the subgroup construction makes every
    pairwise toroidal distance equal, and the common value attains the
    upper bound of ``min_distance_bounds`` in both norms.
    """

    l1: float
    l2: float


def toroidal_distance(x: np.ndarray, y: np.ndarray, norm: str) -> float:
    """l_p distance between two points on the unit torus.

    Parameters
    ----------
    x, y : array_like, shape (d,)
        Points with coordinates in [0, 1].
    norm : str
        "l1" or "l2".

    Returns
    -------
    float
        ``( sum_j min(|x_j-y_j|, 1-|x_j-y_j|)**p )**(1/p)``.
    """
    p = _norm_exponent(norm)
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise DomainError(
            f"expected two 1-d points of equal length, got shapes {xa.shape} and {ya.shape}"
        )
    for name, arr in (("x", xa), ("y", ya)):
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise DomainError(f"{name} has a coordinate outside [0, 1]")
    delta = np.abs(xa - ya)
    wrap = np.minimum(delta, 1.0 - delta)
    if p == 1:
        return float(wrap.sum())
    return float(math.sqrt(float((wrap * wrap).sum())))


def lattice_min_distance(z: "GeneratingVector", norm: str) -> DistanceReport:
    """Minimum toroidal distance and distance census of a rank-1 lattice.

    Works on the n-1 lattice points x_k instead of all point pairs, with
    two exact integer paths. The census accumulates on exact integer
    keys, so distances that are equal as rationals are counted together
    exactly.

    * Subgroup vectors -- {+-z_j} is the order-2d subgroup H of the
      nonzero residues, detected from z itself (2d | n-1, the 2d residues
      +-z_j distinct, z_j**(2d) = 1), so the order and signs of z do not
      matter. The key of k is constant on the coset kH, so only the
      (n-1)/(2d) coset keys are formed, from (n-1)/2 residues in
      fixed-size blocks: O(n) work.
    * Every other vector -- scan k = 1..(n-1)/2 with doubled counts, since
      k and n-k have the same key: O(nd) work.

    Raises ``SizeLimitError`` before scanning when an int64 product k * z_j
    or an l2 key could exceed 2**63 - 1: (n-1)**2 or d*((n-1)//2)**2 too
    big; then when the census could need more than physical memory: per
    component before the subgroup test sorts the residues +-z_j, then per row --
    (n-1)/(2d) cosets or (n-1)/2 scanned k, which bound its distinct keys.

    Parameters
    ----------
    z : GeneratingVector
        Generating vector (defines points x_i = (i * z mod n) / n).
    norm : str
        "l1" or "l2".
    """
    p = _norm_exponent(norm)
    n = z.n
    _census_limits(z.d, n, p)
    # _is_subgroup's int64 z and n - z, then both sorted, its powers taken in
    # place in the sorted array: 32 bytes per component (tracemalloc)
    _require_memory(32 * z.d, f"census for d={z.d}, n={n}")
    subgroup = _is_subgroup(z.z, n)
    rows = (n - 1) // (2 * z.d) if subgroup else max(1, (n - 1) // 2)  # n = 2: k = 1
    # per row, ``_tally`` holds at most 65 bytes: eight int64 entries (block
    # keys, their concatenation, np.unique's sorted copy, distinct keys, run
    # starts and their padded copy, counts, weighted counts) and np.unique's
    # bool mask; each block, four int64 arrays of scratch
    _require_memory(72 * rows + 32 * _BLOCK, f"census for d={z.d}, n={n}")
    blocks = (_coset_blocks if subgroup else _scan_blocks)(z.as_array(), n, p, rows)
    return DistanceReport(*_tally(blocks, (n - 1) // rows), norm=norm, n=n)


def _census_limits(d: int, n: int, p: int) -> None:
    """Raise ``SizeLimitError`` when a census of d components mod n under
    the l_p norm could overflow int64: a product k * z_j ((n-1)**2), or
    for l2 a key (d*((n-1)//2)**2), above 2**63 - 1. Plain arithmetic, so
    callers can run it before a vector is built."""
    if (n - 1) ** 2 > _INT64_MAX:
        raise SizeLimitError(f"k * z overflows int64 for n={n}; need (n-1)**2 < 2**63")
    if p == 2 and d * ((n - 1) // 2) ** 2 > _INT64_MAX:
        raise SizeLimitError(
            f"l2 keys overflow int64 for d={d}, n={n}; need d*((n-1)//2)**2 < 2**63"
        )


def _is_subgroup(z: tuple[int, ...], n: int) -> bool:
    """Whether {+-z_j} is the order-2d subgroup of the nonzero residues mod n.

    That subgroup is {x : x**(2d) = 1}, which has exactly 2d elements when
    2d | n-1, so 2d residues +-z_j that solve it, distinct in one sorted
    int64 array (n < 2**63), are all of it. Once they are distinct, the
    sorted array's lower half holds one of c, n - c for each component,
    and (n - c)**(2d) = c**(2d) mod n; its powers are taken by int64
    square-and-multiply over the whole half, written into the upper half.
    Every product is of two residues, at most (n-1)**2, which
    ``lattice_min_distance`` refuses above 2**63 - 1 before calling this.
    """
    two_d = 2 * len(z)
    if (n - 1) % two_d:
        return False
    r = np.sort(np.concatenate((z, np.subtract(n, z)), dtype=np.int64))
    if not (r[1:] != r[:-1]).all():
        return False
    base, power = r[:len(z)], r[len(z):]
    power[:] = base
    for bit in bin(two_d)[3:]:  # the exponent's bits after its leading 1
        np.multiply(power, power, out=power)
        np.remainder(power, n, out=power)
        if bit == "1":
            np.multiply(power, base, out=power)
            np.remainder(power, n, out=power)
    return bool((power == 1).all())


def _wrapped_keys(residues: np.ndarray, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row keys sum_j m**p of an int64 residue block, and m = min(r, n-r)."""
    m = np.minimum(residues, n - residues)
    return (m.sum(axis=1) if p == 1 else (m * m).sum(axis=1)), m


def _scan_blocks(z_arr: np.ndarray, n: int, p: int, last: int):
    """(keys, k) for k = 1..last, in blocks of at most ``_BLOCK`` elements."""
    rows = max(1, _BLOCK // len(z_arr))
    for start in range(1, last + 1, rows):
        k = np.arange(start, min(start + rows, last + 1), dtype=np.int64)
        yield _wrapped_keys(k[:, None] * z_arr[None, :] % n, n, p)[0], k


def _coset_blocks(z_arr: np.ndarray, n: int, p: int, e: int):
    """(keys, smallest element) of the cosets g^t H, t < e = (n-1)/(2d), in blocks.

    With g the smallest primitive root, g^t H = {+-g^t z_j}, so row t holds
    g^t z_j mod n: the block's powers g^t times the row z. Neither a key
    nor a smallest element depends on the order or the signs of z.
    """
    g = primitive_root(n)
    rows = min(e, max(1, _BLOCK // len(z_arr)))
    g_t = _powers(g, rows, n)
    for start in range(0, e, rows):
        row0 = z_arr * pow(g, start, n) % n
        keys, m = _wrapped_keys(g_t[: e - start, None] * row0[None, :] % n, n, p)
        yield keys, m.min(axis=1)


def _powers(base: int, count: int, n: int) -> np.ndarray:
    """base**i mod n for i < count, as int64, by repeated doubling."""
    out = np.ones(count, dtype=np.int64)
    filled, step = 1, base
    while filled < count:
        more = min(filled, count - filled)
        out[filled : filled + more] = out[:more] * step % n
        filled += more
        step = step * step % n
    return out


def _tally(blocks, weight: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Census keys and counts (each row counted ``weight`` times), and argmin.

    ``blocks`` yields (keys, first): the key of each row and the smallest
    k that the row stands for. One ``np.unique`` counts the keys of all
    blocks; each block contributes only its smallest key and the smallest
    k attaining it to the argmin.
    """
    keys, firsts = [], []
    for block, first in blocks:
        low = block.min()
        keys.append(block)
        firsts.append((int(low), int(first[block == low].min())))
    uniq, counts = np.unique(np.concatenate(keys), return_counts=True)
    return uniq, weight * counts, min(firsts)[1]


def min_distance_bounds(d: int, n: int) -> DistanceBounds:
    """Two-sided minimum-distance bounds for non-degenerate vectors.

    For prime n >= 2d + 1 and any generating vector whose components are
    distinct up to sign mod n (z_i != +-z_j for i != j, so the 2d residues
    {+-z_1, ..., +-z_d} are pairwise distinct), the minimum pairwise
    toroidal distance T of the lattice satisfies

        d(d+1)/(2n)                 <= T_l1 <= (n+1)d/(4n)
        sqrt(6d(d+1)(2d+1))/(6n)    <= T_l2 <= sqrt((n+1)d/(12n))

    The upper bounds hold for every generating vector with nonzero
    components.  The lower bounds genuinely need sign-distinctness, not
    just distinct components: z_i = n - z_j makes two coordinates wrap to
    the same magnitude, and the smallest lattice point can then dip below
    d(d+1)/(2n) (e.g. d=11, n=29, z containing the pairs {1,28}, {4,25},
    {7,22}: min l1 distance 55/29 < 66/29).  Subgroup vectors always
    satisfy the stronger condition because {+-z_j} forms a full order-2d
    subgroup.
    """
    d, n = _nondegenerate(d, n)
    return DistanceBounds(
        l1_lower=d * (d + 1) / (2 * n),
        l1_upper=(n + 1) * d / (4 * n),
        l2_lower=math.sqrt(6 * d * (d + 1) * (2 * d + 1)) / (6 * n),
        l2_upper=math.sqrt((n + 1) * d / (12 * n)),
    )


def _nondegenerate(d: int, n: int) -> tuple[int, int]:
    """d and n as ints, once d >= 1, n is prime and n >= 2d + 1."""
    d = _at_least(d, 1, "d")
    n = _prime_modulus(n)
    if n < 2 * d + 1:
        raise AdmissibilityError(f"need n >= 2d + 1, got d={d}, n={n}")
    return d, n


def optimal_distances(d: int) -> OptimalDistances:
    """Distance values of the equidistant lattice at n = 2d + 1.

    Requires n = 2d + 1 prime; then every pairwise distance of the
    subgroup lattice equals (n+1)d/(4n) in l1 and sqrt((n+1)d/(12n)) in
    l2 -- the upper bounds of ``min_distance_bounds``, attained exactly.
    """
    d = _at_least(d, 1, "d")
    n = 2 * d + 1
    if not is_prime(n):
        raise AdmissibilityError(f"2d + 1 = {n} is not prime for d={d}")
    bounds = min_distance_bounds(d, n)
    return OptimalDistances(l1=bounds.l1_upper, l2=bounds.l2_upper)


def brute_force_min_distance(points: "LatticePointSet | np.ndarray", norm: str) -> float:
    """Minimum pairwise toroidal distance by O(n^2 d) enumeration.

    Reference oracle for ``lattice_min_distance``; works on any point set
    (shifted, Monte Carlo, ...). Refuses more than ``BRUTE_FORCE_CAP``
    points.
    """
    p = _norm_exponent(norm)
    pts = points.points if hasattr(points, "points") else np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DomainError(f"expected an (n, d) point array, got shape {pts.shape}")
    n = pts.shape[0]
    if n < 2:
        raise DomainError(f"need at least two points, got {n}")
    if n > BRUTE_FORCE_CAP:
        raise SizeLimitError(
            f"brute force is capped at {BRUTE_FORCE_CAP} points, got {n}"
        )

    d = pts.shape[1]
    block = max(16, int(math.isqrt((1 << 22) // max(1, d))))
    best = math.inf
    for i0 in range(0, n, block):
        a = pts[i0 : i0 + block]
        for j0 in range(i0, n, block):
            b = pts[j0 : j0 + block]
            delta = np.abs(a[:, None, :] - b[None, :, :])
            wrap = np.minimum(delta, 1.0 - delta)
            dist = wrap.sum(axis=-1) if p == 1 else (wrap * wrap).sum(axis=-1)
            if i0 == j0:
                # mask the diagonal and the duplicated lower triangle
                il, jl = np.tril_indices(dist.shape[0], k=0, m=dist.shape[1])
                dist[il, jl] = math.inf
            best = min(best, float(dist.min()))
    return best if p == 1 else math.sqrt(best)
