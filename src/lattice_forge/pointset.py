"""Point sets: lattice points, random shifts, MC baselines, and their stream.

Lattice points are x_i = (i * z mod n) / n. ``generate`` stores the exact
residues i * z_j mod n, as int32 when n < 2**31 and as int64 otherwise;
``points`` divides them by n on its first read and drops them. A residue
converts to float64 exactly, so every coordinate is the correctly rounded
value of the exact rational i*z_j mod n / n.

``generate`` fills the n x d residue matrix in row blocks of R rows (about
``_BLOCK`` elements, so a block's passes stay in cache). The first
block's residues r * z mod n (r < R) are computed once with ``%``; each
later block is the one before plus the row R * z mod n, with no integer
division: a sum of two residues lies in [0, 2n), so one branch-free
subtraction of n where needed reduces it exactly. The shift fold
``_add_mod1`` works in the same row blocks.

The benchmark drivers do not materialize their point sets: ``_replicate``
streams each set through the integrand in cache-sized row blocks and
returns each run's mean of the per-point values. It divides a block of a
lattice's residues by n into one reused tile and folds each run's shift
from there into another (or draws the MC sample straight into it). Blocks
hold a multiple of 64 rows, and a final block of one row joins the block
before it, so every per-point value equals what the same formula gives on
the whole matrix, bit for bit (on the OpenBLAS kernels ``_replicate``
names). A method's runs go in chunks of at most d runs, so their values
take no more memory than one n x d set.

Randomness contract: every stochastic operation takes an explicit seed
and draws from ``numpy.random.default_rng(seed)`` (PCG64), so runs are
reproducible bit-for-bit on any platform with the same numpy.

``save_csv`` / ``load_csv`` are the package's CSV format for float
matrices: point sets, frame matrices, data.
"""

from __future__ import annotations

import operator
from typing import IO, Callable

import numpy as np

from .exceptions import DomainError, SizeLimitError, _at_least, _require_memory
from .lattice import GeneratingVector, korobov_search, subgroup_generating_vector
from .metrics import _INT64_MAX

__all__ = [
    "LatticePointSet",
    "generate",
    "random_shift",
    "mc_points",
    "save_csv",
    "load_csv",
]

# Elements in one row block of ``generate`` and ``_add_mod1``. A block's
# few integer/float64 scratch arrays then fit in a core's L2 cache; of
# 2**14 .. 2**17, 2**15 was fastest on the sweep benchmark's sizes
# (n 1e3 .. 1.5e5, d 16 .. 64).
_BLOCK = 1 << 15


class LatticePointSet:
    """An (n, d) float64 array ``points`` with every entry in [0, 1).

    ``LatticePointSet(points)`` wraps a float set. A lattice from
    ``generate`` holds its exact residues i * z_j mod n instead and builds
    ``points`` = residues / n on the first read, once, then drops the
    residues; later reads return the same array. That read raises
    ``SizeLimitError`` before allocating when its 8*n*d bytes and the
    residues exceed physical memory.
    """

    def __init__(self, points: np.ndarray) -> None:
        self._points = points
        self._residues: "np.ndarray | None" = None

    @classmethod
    def _from_residues(cls, residues: np.ndarray) -> "LatticePointSet":
        ps = cls(None)
        ps._residues = residues
        return ps

    @property
    def points(self) -> np.ndarray:
        if self._points is None:
            n, d = self._residues.shape
            _require_memory(8 * n * d + self._residues.nbytes, f"points for d={d}, n={n}")
            self._points = np.divide(self._residues, float(n))
            self._residues = None
        return self._points

    @property
    def n(self) -> int:
        return (self._points if self._residues is None else self._residues).shape[0]

    @property
    def d(self) -> int:
        return (self._points if self._residues is None else self._residues).shape[1]


def generate(z: GeneratingVector) -> LatticePointSet:
    """The rank-1 lattice of ``z`` as its n x d matrix of residues i * z_j mod n.

    Rows are filled block by block with no integer division past the
    first block (see ``_lattice_rows``), as int32 when n < 2**31 and int64
    otherwise. ``points`` divides each residue by float(n) on its first
    read, so every entry is the correctly rounded (i * z_j mod n) / n, and
    then drops the residues. Raises ``SizeLimitError`` before allocating when
    i * z_j could exceed 2**63 - 1, i.e. when (n-1)**2 does, or when the
    residues exceed physical memory.

    Examples
    --------
    >>> generate(GeneratingVector(z=(1, 2), n=5)).points[1]
    array([0.2, 0.4])
    """
    n, d = z.n, z.d
    if (n - 1) ** 2 > _INT64_MAX:
        raise SizeLimitError(f"i * z overflows int64 for n={n}; need (n-1)**2 < 2**63")
    # int32 cannot overflow below 2**31: residues lie in [0, n), and
    # _lattice_rows' sums of a residue and a step in [-n, 0) in [-n, n)
    size = 4 if n < 2**31 else 8
    _require_memory(size * n * d, f"points for d={d}, n={n}")
    residues = _lattice_rows(z.as_array(), n, 0, np.empty((n, d), f"i{size}"))
    return LatticePointSet._from_residues(residues)


def _lattice_rows(z: np.ndarray, n: int, lo: int, out: np.ndarray) -> np.ndarray:
    """Write the residues of rows lo .. lo + len(out) - 1 (< n) of the lattice with int64 vector z into ``out``.

    ``out`` is int32 (n < 2**31) or int64. Blocks hold R = _BLOCK // d
    rows. The first block, (lo + r) * z mod n for r < R, is the only ``%``
    on the matrix; its products are int64 and stay at most (n-1)**2. Each
    later block is the one before plus R * z mod n in every row, reduced
    without division: with t = block + (R * z mod n - n) in [-n, n - 1),
    the arithmetic shift of t by its sign bit (31 or 63) is all ones
    exactly where t < 0, so t + ((t >> 31) & n) adds n back to those
    entries and to no others.
    """
    m, d = out.shape
    rows = max(1, min(m, _BLOCK // d))
    first = np.arange(lo, lo + rows, dtype=np.int64)[:, None] * z
    out[:rows] = np.remainder(first, n, out=first)
    step = np.empty((rows, d), out.dtype)
    step[:] = rows * z % n - n
    fix = np.empty_like(step)
    sign = 8 * out.itemsize - 1
    for s in range(rows, m, rows):
        h = min(rows, m - s)
        block = out[s:s + h]
        np.add(out[s - rows:s - rows + h], step[:h], out=block)
        np.right_shift(block, sign, out=fix[:h])
        np.bitwise_and(fix[:h], n, out=fix[:h])
        np.add(block, fix[:h], out=block)
    return out


def _add_mod1(points: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """``(points + delta) % 1.0`` bit for bit for entries in [0, 1), as a new array.

    ``delta`` holds one value per column (last axis). Works in row blocks
    of about ``_BLOCK`` elements with one block-sized tile of ``delta`` and
    one reused scratch tile (see ``_fold``).
    """
    out = np.empty(points.shape)
    p2, o2 = np.atleast_2d(points, out)
    rows = max(1, min(len(o2), _BLOCK // max(1, o2.shape[1])))
    tile = np.empty((rows, o2.shape[1]))
    tile[:] = delta
    whole = np.empty(tile.shape)
    for s in range(0, len(o2), rows):
        block = o2[s:s + rows]
        _fold(p2[s:s + rows], tile[:len(block)], block, whole)
    return out


def _fold(points: np.ndarray, delta: np.ndarray, out: np.ndarray, whole: np.ndarray) -> np.ndarray:
    """Write ``(points + delta) % 1.0`` for a block of points in [0, 1) into ``out``.

    ``out`` and the float64 scratch ``whole`` have at least as many rows as
    ``points``. Add, take the sums' whole parts (0.0 or 1.0, as sums lie in
    [0, 2)) and subtract them: x - 0 and x - 1 on [1, 2) are exact, so each
    result equals the float ``%``. Every step is a float64 loop; a bool
    mask in the subtraction would cost a cast per element.
    """
    h = len(points)
    np.add(points, delta, out=out[:h])
    np.floor(out[:h], out=whole[:h])
    return np.subtract(out[:h], whole[:h], out=out[:h])


def random_shift(ps: LatticePointSet, seed: int) -> LatticePointSet:
    """Translate a point set modulo 1 by a seeded uniform random shift.

    The shift is ``default_rng(seed).random(d)``; the same seed always
    reproduces the same shifted set. Toroidal distances are invariant
    under the shift, so the separation structure of a lattice survives
    it. The result is a new array; ``ps`` is not modified. Raises
    ``DomainError`` if a point lies outside [0, 1).
    """
    if ps.points.size and (ps.points.min() < 0.0 or ps.points.max() >= 1.0):
        raise DomainError("points must lie in [0, 1)")
    delta = np.random.default_rng(seed).random(ps.d)
    return LatticePointSet(_add_mod1(ps.points, delta))


def mc_points(n: int, d: int, seed: int) -> LatticePointSet:
    """n i.i.d. uniform points in [0, 1)^d from a seeded generator.

    Raises ``SizeLimitError`` before allocating when the 8*n*d-byte
    result exceeds physical memory.
    """
    n, d = _mc_shape(n, d)
    _require_memory(8 * n * d, f"points for d={d}, n={n}")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    return LatticePointSet(pts)


def _mc_shape(n: int, d: int) -> tuple[int, int]:
    """n and d as ints; ``DomainError`` unless both are >= 1."""
    n = operator.index(n)
    d = operator.index(d)
    if n < 1 or d < 1:
        raise DomainError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    return n, d


def save_csv(matrix: np.ndarray, path_or_file: "str | IO[str]") -> None:
    """Write a float matrix as CSV, one row per line, no header.

    Uses %.17g formatting so a round trip through ``load_csv`` reproduces
    every float64 entry exactly.
    """
    np.savetxt(path_or_file, np.asarray(matrix), fmt="%.17g", delimiter=",")


def load_csv(path_or_file: "str | IO[str]") -> np.ndarray:
    """Read a headerless CSV matrix, such as one written by ``save_csv``."""
    return np.loadtxt(path_or_file, delimiter=",", ndmin=2)


# The stream's seed-matrix column of each method: fixed, so that a method's
# runs do not depend on which other methods run.
_SEED_COLUMNS = ("subgroup", "korobov", "mc")


def _seed_matrix(
    methods: "tuple[str, ...] | list[str]",
    columns: tuple[str, ...],
    runs: int,
    seed_source: "int | np.random.SeedSequence",
) -> tuple[tuple[str, ...], int, dict[str, list[int]]]:
    """Check the methods and ``runs``; return them with each method's run seeds by name.

    ``columns`` lists the methods the caller accepts. Run r of method
    ``columns[c]`` draws its shift ("subgroup", "korobov" lattices) or
    sample ("mc") from entry (r, c) of a matrix generated from
    ``seed_source``, so a method's runs do not depend on the other methods.
    """
    methods = tuple(methods)
    unknown = [m for m in methods if m not in columns]
    if unknown:
        raise DomainError(f"unknown methods {unknown}; choose from {columns}")
    if not methods:
        raise DomainError("need at least one method")
    runs = _at_least(runs, 1, "runs")
    matrix = np.random.default_rng(seed_source).integers(
        0, 2**63 - 1, size=(runs, len(columns)), dtype=np.int64
    )
    return methods, runs, {m: [int(s) for s in matrix[:, columns.index(m)]] for m in methods}


def _replicate(
    d: int,
    n: int,
    methods: "tuple[str, ...] | list[str]",
    values: Callable[[np.ndarray], np.ndarray],
    *,
    runs: int,
    seed_source: "int | np.random.SeedSequence",
    shifted: bool = True,
) -> dict[str, list[float]]:
    """Each method's run means: ``values`` applied to every run's point set, streamed in row blocks.

    Run r of a method sees the set ``random_shift(base, s)`` of its lattice
    ("subgroup", "korobov"; the base itself when not ``shifted``) or
    ``mc_points(n, d, s)`` ("mc"), with s from ``_seed_matrix`` over
    ``_SEED_COLUMNS``. ``values`` maps an (m, d) block of a set to its (m,)
    float64 values; run r's mean ``means[method][r]`` is ``float(row.mean())``
    of its (n,) row of values, the same pairwise sum as on one array.
    ``values`` is called method by method, then chunk by chunk, then block
    by block, then run by run inside a chunk; an unshifted lattice block is
    passed once for its whole chunk.

    No point set is written whole. Each lattice's residues are built once
    by ``generate``; its ``points`` are never read. A method's runs go in
    chunks of at most d runs, whose (chunk, n) values fit in the n x d
    floats of one point set, so no request needs more memory than one
    materialized set per method did. Within a chunk, block by block, a
    lattice's residue rows are divided by n into one reused base tile, the
    same floats as ``points``. Run by run, the base tile is folded with the
    run's shift into a second reused tile (``_fold``, as in ``_add_mod1``),
    or one generator per MC run draws the block into it (PCG64 fills in
    order, so the blocks concatenate to ``mc_points``' draws), and
    ``values(tile)`` gives the block's values; unshifted runs all get
    ``values`` of the base tile at once. Runs are the inner loop, so each
    residue block leaves memory once per chunk.

    Blocks hold R = max(64, (``_BLOCK`` // d) rounded down to a multiple
    of 64) rows, and a last block of one row joins the block before it, so
    the tiles hold R + 1 rows. The reason is bit identity: a BLAS
    matrix-vector product works on groups of rows, so blocks of a multiple
    of 64 rows, plus the matrix's own tail, give each row the same value
    as the product over the whole matrix; a product of one row takes a dot
    product path instead and may differ in the last bit. Of OpenBLAS
    0.3.31's kernels, Haswell, SkylakeX and Zen give every row this bit
    identity; Sandybridge, Nehalem and Prescott give a few lattice rows of
    a whole-matrix product a different last bit, a platform difference,
    not a fault of the fold.
    ``values`` must compute each row from that row alone; it never sees a
    one-row block unless n = 1.

    Raises ``SizeLimitError`` before allocating when the lattices'
    residues, held through the stream, plus a chunk's values or the tiles
    (the fold tile, and the base tile when a lattice is streamed) exceed
    physical memory. Each ``generate`` call also checks its own residues
    first, so a call that streams both subgroup and korobov still runs two
    ``generate`` guards one at a time: the second does not count the
    first's residues, and only this guard counts both.
    """
    methods, runs, seeds = _seed_matrix(methods, _SEED_COLUMNS, runs, seed_source)
    residues = {}
    if "subgroup" in methods:
        residues["subgroup"] = generate(subgroup_generating_vector(d, n))._residues
    if "korobov" in methods:
        residues["korobov"] = generate(korobov_search(d, n, "l1").vector)._residues
    if "mc" in methods:
        n, d = _mc_shape(n, d)
    block = max(64, (_BLOCK // d) & ~63)
    tile_rows = min(n, block + 1)
    chunk = min(runs, d)
    tiles = 2 if residues else 1
    held = sum(r.nbytes for r in residues.values())
    _require_memory(held + 8 * max(chunk * n, tiles * tile_rows * d),
                    f"point values for d={d}, n={n}, runs={runs}")
    buf = np.empty((chunk, n))
    tile = np.empty((tile_rows, d))
    whole = np.empty((tile_rows, d))
    base = np.empty((tile_rows, d)) if residues else None
    scale = float(n)

    means = {method: [] for method in methods}
    for method in methods:
        for first in range(0, runs, chunk):
            vals = buf[:min(chunk, runs - first)]
            rngs = [np.random.default_rng(s) for s in seeds[method][first:first + len(vals)]]
            deltas = [rng.random(d) for rng in rngs] if method != "mc" and shifted else []
            lo = 0
            while lo < n:
                hi = n if n - lo <= block + 1 else lo + block
                rows = slice(lo, hi)
                if method == "mc":
                    for r, rng in enumerate(rngs):
                        vals[r, rows] = values(rng.random((hi - lo, d), out=tile[:hi - lo]))
                else:
                    points = np.divide(residues[method][rows], scale, out=base[:hi - lo])
                    if shifted:
                        for r, delta in enumerate(deltas):
                            vals[r, rows] = values(_fold(points, delta, tile, whole))
                    else:  # every run sees the same block
                        vals[:, rows] = values(points)
                lo = hi
            means[method] += [float(row.mean()) for row in vals]
    return means
