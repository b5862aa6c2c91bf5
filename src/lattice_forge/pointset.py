"""Point sets: lattice points, random shifts, MC baselines, and their stream.

Lattice points are x_i = (i * z mod n) / n. A rank-1 lattice is defined
by its vector z and n alone, so ``generate`` holds only z, and no n x d
array of residues exists anywhere. ``_residue_blocks`` writes the exact
residues i * z_j mod n block by block into one reused tile (int32 when
n < 2**31, int64 otherwise), with no integer division past the first
block. A residue converts to float64 exactly, so dividing it by n gives
the correctly rounded value of the exact rational i*z_j mod n / n.

Two users divide the writer's blocks by n: the first read of ``points``
writes them into the n x d float array, and the benchmark drivers'
stream, ``_replicate``, into one reused base tile. ``_replicate`` feeds
each run's set through the integrand in those row blocks and returns
each run's mean of the per-point values: a shifted run folds its shift
from the base tile into another tile, and an MC run draws its sample
straight into it. Every method streams its runs in chunks of
min(runs, max(d, ``_CHUNK_VALUES`` // n)) runs; an unshifted lattice is
one set, passed once. Blocks hold a multiple of 64 rows, and a final
block of one row joins the block before it, so every per-point value
equals what the same formula gives on the whole matrix, bit for bit (on
the OpenBLAS kernels ``_replicate`` names).

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
from .lattice import GeneratingVector, _korobov_args, _korobov_search, subgroup_generating_vector
from .metrics import _INT64_MAX

__all__ = [
    "LatticePointSet",
    "generate",
    "random_shift",
    "mc_points",
    "save_csv",
    "load_csv",
]

# Elements in one row block of the residue writer and of ``_add_mod1``. A
# block's few integer/float64 scratch arrays then fit in a core's L2
# cache; of 2**14 .. 2**17, 2**15 was fastest on the sweep benchmark's
# sizes (n 1e3 .. 1.5e5, d 16 .. 64).
_BLOCK = 1 << 15

# Values (8 MiB) that one chunk of runs may hold when d runs hold fewer:
# every method streams its runs in chunks of min(runs, max(d,
# _CHUNK_VALUES // n)), and an unshifted lattice is one set, passed once.
# Each chunk of shifted runs writes the lattice's residues again: in chunks
# of d runs, d = 1, n = 65537 and 40 runs took about 40% longer than with
# the residues written once.
_CHUNK_VALUES = 1 << 20


class LatticePointSet:
    """An (n, d) float64 array ``points`` with every entry in [0, 1).

    ``LatticePointSet(points)`` wraps a float set. A lattice from
    ``generate``, ``LatticePointSet(None, vector)``, holds only its
    generating vector and builds ``points`` =
    (i * z mod n) / n on the first read, once, through one residue tile;
    later reads return the same array. That read raises ``SizeLimitError``
    before allocating when its 8*n*d bytes and the tile exceed physical
    memory.
    """

    def __init__(self, points: "np.ndarray | None", vector: "GeneratingVector | None" = None) -> None:
        self._points = points
        self._vector = vector

    @property
    def points(self) -> np.ndarray:
        if self._points is None:
            n, d = self.n, self.d
            _require_memory(8 * n * d + _tile_bytes(n, d), f"points for d={d}, n={n}")
            points = np.empty((n, d))
            for span, residues in _residue_blocks(self._vector.as_array(), n, _block_rows(d)):
                np.divide(residues, float(n), out=points[span])
            self._points = points
        return self._points

    @property
    def n(self) -> int:
        return self._vector.n if self._points is None else self._points.shape[0]

    @property
    def d(self) -> int:
        return self._vector.d if self._points is None else self._points.shape[1]


def generate(z: GeneratingVector) -> LatticePointSet:
    """The rank-1 lattice of ``z``, holding only ``z`` until ``points`` is read.

    ``points`` is built on its first read from the exact residues
    i * z_j mod n, divided by float(n) one block at a time (see
    ``_residue_blocks``), so every entry is the correctly rounded
    (i * z_j mod n) / n. Raises ``SizeLimitError`` when i * z_j could
    exceed 2**63 - 1, i.e. when (n-1)**2 does; the first read of
    ``points`` checks its memory.

    Examples
    --------
    >>> generate(GeneratingVector(z=(1, 2), n=5)).points[1]
    array([0.2, 0.4])
    """
    if (z.n - 1) ** 2 > _INT64_MAX:
        raise SizeLimitError(f"i * z overflows int64 for n={z.n}; need (n-1)**2 < 2**63")
    return LatticePointSet(None, z)


def _block_rows(d: int) -> int:
    """R, the rows of a stream block: about ``_BLOCK`` elements, a multiple of 64, at least 64."""
    return max(64, (_BLOCK // d) & ~63)


def _spans(n: int, rows: int, lo: int = 0):
    """Slices of consecutive row blocks lo .. n - 1: ``rows`` rows each,
    except the last, which has at most rows + 1 (a one-row tail joins the
    block before it)."""
    while lo < n:
        hi = n if n - lo <= rows + 1 else lo + rows
        yield slice(lo, hi)
        lo = hi


def _tile_bytes(n: int, d: int) -> int:
    """At most the bytes ``_residue_blocks`` allocates for d components in
    blocks of R = ``_block_rows(d)`` rows: its tile, step and scratch of at
    most min(n, R + 1) rows, int32 (n < 2**31) or int64, and the first
    block's int64 products."""
    return (3 * (4 if n < 2**31 else 8) + 8) * min(n, _block_rows(d) + 1) * d


def _residue_blocks(z: np.ndarray, n: int, rows: int, lo: int = 0):
    """Yield (span, residues): rows lo .. n - 1 of the lattice of int64 vector z, block by block.

    Blocks follow ``_spans(n, rows, lo)``, and each is a view of one reused
    tile, int32 when n < 2**31 and int64 otherwise; a block is valid until
    the next is yielded. The first block, (lo + r) * z mod n, is computed
    with ``%`` on int64 products, which stay at most (n-1)**2. Each later
    block is the one before plus R * z mod n in every row (R = ``rows``),
    reduced without division: with t = block + (R * z mod n - n) in
    [-n, n - 1), the arithmetic shift of t by its sign bit (31 or 63) is
    all ones exactly where t < 0, so t + ((t >> 31) & n) adds n back to
    those entries and to no others. The final row of a last block of
    R + 1 rows comes from ``%``. int32 cannot overflow below 2**31: every
    entry and sum lies in [-n, n).
    """
    tile = np.empty((min(n - lo, rows + 1), len(z)), np.int32 if n < 2**31 else np.int64)
    if n - lo > rows + 1:
        # a second block follows: its step in whole rows (adding one
        # broadcast row is 2-4x slower) and a scratch tile
        step = np.empty((rows, len(z)), tile.dtype)
        step[:] = rows * z % n - n
        fix = np.empty_like(step)
    sign = 8 * tile.itemsize - 1
    for k, span in enumerate(_spans(n, rows, lo)):
        h = span.stop - span.start
        if k == 0:
            first = np.arange(span.start, span.stop, dtype=np.int64)[:, None] * z
            tile[:h] = np.remainder(first, n, out=first)
            del first
        else:
            m = min(h, rows)
            block, scratch = tile[:m], fix[:m]
            np.add(block, step[:m], out=block)
            np.right_shift(block, sign, out=scratch)
            np.bitwise_and(scratch, n, out=scratch)
            np.add(block, scratch, out=block)
            if h > rows:
                tile[rows] = (span.start + rows) * z % n
        yield span, tile[:h]


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

    Every method streams its runs in chunks of min(runs, max(d,
    ``_CHUNK_VALUES`` // n)) runs, whose values fit in one n x d set or in
    ``_CHUNK_VALUES``. An unshifted lattice is one set, passed once: it
    streams as one chunk of one run, and every run gets its mean.
    ``values`` is called method by method, then chunk by chunk, then block
    by block, then run by run inside a chunk.

    No point set is written whole, and no lattice's residues either. Each
    lattice comes from ``generate``, which holds only its vector; its
    ``points`` are never read. Block by block, ``_residue_blocks`` writes a
    lattice's residues into its tile, and they are divided by n into one
    reused base tile, the same floats as ``points``. Run by run, the base
    tile is folded with the run's shift into a second reused tile
    (``_fold``, as in ``_add_mod1``), or one generator per MC run draws the
    block into it (PCG64 fills in order, so the blocks concatenate to
    ``mc_points``' draws). Runs are the inner loop, so each residue block
    is written once per chunk.

    Blocks hold R = ``_block_rows(d)`` rows, a multiple of 64, and a last
    block of one row joins the block before it, so the tiles hold R + 1
    rows. The reason is bit identity: a BLAS matrix-vector product works
    on groups of rows, so blocks of a multiple of 64 rows, plus the
    matrix's own tail, give each row the same value as the product over
    the whole matrix; a product of one row takes a dot product path
    instead and may differ in the last bit. Of OpenBLAS
    0.3.31's kernels, Haswell, SkylakeX and Zen give every row this bit
    identity; Sandybridge, Nehalem and Prescott give a few lattice rows of
    a whole-matrix product a different last bit, a platform difference,
    not a fault of the fold.
    ``values`` must compute each row from that row alone; it never sees a
    one-row block unless n = 1.

    Raises ``SizeLimitError`` before allocating, and before any Korobov
    search, when a chunk's values (one set's, when every method is an
    unshifted lattice) plus every tile exceed physical memory: the fold or
    MC tile, and when a lattice is streamed its base tile, the
    fold's scratch (shifted runs) and the residue writer's tiles. The
    methods' argument checks (``AdmissibilityError`` among them) run first.
    """
    methods, runs, seeds = _seed_matrix(methods, _SEED_COLUMNS, runs, seed_source)
    lattices = {}
    if "subgroup" in methods:
        lattices["subgroup"] = generate(subgroup_generating_vector(d, n))
    if "korobov" in methods:
        d, n, p = _korobov_args(d, n, "l1")  # the search itself runs past the guard
    if "mc" in methods:
        n, d = _mc_shape(n, d)
    block = _block_rows(d)
    tile_rows = min(n, block + 1)
    lattice = any(m != "mc" for m in methods)
    chunk = min(runs, max(d, _CHUNK_VALUES // n))
    folds = "mc" in methods or (lattice and shifted)  # a tile that runs write
    tiles = folds + lattice + (lattice and shifted)  # that tile, the base tile, the fold's scratch
    rows = chunk if folds else 1  # unshifted lattices alone stream one set each
    need = 8 * rows * n + 8 * tiles * tile_rows * d + (_tile_bytes(n, d) if lattice else 0)
    _require_memory(need, f"point values for d={d}, n={n}, runs={runs}")
    if "korobov" in methods:
        lattices["korobov"] = generate(_korobov_search(d, n, p).vector)
    buf = np.empty((rows, n))
    tile = np.empty((tile_rows, d)) if folds else None
    whole = np.empty((tile_rows, d)) if lattice and shifted else None
    base = np.empty((tile_rows, d)) if lattice else None
    scale = float(n)

    means = {method: [] for method in methods}
    for method in methods:
        sets = runs if shifted or method == "mc" else 1  # an unshifted lattice is one set
        for first in range(0, sets, chunk):
            vals = buf[:min(chunk, sets - first)]
            rngs = [np.random.default_rng(s) for s in seeds[method][first:first + len(vals)]]
            if method == "mc":
                for rows in _spans(n, block):
                    h = rows.stop - rows.start
                    for r, rng in enumerate(rngs):
                        vals[r, rows] = values(rng.random((h, d), out=tile[:h]))
            else:
                deltas = [rng.random(d) if shifted else None for rng in rngs]
                for rows, residues in _residue_blocks(lattices[method]._vector.as_array(), n, block):
                    points = np.divide(residues, scale, out=base[:len(residues)])
                    for r, delta in enumerate(deltas):
                        vals[r, rows] = values(_fold(points, delta, tile, whole) if shifted else points)
            means[method] += [float(row.mean()) for row in vals]
        means[method] *= runs // sets
    return means
