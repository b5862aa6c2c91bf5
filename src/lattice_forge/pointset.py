"""Materialized point sets: lattice points, random shifts, MC baselines.

Lattice points are x_i = (i * z mod n) / n. The numerators are exact
int64 residues, so the stored float coordinates are the correctly
rounded values of the exact rationals i*z_j mod n / n.

``generate`` fills the n x d matrix in row blocks of R rows (about
``_BLOCK`` elements, so a block's passes stay in cache). The first
block's residues r * z mod n (r < R) are computed once with ``%``; each
later block is the one before plus the row R * z mod n, with no integer
division: a sum of two residues lies in [0, 2n), so one branch-free
subtraction of n where needed reduces it exactly. The shift fold
``_add_mod1`` works in the same row blocks.

Randomness contract: every stochastic operation takes an explicit seed
and draws from ``numpy.random.default_rng(seed)`` (PCG64), so runs are
reproducible bit-for-bit on any platform with the same numpy.

``save_csv`` / ``load_csv`` are the package's CSV format for float
matrices: point sets, frame matrices, data.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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
# few int64/float64 scratch arrays then fit in a core's L2 cache; of
# 2**14 .. 2**17, 2**15 was fastest on the sweep benchmark's sizes
# (n 1e3 .. 1.5e5, d 16 .. 64).
_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class LatticePointSet:
    """An (n, d) float64 array ``points`` with every entry in [0, 1)."""

    points: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def generate(z: GeneratingVector) -> LatticePointSet:
    """Materialize the n x d point matrix of a rank-1 lattice.

    Rows are filled block by block from int64 residues, with no integer
    division past the first block (see ``_lattice_rows``), and each
    residue is divided by float(n), so every entry is the correctly
    rounded (i * z_j mod n) / n. Raises ``SizeLimitError`` before
    allocating when i * z_j could exceed 2**63 - 1, i.e. when (n-1)**2
    does, or when the 8*n*d-byte result exceeds physical memory.

    Examples
    --------
    >>> generate(GeneratingVector(z=(1, 2), n=5)).points[1]
    array([0.2, 0.4])
    """
    n, d = z.n, z.d
    if (n - 1) ** 2 > _INT64_MAX:
        raise SizeLimitError(f"i * z overflows int64 for n={n}; need (n-1)**2 < 2**63")
    _require_memory(8 * n * d, f"points for d={d}, n={n}")
    return LatticePointSet(_lattice_rows(z.as_array(), n, 0, np.empty((n, d))))


def _lattice_rows(z: np.ndarray, n: int, lo: int, out: np.ndarray) -> np.ndarray:
    """Write rows lo .. lo + len(out) - 1 (< n) of the lattice with int64 vector z into ``out``.

    Blocks hold R = _BLOCK // d rows. The first block, (lo + r) * z mod n
    for r < R, is the only ``%`` on the matrix; its products stay at most
    (n-1)**2. Each later block is the one before plus R * z mod n in every
    row, reduced without division: with t = block + (R * z mod n - n) in
    [-n, n - 1), the arithmetic shift t >> 63 is all ones exactly where
    t < 0, so t + ((t >> 63) & n) adds n back to those entries and to no
    others.
    """
    m, d = out.shape
    rows = max(1, min(m, _BLOCK // d))
    block = np.arange(lo, lo + rows, dtype=np.int64)[:, None] * z
    np.remainder(block, n, out=block)
    fix = np.empty_like(block)
    step = np.empty_like(block)
    step[:] = rows * z % n - n
    for s in range(0, m, rows):
        if s:
            np.add(block, step, out=block)
            np.right_shift(block, 63, out=fix)
            np.bitwise_and(fix, n, out=fix)
            np.add(block, fix, out=block)
        h = min(rows, m - s)
        np.divide(block[:h], float(n), out=out[s:s + h])
    return out


def _add_mod1(points: np.ndarray, delta: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """``(points + delta) % 1.0`` bit for bit for entries in [0, 1), into ``out``.

    ``delta`` holds one value per column (last axis). Works in row blocks
    of about ``_BLOCK`` elements: add a block-sized tile of ``delta``,
    mark sums >= 1.0 in one reused bool mask, subtract the mask. Sums lie
    in [0, 2) and x - 1 is exact on [1, 2), so each result equals the
    float ``%``.
    """
    if out is None:
        out = np.empty(points.shape)
    p2, o2 = np.atleast_2d(points, out)
    rows = max(1, min(len(o2), _BLOCK // max(1, o2.shape[1])))
    tile = np.empty((rows, o2.shape[1]))
    tile[:] = delta
    mask = np.empty(tile.shape, dtype=bool)
    for s in range(0, len(o2), rows):
        block = o2[s:s + rows]
        h = len(block)
        np.add(p2[s:s + rows], tile[:h], out=block)
        np.greater_equal(block, 1.0, out=mask[:h])
        np.subtract(block, mask[:h], out=block)
    return out


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
    n = operator.index(n)
    d = operator.index(d)
    if n < 1 or d < 1:
        raise DomainError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    _require_memory(8 * n * d, f"points for d={d}, n={n}")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    return LatticePointSet(pts)


def save_csv(matrix: np.ndarray, path_or_file: "str | IO[str]") -> None:
    """Write a float matrix as CSV, one row per line, no header.

    Uses %.17g formatting so a round trip through ``load_csv`` reproduces
    every float64 entry exactly.
    """
    np.savetxt(path_or_file, np.asarray(matrix), fmt="%.17g", delimiter=",")


def load_csv(path_or_file: "str | IO[str]") -> np.ndarray:
    """Read a headerless CSV matrix, such as one written by ``save_csv``."""
    return np.loadtxt(path_or_file, delimiter=",", ndmin=2)


def _replicate(
    d: int,
    n: int,
    methods: "tuple[str, ...] | list[str]",
    score: Callable[[LatticePointSet], dict],
    *,
    columns: tuple[str, ...],
    runs: int,
    seed: int,
    seed_source: "int | np.random.SeedSequence",
    shifted: bool = True,
) -> list[dict]:
    """Seeded replicate runner shared by the benchmark drivers.

    ``columns`` lists the methods the caller accepts. Run r of method
    ``columns[c]`` draws its shift ("subgroup", "korobov" lattices) or
    sample ("mc") from entry (r, c) of a seed matrix generated from
    ``seed_source``, so a method's rows do not depend on the other
    methods. Returns rows of method, d, n, seed, run, **score(points).
    Private contract: a method writes all its runs into one n x d buffer,
    so ``score`` must be done with a point set when it returns.
    """
    methods = tuple(methods)
    unknown = [m for m in methods if m not in columns]
    if unknown:
        raise DomainError(f"unknown methods {unknown}; choose from {columns}")
    if not methods:
        raise DomainError("need at least one method")
    runs = _at_least(runs, 1, "runs")
    seeds = np.random.default_rng(seed_source).integers(
        0, 2**63 - 1, size=(runs, len(columns)), dtype=np.int64
    )
    bases = {}
    if "subgroup" in methods:
        bases["subgroup"] = generate(subgroup_generating_vector(d, n))
    if "korobov" in methods:
        bases["korobov"] = generate(korobov_search(d, n, "l1").vector)

    bufs: dict[str, np.ndarray] = {}
    rows: list[dict] = []
    for r in range(runs):
        for method in methods:
            s = int(seeds[r, columns.index(method)])
            buf = bufs.get(method)
            if method == "mc":  # the first run allocates via mc_points, which checks n and d
                buf = (mc_points(n, d, s).points if buf is None
                       else np.random.default_rng(s).random((n, d), out=buf))
            elif shifted:  # random_shift's values, written into the buffer
                buf = _add_mod1(bases[method].points, np.random.default_rng(s).random(d), buf)
            else:
                buf = bases[method].points
            bufs[method] = buf
            rows.append({"method": method, "d": d, "n": n, "seed": seed, "run": r,
                         **score(LatticePointSet(buf))})
    return rows
