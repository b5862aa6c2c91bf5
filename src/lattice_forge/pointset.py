"""Materialized point sets: lattice points, random shifts, MC baselines.

Lattice points are x_i = (i * z mod n) / n. Because the numerators are
exact int64 products reduced mod n, the stored float coordinates are the
correctly rounded values of the exact rationals i*z_j mod n / n.

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

from .exceptions import DomainError, SizeLimitError
from .lattice import GeneratingVector, korobov_search, subgroup_generating_vector
from .metrics import _INT64_MAX

__all__ = [
    "LatticePointSet",
    "generate",
    "random_shift",
    "shift_by",
    "mc_points",
    "save_csv",
    "load_csv",
]


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

    The int64 products i * z_j are reduced mod n in place and divided
    straight into the float result. Raises ``SizeLimitError`` before
    allocating when i * z_j could exceed 2**63 - 1, i.e. when (n-1)**2 does.

    Examples
    --------
    >>> generate(GeneratingVector(z=(1, 2), n=5)).points[1]
    array([0.2, 0.4])
    """
    if (z.n - 1) ** 2 > _INT64_MAX:
        raise SizeLimitError(f"i * z overflows int64 for n={z.n}; need (n-1)**2 < 2**63")
    z_arr = z.as_array()
    i = np.arange(z.n, dtype=np.int64)[:, None]
    num = i * z_arr[None, :]
    np.remainder(num, z.n, out=num)
    return LatticePointSet(np.divide(num, float(z.n)))


def shift_by(ps: LatticePointSet, delta: np.ndarray) -> LatticePointSet:
    """Translate a point set by ``delta`` modulo 1 (coordinate-wise).

    Toroidal distances are invariant under this map, so the separation
    structure of a lattice survives shifting. ``delta = 0`` is the
    identity. The result is a new array; ``ps`` is not modified.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (ps.d,):
        raise DomainError(f"shift must have shape ({ps.d},), got {delta.shape}")
    if delta.size and (delta.min() < 0.0 or delta.max() >= 1.0):
        raise DomainError("shift coordinates must lie in [0, 1)")
    if ps.points.size and (ps.points.min() < 0.0 or ps.points.max() >= 1.0):
        raise DomainError("points must lie in [0, 1)")
    return LatticePointSet(_add_mod1(ps.points, delta))


def _add_mod1(points: np.ndarray, delta: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """``(points + delta) % 1.0`` bit for bit for entries in [0, 1): x - 1 is exact on [1, 2)."""
    out = np.add(points, delta, out=out)
    return np.subtract(out, out >= 1.0, out=out)


def random_shift(ps: LatticePointSet, seed: int) -> LatticePointSet:
    """Apply a uniform random shift drawn from a seeded generator.

    The shift is ``default_rng(seed).random(d)``; the same seed always
    reproduces the same shifted set.
    """
    rng = np.random.default_rng(seed)
    delta = rng.random(ps.d)
    return shift_by(ps, delta)


def mc_points(n: int, d: int, seed: int) -> LatticePointSet:
    """n i.i.d. uniform points in [0, 1)^d from a seeded generator."""
    n = operator.index(n)
    d = operator.index(d)
    if n < 1 or d < 1:
        raise DomainError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
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
    if operator.index(runs) < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
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
