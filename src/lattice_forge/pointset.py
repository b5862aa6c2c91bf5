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
    """An (n, d) array of points in [0, 1)^d plus provenance.

    Attributes
    ----------
    points : numpy.ndarray
        Shape (n, d), float64, all entries in [0, 1).
    source : GeneratingVector or str
        The generating vector, or "monte_carlo" for i.i.d. uniform draws.
    shift : numpy.ndarray or None
        The most recently applied shift vector, if any.
    seed : int or None
        Seed of the generator that produced ``shift`` or the MC draws.
    """

    points: np.ndarray
    source: GeneratingVector | str
    shift: np.ndarray | None = None
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def generate(z: GeneratingVector) -> LatticePointSet:
    """Materialize the n x d point matrix of a rank-1 lattice.

    Raises ``SizeLimitError`` before allocating when the int64 product
    i * z_j could exceed 2**63 - 1, i.e. when (n-1)**2 does.

    Examples
    --------
    >>> generate(GeneratingVector(z=(1, 2), n=5)).points[1]
    array([0.2, 0.4])
    """
    if (z.n - 1) ** 2 > _INT64_MAX:
        raise SizeLimitError(f"i * z overflows int64 for n={z.n}; need (n-1)**2 < 2**63")
    z_arr = z.as_array()
    i = np.arange(z.n, dtype=np.int64)[:, None]
    pts = ((i * z_arr[None, :]) % z.n) / float(z.n)
    return LatticePointSet(points=pts, source=z, shift=None, seed=None)


def shift_by(
    ps: LatticePointSet, delta: np.ndarray, *, seed: int | None = None
) -> LatticePointSet:
    """Translate a point set by ``delta`` modulo 1 (coordinate-wise).

    Toroidal distances are invariant under this map, so the separation
    structure of a lattice survives shifting. ``delta = 0`` is the
    identity.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (ps.d,):
        raise DomainError(f"shift must have shape ({ps.d},), got {delta.shape}")
    if delta.size and (delta.min() < 0.0 or delta.max() >= 1.0):
        raise DomainError("shift coordinates must lie in [0, 1)")
    pts = (ps.points + delta) % 1.0
    # float wrap can land exactly on 1.0 (e.g. 0.3 + 0.7); fold it back
    pts[pts >= 1.0] = 0.0
    return LatticePointSet(
        points=pts, source=ps.source, shift=delta,
        seed=seed if seed is not None else ps.seed,
    )


def random_shift(ps: LatticePointSet, seed: int) -> LatticePointSet:
    """Apply a uniform random shift drawn from a seeded generator.

    The shift is ``default_rng(seed).random(d)``; the same seed always
    reproduces the same shifted set.
    """
    rng = np.random.default_rng(seed)
    delta = rng.random(ps.d)
    return shift_by(ps, delta, seed=int(seed))


def mc_points(n: int, d: int, seed: int) -> LatticePointSet:
    """n i.i.d. uniform points in [0, 1)^d from a seeded generator."""
    n = operator.index(n)
    d = operator.index(d)
    if n < 1 or d < 1:
        raise DomainError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    return LatticePointSet(points=pts, source="monte_carlo", shift=None, seed=int(seed))


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

    rows: list[dict] = []
    for r in range(runs):
        for method in methods:
            s = int(seeds[r, columns.index(method)])
            if method == "mc":
                ps = mc_points(n, d, s)
            else:
                ps = random_shift(bases[method], s) if shifted else bases[method]
            rows.append({"method": method, "d": d, "n": n, "seed": seed, "run": r, **score(ps)})
    return rows
