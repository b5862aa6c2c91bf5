"""Kernel approximation by lattice-driven random features.

Shift-invariant (and arc-cosine) kernels admit a spectral representation

    K(x, y) = E_w [ phi_w(x) phi_w(y)' ],    w = Phi^{-1}(eps),

where eps ranges over the unit cube and Phi^{-1} is the component-wise
standard normal quantile. Replacing the expectation by an equal-weight
average over a point set (lattice or MC) gives an explicit feature map
whose Gram matrix approximates K. Gaussian kernels use paired cos/sin
features; arc-cosine kernels of order 0/1 use step/relu features.

Frequencies come from the normal quantile (``scipy.special.ndtri``)
applied to the point set, so a randomly shifted lattice yields
structured (low-discrepancy) spectral samples, and plain MC points
recover classical random Fourier features.

Data matrices are read with ``pointset.load_csv``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, _require_memory
from .lattice import subgroup_generating_vector
from .pointset import LatticePointSet, _seed_matrix, generate, mc_points, random_shift

__all__ = [
    "KernelSpec",
    "GramErrors",
    "exact_gram",
    "feature_map",
    "gram_errors",
    "synthetic_data",
    "run_kernel_benchmark",
]

_FAMILIES = ("gaussian", "arccos0", "arccos1")

# Quantile clamp: points are kept strictly inside (0, 1) so the normal
# quantile stays finite even if a coordinate lands exactly on 0.
_EPS_CLAMP = 1e-10

# ``synthetic_data`` mixture: component count, spread of the component
# means, and spread of the points around their mean.
_COMPONENTS = 10
_MEAN_STD = 6.0
_POINT_STD = 1.0

# Per family: the bytes per (sample, point) pair that ``feature_map`` holds
# at its peak, next to K
_FEATURE_BYTES = {"gaussian": 40, "arccos0": 17, "arccos1": 24}


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth.

    ``sigma`` only affects the Gaussian family:
    K(x, y) = exp(-||x - y||^2 / (2 sigma^2)). For every family, 2 sigma^2
    must be a positive finite float: no overflow, no underflow to 0.
    """

    family: str = "gaussian"
    sigma: float = 15.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise DomainError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        sigma = float(self.sigma)
        if not 0.0 < 2.0 * sigma * sigma < math.inf:
            raise DomainError(f"2 sigma**2 must be a positive finite float, got sigma={sigma}")


@dataclass(frozen=True)
class GramErrors:
    """Relative Frobenius and max-entry error between two Gram matrices."""

    rel_frobenius: float
    rel_max: float


def _pair_angle_terms(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise DomainError("arc-cosine kernels require nonzero inputs")
    cos_t = float(np.clip(x @ y / (nx * ny), -1.0, 1.0))
    return nx, ny, float(np.arccos(cos_t))


def _exact_kernel(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> float:
    """Closed-form kernel value for one pair of points.

    The pairwise reference that ``exact_gram`` is tested against.

    gaussian : exp(-||x-y||^2 / (2 sigma^2))
    arccos0  : 1 - theta / pi
    arccos1  : (||x|| ||y|| / pi) (sin theta + (pi - theta) cos theta)

    with theta the angle between x and y.
    """
    xa = np.asarray(x, dtype=np.float64).ravel()
    ya = np.asarray(y, dtype=np.float64).ravel()
    if xa.shape != ya.shape:
        raise DomainError(f"shape mismatch: {xa.shape} vs {ya.shape}")
    if spec.family == "gaussian":
        diff = xa - ya
        return float(np.exp(-(diff @ diff) / (2.0 * spec.sigma**2)))
    nx, ny, theta = _pair_angle_terms(xa, ya)
    if spec.family == "arccos0":
        return 1.0 - theta / np.pi
    return nx * ny / np.pi * (np.sin(theta) + (np.pi - theta) * np.cos(theta))


def exact_gram(data: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Dense exact Gram matrix K[i, j] = K(data_i, data_j).

    Each family's formula is applied in place to G = X @ X.T, one float
    operation at a time in the formula's order, so at most three N x N
    arrays (two for the Gaussian and arccos0 families) are held at once.
    Raises ``SizeLimitError`` before allocating when they exceed physical
    memory.
    """
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise DomainError(f"data must be (N, d), got shape {X.shape}")
    N = X.shape[0]
    _require_memory((3 if spec.family == "arccos1" else 2) * 8 * N * N, f"exact Gram for N={N}")
    if spec.family == "gaussian":
        sq = (X * X).sum(axis=1)
        d2 = np.multiply(X @ X.T, 2.0)  # d2 = sq_i + sq_j - 2 x_i.x_j, clipped at 0
        np.maximum(np.subtract(sq[:, None] + sq[None, :], d2, out=d2), 0.0, out=d2)
        np.divide(np.negative(d2, out=d2), 2.0 * spec.sigma**2, out=d2)
        return np.exp(d2, out=d2)
    norms = np.linalg.norm(X, axis=1)
    if (norms == 0.0).any():
        raise DomainError("arc-cosine kernels require nonzero rows")
    theta = X @ X.T
    np.divide(theta, np.outer(norms, norms), out=theta)
    np.arccos(np.clip(theta, -1.0, 1.0, out=theta), out=theta)
    if spec.family == "arccos0":
        return np.subtract(1.0, np.divide(theta, np.pi, out=theta), out=theta)
    # (||x|| ||y|| / pi) (sin theta + (pi - theta) cos theta)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    np.multiply(np.subtract(np.pi, theta, out=theta), cos_t, out=theta)
    np.add(sin_t, theta, out=theta)
    K = np.divide(np.outer(norms, norms, out=sin_t), np.pi, out=sin_t)
    return np.multiply(K, theta, out=K)


def feature_map(
    data: np.ndarray, points: LatticePointSet, spec: KernelSpec
) -> np.ndarray:
    """Explicit features of ``data`` from spectral samples at ``points``.

    Each point eps_i of the set becomes a frequency w_i =
    Phi^{-1}(eps_i) (scaled by 1/sigma for the Gaussian family). The
    Gaussian embedding stacks cos / sin pairs scaled by 1/sqrt(n); the
    arc-cosine embeddings are sqrt(2/n) * step(data @ w) (order 0) and
    sqrt(2/n) * relu(data @ w) (order 1).

    Returns the float64 (N, F) feature matrix Psi with K ~ Psi @ Psi.T:
    F = 2n for the Gaussian family and F = n for the arc-cosine ones.

    Raises ``DomainError`` if a point row is exactly the origin (an
    unshifted lattice always contains it -- shift first) or if the data
    dimension does not match the point dimension, and ``SizeLimitError``
    before allocating when the N x n projection and the features exceed
    physical memory.
    """
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise DomainError(f"data must be (N, d), got shape {X.shape}")
    eps = points.points
    if eps.shape[1] != X.shape[1]:
        raise DomainError(
            f"dimension mismatch: data has d={X.shape[1]}, points have d={eps.shape[1]}"
        )
    N, n = X.shape[0], eps.shape[0]
    _require_memory(_FEATURE_BYTES[spec.family] * N * n, f"features for N={N}, n={n}")
    if (eps == 0.0).all(axis=1).any():
        raise DomainError(
            "point set contains the origin; apply random_shift before mapping"
        )
    # imported here, not with the package: scipy.special takes about as
    # long to import as the rest of lattice_forge, and only features use it
    from scipy.special import ndtri

    W = ndtri(np.clip(eps, _EPS_CLAMP, 1.0 - _EPS_CLAMP))
    if spec.family == "gaussian":
        proj = X @ (W / spec.sigma).T
        feats = np.concatenate([np.cos(proj), np.sin(proj)], axis=1) / np.sqrt(n)
    else:
        proj = X @ W.T
        if spec.family == "arccos0":
            feats = np.sqrt(2.0 / n) * (proj > 0.0)
        else:
            feats = np.sqrt(2.0 / n) * np.maximum(proj, 0.0)
    return feats


def gram_errors(exact: np.ndarray, approx: np.ndarray) -> GramErrors:
    """Relative Frobenius / max-entry errors of an approximate Gram.

    Raises ``SizeLimitError`` before allocating when the N x N difference
    exceeds physical memory.
    """
    A = np.asarray(exact, dtype=np.float64)
    B = np.asarray(approx, dtype=np.float64)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"expected two equal square matrices, got {A.shape} and {B.shape}")
    N = A.shape[0]
    _require_memory(8 * N * N, f"Gram difference for N={N}")
    denom_f = float(np.linalg.norm(A))
    denom_m = float(np.abs(A).max())
    if denom_f == 0.0:
        raise DomainError("reference Gram matrix is zero")
    diff = B - A
    rel_frobenius = float(np.linalg.norm(diff)) / denom_f
    return GramErrors(rel_frobenius, float(np.abs(diff, out=diff).max()) / denom_m)


def synthetic_data(n_samples: int, dim: int, seed: int) -> np.ndarray:
    """Seeded Gaussian-mixture sample matrix (n_samples, dim).

    Ten component means are N(0, 6^2) and points scatter around them
    with unit standard deviation, which gives pairwise distances on the
    scale the default Gaussian bandwidth (sigma = 15) resolves well.
    """
    n_samples = operator.index(n_samples)
    dim = operator.index(dim)
    if n_samples < 1 or dim < 1:
        raise DomainError(f"need n_samples >= 1 and dim >= 1, got {n_samples}, {dim}")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, _MEAN_STD, size=(_COMPONENTS, dim))
    labels = rng.integers(0, _COMPONENTS, size=n_samples)
    return means[labels] + rng.normal(0.0, _POINT_STD, size=(n_samples, dim))


def run_kernel_benchmark(
    data: np.ndarray,
    n: int,
    spec: KernelSpec,
    *,
    runs: int = 50,
    seed: int = 0,
    methods: "tuple[str, ...] | list[str]" = ("subgroup", "mc"),
) -> list[dict]:
    """Gram-approximation error of lattice vs. MC features, repeated.

    The exact Gram matrix is computed once; each run redraws the random
    shift (lattice) or the sample (MC) from seeds derived from ``seed``,
    one fixed column per method, and records relative Frobenius / max
    errors. Methods are "subgroup" and "mc"; ``runs`` must be >= 1. One
    row dict per (run, method). An exact Gram matrix that is not finite
    raises ``DomainError``, with no floating-point warning. Before the exact
    Gram matrix, ``SizeLimitError`` is raised when the arrays held at the
    benchmark's peak exceed physical memory.
    """
    X = np.asarray(data, dtype=np.float64)
    N, d = X.shape if X.ndim == 2 else (0, 0)
    # three N x N arrays (exact_gram's work, or a run's K, G and diff) or K
    # beside the features, whichever is more; the point sets add at most 32
    # bytes per coordinate: the lattice's points (8) and, while they are
    # built, one residue tile (at most 24), or later one run's shifted set,
    # its clip and the normal quantiles (8 each)
    per_sample = max(24 * N, 8 * N + _FEATURE_BYTES[spec.family] * n)
    _require_memory(N * per_sample + 32 * n * d, f"kernel benchmark for N={N}, n={n}")
    with np.errstate(all="ignore"):
        K = exact_gram(X, spec)  # also rejects data that is not (N, d)
    if not np.isfinite(K).all():
        raise DomainError("the exact Gram matrix is not finite; rescale the data")

    def score(ps: LatticePointSet) -> dict:
        # a run's arrays are freed on return, before the next run's features
        F = feature_map(X, ps, spec)
        G = F @ F.T
        del F  # free the features before gram_errors allocates its N x N difference
        errs = gram_errors(K, G)
        return {"rel_frobenius": errs.rel_frobenius, "rel_max": errs.rel_max}

    # its own two columns: the rows are pinned to this (runs, 2) seed matrix
    methods, runs, seeds = _seed_matrix(methods, ("subgroup", "mc"), runs, seed)
    if "subgroup" in methods:
        base = generate(subgroup_generating_vector(d, n))
    rows = []
    for r in range(runs):
        for method in methods:
            s = seeds[method][r]
            errs = score(mc_points(n, d, s) if method == "mc" else random_shift(base, s))
            rows.append({"method": method, "d": d, "n": n, "seed": seed, "run": r, **errs})
    return rows
