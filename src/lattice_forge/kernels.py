"""Kernel approximation by lattice-driven random features.

Shift-invariant (and arc-cosine) kernels admit a spectral representation

    K(x, y) = E_w [ phi_w(x) phi_w(y)' ],    w = Phi^{-1}(eps),

where eps ranges over the unit cube and Phi^{-1} is the component-wise
standard normal quantile. Replacing the expectation by an equal-weight
average over a point set (lattice or MC) gives an explicit feature map
whose Gram matrix approximates K. Gaussian kernels use paired cos/sin
features; arc-cosine kernels of order 0/1 use step/relu features.

Frequencies come from the normal quantile applied to the point set, so a
randomly shifted lattice yields structured (low-discrepancy) spectral
samples, and plain MC points recover classical random Fourier features.
The quantile is ``_ndtri``, a numpy port of Cephes ``ndtri`` (Moshier,
*Methods and Programs for Mathematical Functions*, 1989), the algorithm
``scipy.special.ndtri`` compiles, with the same bits on the clamped range.

Data matrices are read with ``pointset.load_csv``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, _require_memory
from .lattice import subgroup_generating_vector
from .pointset import LatticePointSet, _mc_shape, _seed_matrix, generate, mc_points, random_shift

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

# Cephes ``ndtri``'s constants: exp(-2), which splits the central part from
# the tails, sqrt(2 pi), and the rational functions' coefficients, highest
# power first. Each Q has the leading 1 that Cephes's ``p1evl`` implies.
_E2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242e0
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)

# ``synthetic_data`` mixture: component count, spread of the component
# means, and spread of the points around their mean.
_COMPONENTS = 10
_MEAN_STD = 6.0
_POINT_STD = 1.0

# Per family: the bytes per (sample, point) pair that ``feature_map`` holds
# at its peak, next to K: the float projection, plus the cos/sin features
# (16) or the step mask (1); the ReLU is taken in the projection itself
_FEATURE_BYTES = {"gaussian": 24, "arccos0": 9, "arccos1": 8}

# Bytes per point-set coordinate that the kernel benchmark holds at most:
# the lattice's points, a run's shifted set and its clip (8 each), and
# ``_ndtri``'s work on the clip. On a set of tail points that work peaks at
# its second log: the result (8), the central mask (1), the tail indices,
# their folded points and their roots (8 each), the upper mask (1), and the
# log's list of floats (8 + 32) and output (8), 82 bytes in all.
_POINT_BYTES = 106


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


def _data_matrix(data: np.ndarray) -> np.ndarray:
    """``data`` as float64; ``DomainError`` unless it is an (N, d) matrix."""
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise DomainError(f"data must be (N, d), got shape {X.shape}")
    return X


def exact_gram(data: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Dense exact Gram matrix K[i, j] = K(data_i, data_j).

    Each family's formula is applied in place to G = X @ X.T, one float
    operation at a time in the formula's order, so at most three N x N
    arrays (two for the Gaussian and arccos0 families) are held at once.
    Raises ``SizeLimitError`` before allocating when they exceed physical
    memory.
    """
    X = _data_matrix(data)
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


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule from ``coefs[0]``, in one buffer."""
    out = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        np.add(np.multiply(out, x, out=out), c, out=out)
    return out


def _log(a: np.ndarray) -> np.ndarray:
    # math.log is the C library's log; numpy's own SIMD log differs from it
    # in the last bit for some arguments (about 6e-4 of those in [2, 6.8])
    return np.fromiter(map(math.log, a.tolist()), np.float64, count=a.size)


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each entry of ``y0``, bit for bit Cephes ``ndtri``.

    A numpy port of the algorithm ``scipy.special.ndtri`` compiles, defined
    on ``feature_map``'s clamp range [1e-10, 1 - 1e-10]. The central part
    E2 < y <= 1 - E2 (E2 = exp(-2)) is a rational function of (y - 1/2)^2;
    a tail point is folded to y' = min(y, 1 - y) < E2 (1 - (1 - E2) rounds
    back to E2, so every folded point is a tail point) and is a rational
    function of 1 / sqrt(-2 log y'). Cephes's third branch, for y' <
    exp(-32) = 1.3e-14, lies past the clamp and is left out. Each branch
    is evaluated on its own entries only.
    """
    y = y0.ravel()
    x = np.empty_like(y)
    central = (y > _E2) & (y <= 1.0 - _E2)
    c = np.flatnonzero(central)
    ym = y[c] - 0.5
    y2 = ym * ym
    x[c] = (ym + ym * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    del c, ym, y2  # the central part's arrays go before the tail's are made
    t = np.flatnonzero(~central)
    u = y[t]
    upper = u > 0.5
    np.subtract(1.0, u, out=u, where=upper)
    r = np.sqrt(-2.0 * _log(u))
    x0 = r - _log(r) / r
    z = np.divide(1.0, r, out=r)
    x0 -= z * _polevl(z, _P1) / _polevl(z, _Q1)
    x[t] = np.where(upper, x0, -x0)
    return x.reshape(y0.shape)


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
    X = _data_matrix(data)
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
    W = _ndtri(np.clip(eps, _EPS_CLAMP, 1.0 - _EPS_CLAMP))
    if spec.family == "gaussian":
        proj = X @ (W / spec.sigma).T
        feats = np.empty((N, 2 * n))
        np.cos(proj, out=feats[:, :n])
        np.sin(proj, out=feats[:, n:])
        return np.divide(feats, np.sqrt(n), out=feats)
    proj = X @ W.T
    if spec.family == "arccos0":
        return np.multiply(np.sqrt(2.0 / n), proj > 0.0, out=proj)
    return np.multiply(np.sqrt(2.0 / n), np.maximum(proj, 0.0, out=proj), out=proj)


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
    norms = _reference_norms(A)
    return _relative_errors(B - A, norms)


def _reference_norms(exact: np.ndarray) -> tuple[float, float]:
    """The error denominators: the Frobenius norm and the max |entry| of ``exact``."""
    denom_f = float(np.linalg.norm(exact))
    if denom_f == 0.0:
        raise DomainError("reference Gram matrix is zero")
    return denom_f, float(np.abs(exact).max())


def _relative_errors(diff: np.ndarray, norms: tuple[float, float]) -> GramErrors:
    """Errors from ``diff`` = approx - exact, which is overwritten."""
    rel_frobenius = float(np.linalg.norm(diff)) / norms[0]
    return GramErrors(rel_frobenius, float(np.abs(diff, out=diff).max()) / norms[1])


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
    raises ``DomainError``, with no floating-point warning. Every check
    refuses before the exact Gram matrix: the data's shape, the peak's
    memory guard, then the methods, ``runs`` and each method's (d, n).
    """
    X = _data_matrix(data)
    N, d = X.shape
    # beside K, whichever weighs most: the order-1 arc-cosine exact Gram's
    # two more N x N arrays, the features being built, or a run's features F
    # and its Gram G = F @ F.T, in which the difference to K is formed; the
    # point sets add _POINT_BYTES per coordinate
    width = 2 if spec.family == "gaussian" else 1  # features per point
    beside_k = max(16 * N if spec.family == "arccos1" else 0, _FEATURE_BYTES[spec.family] * n,
                   8 * N + 8 * width * n)
    _require_memory(N * (8 * N + beside_k) + _POINT_BYTES * n * d, f"kernel benchmark for N={N}, n={n}")
    # its own two columns: the rows are pinned to this (runs, 2) seed matrix
    methods, runs, seeds = _seed_matrix(methods, ("subgroup", "mc"), runs, seed)
    if "subgroup" in methods:
        base = generate(subgroup_generating_vector(d, n))
    if "mc" in methods:
        _mc_shape(n, d)
    with np.errstate(all="ignore"):
        K = exact_gram(X, spec)
    if not np.isfinite(K).all():
        raise DomainError("the exact Gram matrix is not finite; rescale the data")
    norms = _reference_norms(K)

    def score(ps: LatticePointSet) -> dict:
        # a run's arrays are freed on return, before the next run's features
        F = feature_map(X, ps, spec)
        G = F @ F.T
        errs = _relative_errors(np.subtract(G, K, out=G), norms)  # gram_errors(K, G), in place
        return {"rel_frobenius": errs.rel_frobenius, "rel_max": errs.rel_max}

    rows = []
    for r in range(runs):
        for method in methods:
            s = seeds[method][r]
            errs = score(mc_points(n, d, s) if method == "mc" else random_shift(base, s))
            rows.append({"method": method, "d": d, "n": n, "seed": seed, "run": r, **errs})
    return rows
