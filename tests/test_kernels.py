"""Kernel feature-map tests.

The normal quantile inside ``feature_map`` is checked against an
independent bisection of the erf-based normal CDF, read back from
arc-cosine order-1 features of the data rows +-e_j, and ``_ndtri`` against
``scipy.special.ndtri`` bit for bit when scipy is installed; the arc-cosine
order-0 kernel is checked against a dense-grid Gaussian quadrature of the
defining expectation; Gaussian feature Gram matrices are checked for the
algebraic identities the cos/sin pairing guarantees.
"""

import math

import numpy as np
import pytest

from lattice_forge import kernels as ker
from lattice_forge.exceptions import DomainError
from lattice_forge.lattice import subgroup_generating_vector
from lattice_forge.pointset import (
    LatticePointSet,
    _seed_matrix,
    generate,
    load_csv,
    mc_points,
    random_shift,
    save_csv,
)

# ---------------------------------------------------------------------------
# normal quantile of the spectral samples
# ---------------------------------------------------------------------------


def _normal_cdf_lower(x):
    # erfc keeps full relative precision for the left tail (x <= 0)
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _quantile_by_bisection(u, iters=200):
    if u > 0.5:
        return -_quantile_by_bisection(1.0 - u, iters)
    lo, hi = -40.0, 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _normal_cdf_lower(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _frequencies(eps):
    """The frequencies W = Phi^{-1}(eps) that ``feature_map`` draws from eps.

    With arccos1 features, data row e_j maps to sqrt(2/n) relu(W[:, j])
    and row -e_j to sqrt(2/n) relu(-W[:, j]), so their difference is
    sqrt(2/n) W[:, j] whatever the sign.
    """
    eps = np.asarray(eps, dtype=np.float64)
    n, d = eps.shape
    X = np.vstack([np.eye(d), -np.eye(d)])
    ps = LatticePointSet(eps)
    F = ker.feature_map(X, ps, ker.KernelSpec("arccos1"))
    return ((F[:d] - F[d:]) / math.sqrt(2.0 / n)).T


def test_feature_map_quantile_known_values():
    W = _frequencies([[0.841344746], [0.975], [0.5]])[:, 0]
    assert W[0] == pytest.approx(1.0, abs=1e-6)
    assert W[1] == pytest.approx(1.959964, abs=1e-5)
    assert W[2] == 0.0


def test_feature_map_quantile_against_bisection_oracle():
    us = (1e-9, 1e-4, 0.1, 0.3, 0.5, 0.7, 0.9, 0.9999, 1 - 1e-9)
    W = _frequencies([[u] for u in us])[:, 0]
    for u, w in zip(us, W):
        assert w == pytest.approx(_quantile_by_bisection(u), abs=1e-9), u


def test_feature_map_quantile_symmetry():
    u = np.array([[0.2, 0.4], [0.6, 0.8], [0.1, 0.9]])
    np.testing.assert_allclose(_frequencies(u), -_frequencies(1.0 - u), atol=1e-12)


def test_ndtri_matches_scipy_bit_for_bit():
    # the port runs Cephes's operations in Cephes's order, with the C
    # library's log, so every clamped coordinate keeps scipy's bits: 10**6
    # uniforms, both tails down to the clamp, and the branch edges
    special = pytest.importorskip("scipy.special")
    lo, hi = ker._EPS_CLAMP, 1.0 - ker._EPS_CLAMP
    tails = np.geomspace(lo, ker._E2, 10**5)
    edges = [lo, hi, 0.5]
    for edge in (ker._E2, 1.0 - ker._E2):
        below = above = edge
        for _ in range(100):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            edges += [below, above]
        edges.append(edge)
    y = np.clip(np.concatenate([np.random.default_rng(11).random(10**6), tails, 1.0 - tails, edges]), lo, hi)
    assert ker._ndtri(y).tobytes() == special.ndtri(y).tobytes()
    grid = y[:1200].reshape(40, 30)  # any shape, as the clip of a point set
    assert ker._ndtri(grid).tobytes() == special.ndtri(grid).tobytes()


def test_feature_map_clamps_boundary_coordinates():
    # a coordinate exactly 0 (not a whole origin row) is clamped to 1e-10,
    # so its frequency is the finite quantile Phi^{-1}(1e-10)
    W = _frequencies([[0.0, 0.5], [0.5, 0.0]])
    assert np.isfinite(W).all()
    assert W[0, 0] == W[1, 1] == pytest.approx(_quantile_by_bisection(1e-10), abs=1e-9)
    assert W[0, 1] == W[1, 0] == 0.0


# ---------------------------------------------------------------------------
# exact kernels
# ---------------------------------------------------------------------------


def test_exact_kernel_self_similarity():
    x = np.array([1.0, 2.0, 2.0])
    assert ker._exact_kernel(x, x, ker.KernelSpec("gaussian")) == 1.0
    assert ker._exact_kernel(x, x, ker.KernelSpec("arccos0")) == pytest.approx(1.0, abs=1e-12)
    # arccos1 at theta = 0 is ||x||^2 / pi * pi = ||x||^2
    assert ker._exact_kernel(x, x, ker.KernelSpec("arccos1")) == pytest.approx(
        float(x @ x), rel=1e-12
    )


def test_exact_kernel_known_angles():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    # orthogonal: theta = pi/2
    assert ker._exact_kernel(e1, e2, ker.KernelSpec("arccos0")) == pytest.approx(0.5, abs=1e-12)
    assert ker._exact_kernel(e1, e2, ker.KernelSpec("arccos1")) == pytest.approx(
        1.0 / math.pi, rel=1e-12
    )
    # antipodal: theta = pi
    assert ker._exact_kernel(e1, -e1, ker.KernelSpec("arccos0")) == pytest.approx(0.0, abs=1e-12)
    g = ker._exact_kernel(e1, 3.0 * e1, ker.KernelSpec("gaussian", sigma=2.0))
    assert g == pytest.approx(math.exp(-4.0 / 8.0), rel=1e-12)


def test_exact_gram_matches_pairwise_kernel():
    rng = np.random.default_rng(0)
    X = rng.normal(0, 3, size=(40, 5))
    for family in ("gaussian", "arccos0", "arccos1"):
        spec = ker.KernelSpec(family)
        G = ker.exact_gram(X, spec)
        assert G.shape == (40, 40)
        np.testing.assert_allclose(G, G.T, atol=1e-12)
        for i in (0, 7, 39):
            for j in (0, 3, 21):
                assert G[i, j] == pytest.approx(
                    ker._exact_kernel(X[i], X[j], spec), abs=1e-12
                )


def _textbook_gram(X, spec):
    """Each family's Gram formula written out, one temporary per operation."""
    if spec.family == "gaussian":
        sq = (X * X).sum(axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (X @ X.T), 0.0)
        return np.exp(-d2 / (2.0 * spec.sigma**2))
    norms = np.linalg.norm(X, axis=1)
    theta = np.arccos(np.clip((X @ X.T) / np.outer(norms, norms), -1.0, 1.0))
    if spec.family == "arccos0":
        return 1.0 - theta / np.pi
    return np.outer(norms, norms) / np.pi * (np.sin(theta) + (np.pi - theta) * np.cos(theta))


@pytest.mark.parametrize("family", ["gaussian", "arccos0", "arccos1"])
def test_exact_gram_in_place_matches_textbook_formula_bit_for_bit(family):
    # exact_gram reuses its buffers but keeps each float operation and its
    # order, so every entry keeps its bits
    X = ker.synthetic_data(300, 6, seed=3)
    spec = ker.KernelSpec(family, sigma=4.0)
    assert ker.exact_gram(X, spec).tobytes() == _textbook_gram(X, spec).tobytes()


def test_kernel_spec_validation():
    with pytest.raises(DomainError):
        ker.KernelSpec("laplace")
    # 2 sigma**2 overflows from 1e154 up and underflows to 0 from 1e-162 down
    for bad in (0.0, -1.0, math.inf, math.nan, 1e300, 1e154, 1e-162, 1e-300):
        with pytest.raises(DomainError):
            ker.KernelSpec("gaussian", sigma=bad)
    for good in (9e153, 1e-160):
        assert ker.KernelSpec("arccos0", sigma=good).sigma == good


def test_kernel_benchmark_rejects_non_finite_exact_gram():
    # squared norms of 1e200 overflow: the exact Gram matrix holds inf or
    # nan, which is refused with no RuntimeWarning (pytest turns warnings
    # into errors)
    data = np.array([[1e200, 1.0], [2.0, 3.0]])
    for family in ("gaussian", "arccos0", "arccos1"):
        with pytest.raises(DomainError, match="exact Gram matrix is not finite"):
            ker.run_kernel_benchmark(data, 13, ker.KernelSpec(family), runs=1)


@pytest.mark.parametrize(
    "family, N, n, need",
    [
        # a run's K and G (the difference is formed in G) beside its features,
        # 2 or 1 per point, or the order-1 arc-cosine exact Gram's three N x N
        # arrays; the point sets add 106 bytes per coordinate (5 x 2)
        ("gaussian", 200_000, 5, 2 * 8 * 200_000**2 + 16 * 200_000 * 5 + 106 * 5 * 2),
        ("arccos0", 200_000, 5, 2 * 8 * 200_000**2 + 8 * 200_000 * 5 + 106 * 5 * 2),
        ("arccos1", 200_000, 5, 3 * 8 * 200_000**2 + 106 * 5 * 2),
        # K with the features being built: a float projection beside the
        # cos/sin features (24 bytes per sample and point) or its step mask
        # (9); order-1 arc-cosine features are the projection, so K, F and G
        # weigh most
        ("gaussian", 1000, 10**8, 8 * 1000**2 + 24 * 1000 * 10**8 + 106 * 10**8 * 2),
        ("arccos0", 1000, 10**8, 8 * 1000**2 + 9 * 1000 * 10**8 + 106 * 10**8 * 2),
        ("arccos1", 1000, 10**8, 2 * 8 * 1000**2 + 8 * 1000 * 10**8 + 106 * 10**8 * 2),
    ],
    ids=[f"{f}-{part}" for part in ("gram", "features") for f in ("gaussian", "arccos0", "arccos1")],
)
def test_kernel_benchmark_memory_guard_threshold(no_numpy, guard_threshold, family, N, n, need):
    # the data is a zero-stride view, so nothing of size N is allocated;
    # asarray keeps it a float64 view, and the next numpy use comes after the guard
    data = np.broadcast_to(np.zeros(2), (N, 2))
    no_numpy("lattice_forge.kernels", allow=("asarray", "float64"))
    spec = ker.KernelSpec(family)
    guard_threshold(lambda: ker.run_kernel_benchmark(data, n, spec, runs=1), need,
                    f"kernel benchmark for N={N}, n={n} needs ")


@pytest.mark.parametrize("family, arrays", [("gaussian", 2), ("arccos0", 2), ("arccos1", 3)])
def test_exact_gram_memory_guard_threshold(no_numpy, guard_threshold, family, arrays):
    # the N x N result and its N x N temporaries, counted before any is
    # allocated; the data is a zero-stride view
    N = 200_000
    need = arrays * 8 * N * N
    data = np.broadcast_to(np.ones(2), (N, 2))
    spec = ker.KernelSpec(family)
    no_numpy("lattice_forge.kernels", allow=("asarray", "float64"))
    guard_threshold(lambda: ker.exact_gram(data, spec), need,
                    f"^exact Gram for N=200000 needs {need / 2**30:.1f} GiB")


@pytest.mark.parametrize("family, per_pair", [("gaussian", 24), ("arccos0", 9), ("arccos1", 8)])
def test_feature_map_memory_guard_threshold(no_numpy, guard_threshold, family, per_pair):
    # the N x n projection and the cos/sin features or the step mask built
    # beside it, per (sample, point) pair, counted before the quantiles are taken
    N, n = 10**9, 5
    data = np.broadcast_to(np.ones(2), (N, 2))
    points = LatticePointSet(np.full((n, 2), 0.5))
    spec = ker.KernelSpec(family)
    no_numpy("lattice_forge.kernels", allow=("asarray", "float64"))
    guard_threshold(lambda: ker.feature_map(data, points, spec), per_pair * N * n,
                    f"^features for N={N}, n={n} needs ")


def test_gram_errors_memory_guard_threshold(no_numpy, guard_threshold):
    # the N x N difference, counted before the norms are taken
    N = 10**6
    A = np.broadcast_to(np.ones(1), (N, N))
    no_numpy("lattice_forge.kernels", allow=("asarray", "float64"))
    guard_threshold(lambda: ker.gram_errors(A, A), 8 * N * N,
                    "^Gram difference for N=1000000 needs 7450.6 GiB")


def test_arccos_rejects_zero_rows():
    X = np.array([[0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(DomainError):
        ker.exact_gram(X, ker.KernelSpec("arccos0"))
    with pytest.raises(DomainError):
        ker._exact_kernel(X[0], X[1], ker.KernelSpec("arccos1"))


def test_arccos0_grid_quadrature_oracle():
    # K0(x, y) = E_w[2 * step(w.x) step(w.y)], w ~ N(0, I_2); evaluate the
    # expectation on a dense midpoint grid and compare to the closed form
    x = np.array([1.0, 0.0])
    y = np.array([math.cos(1.1), math.sin(1.1)])
    grid = np.linspace(-6.0, 6.0, 3001)
    h = grid[1] - grid[0]
    W1, W2 = np.meshgrid(grid, grid, indexing="ij")
    pdf = np.exp(-(W1**2 + W2**2) / 2.0) / (2.0 * math.pi)
    ind = ((W1 * x[0] + W2 * x[1]) > 0) & ((W1 * y[0] + W2 * y[1]) > 0)
    quad = float((2.0 * ind * pdf).sum() * h * h)
    closed = ker._exact_kernel(x, y, ker.KernelSpec("arccos0"))
    assert closed == pytest.approx(quad, abs=1e-3)


# ---------------------------------------------------------------------------
# feature maps
# ---------------------------------------------------------------------------


def _shifted_lattice(d, n, seed=0):
    return random_shift(generate(subgroup_generating_vector(d, n)), seed)


def _textbook_features(X, ps, spec):
    """Each family's features written out: concatenated, then scaled."""
    W = ker._ndtri(np.clip(ps.points, ker._EPS_CLAMP, 1.0 - ker._EPS_CLAMP))
    n = ps.n
    if spec.family == "gaussian":
        proj = X @ (W / spec.sigma).T
        return np.concatenate([np.cos(proj), np.sin(proj)], axis=1) / np.sqrt(n)
    proj = X @ W.T
    if spec.family == "arccos0":
        return np.sqrt(2.0 / n) * (proj > 0.0)
    return np.sqrt(2.0 / n) * np.maximum(proj, 0.0)


@pytest.mark.parametrize("family", ["gaussian", "arccos0", "arccos1"])
def test_feature_map_in_place_matches_textbook_formula_bit_for_bit(family):
    # feature_map writes cos and sin into the halves of one array and
    # scales the features in place, with each float operation unchanged
    X = ker.synthetic_data(70, 5, seed=8)
    spec = ker.KernelSpec(family, sigma=6.0)
    for ps in (_shifted_lattice(5, 101, seed=2), mc_points(37, 5, seed=4)):
        assert ker.feature_map(X, ps, spec).tobytes() == _textbook_features(X, ps, spec).tobytes()


def test_feature_map_shapes_and_dims():
    X = np.random.default_rng(1).normal(0, 5, size=(30, 4))
    ps = _shifted_lattice(4, 17)
    F = ker.feature_map(X, ps, ker.KernelSpec("gaussian"))
    assert F.shape == (30, 34)  # cos/sin pairs of 17 frequencies
    assert F.dtype == np.float64
    for family in ("arccos0", "arccos1"):
        F0 = ker.feature_map(X, ps, ker.KernelSpec(family))
        assert F0.shape == (30, 17) and F0.dtype == np.float64


def test_feature_map_rejects_origin_and_mismatch():
    X = np.zeros((3, 4)) + 1.0
    unshifted = generate(subgroup_generating_vector(4, 17))
    with pytest.raises(DomainError):
        ker.feature_map(X, unshifted, ker.KernelSpec("gaussian"))
    ps = _shifted_lattice(3, 13)
    with pytest.raises(DomainError):
        ker.feature_map(X, ps, ker.KernelSpec("gaussian"))


def test_gaussian_features_unit_self_product():
    # sum of cos^2 + sin^2 over n frequencies, scaled by 1/n, is exactly 1
    X = np.random.default_rng(2).normal(0, 8, size=(12, 6)) + 1.0
    F = ker.feature_map(X, _shifted_lattice(6, 13), ker.KernelSpec("gaussian"))
    K = F @ F.T
    np.testing.assert_allclose(np.diag(K), np.ones(12), atol=1e-12)
    assert np.abs(K).max() <= 1.0 + 1e-12
    np.testing.assert_allclose(K, K.T, atol=1e-15)
    assert np.linalg.eigvalsh(K).min() >= -1e-10


def test_arccos0_features_are_scaled_bits():
    X = np.random.default_rng(3).normal(0, 2, size=(20, 3)) + 0.5
    F = ker.feature_map(X, _shifted_lattice(3, 19), ker.KernelSpec("arccos0"))
    lo = np.sqrt(2.0 / 19)
    vals = np.unique(F)
    assert set(np.round(vals, 12)).issubset({0.0, round(lo, 12)})


def test_mc_features_converge_to_gaussian_kernel():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 5, size=7)
    y = rng.normal(0, 5, size=7)
    spec = ker.KernelSpec("gaussian", sigma=4.0)
    exact = ker._exact_kernel(x, y, spec)
    X = np.stack([x, y])

    def median_err(n, reps=60):
        errs = []
        for s in range(reps):
            F = ker.feature_map(X, mc_points(n, 7, seed=1000 + s), spec)
            approx = float(F[0] @ F[1])
            errs.append(abs(approx - exact))
        return float(np.median(errs))

    e1, e2 = median_err(256), median_err(512)
    # doubling n should shrink the error by ~ 1/sqrt(2), factor-1.5 slack
    assert e2 < e1 * 1.5 / math.sqrt(2.0) + 1e-4
    assert e2 > e1 / (1.5 * math.sqrt(2.0)) - 1e-4


def test_lattice_features_approximate_gram():
    data = ker.synthetic_data(60, 4, seed=5)
    spec = ker.KernelSpec("gaussian")
    K = ker.exact_gram(data, spec)
    F = ker.feature_map(data, _shifted_lattice(4, 401, seed=1), spec)
    errs = ker.gram_errors(K, F @ F.T)
    assert errs.rel_frobenius < 0.05
    assert errs.rel_max < 0.2


# ---------------------------------------------------------------------------
# error metrics, data plumbing, benchmark driver
# ---------------------------------------------------------------------------


def test_gram_errors_identities():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    z = ker.gram_errors(A, A)
    assert z.rel_frobenius == 0.0 and z.rel_max == 0.0
    B = A + 0.1
    e = ker.gram_errors(A, B)
    np.testing.assert_array_equal(B, A + 0.1)  # neither input is overwritten
    np.testing.assert_array_equal(A, [[2.0, 1.0], [1.0, 2.0]])
    assert e.rel_frobenius == pytest.approx(0.2 / math.sqrt(10.0), rel=1e-12)
    assert e.rel_max == pytest.approx(0.05, rel=1e-12)
    with pytest.raises(DomainError):
        ker.gram_errors(A, np.eye(3))
    with pytest.raises(DomainError):
        ker.gram_errors(np.zeros((2, 2)), A)


def test_synthetic_data_seeded():
    a = ker.synthetic_data(100, 8, seed=3)
    b = ker.synthetic_data(100, 8, seed=3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (100, 8)
    assert not np.array_equal(a, ker.synthetic_data(100, 8, seed=4))


def test_matrix_csv_round_trip(tmp_path):
    m = np.random.default_rng(0).normal(size=(5, 3))
    path = tmp_path / "m.csv"
    save_csv(m, str(path))
    back = load_csv(str(path))
    np.testing.assert_array_equal(back, m)


def test_kernel_benchmark_rows():
    data = ker.synthetic_data(40, 2, seed=0)
    rows = ker.run_kernel_benchmark(data, 13, ker.KernelSpec("gaussian"), runs=2, seed=1)
    assert len(rows) == 4
    assert {r["method"] for r in rows} == {"subgroup", "mc"}
    again = ker.run_kernel_benchmark(data, 13, ker.KernelSpec("gaussian"), runs=2, seed=1)
    assert rows == again
    with pytest.raises(DomainError):
        ker.run_kernel_benchmark(data, 13, ker.KernelSpec("gaussian"), runs=1, methods=("bogus",))
    for bad in ({"methods": ()}, {"methods": ("korobov",)}, {"runs": 0}, {"runs": -1}):
        kwargs = {"runs": 1, **bad}
        with pytest.raises(DomainError):
            ker.run_kernel_benchmark(data, 13, ker.KernelSpec("gaussian"), **kwargs)
    # a method's rows do not depend on which other methods run
    for method in ("subgroup", "mc"):
        alone = ker.run_kernel_benchmark(
            data, 13, ker.KernelSpec("gaussian"), runs=2, seed=1, methods=(method,)
        )
        for methods in (("subgroup", "mc"), ("mc", "subgroup")):
            both = ker.run_kernel_benchmark(
                data, 13, ker.KernelSpec("gaussian"), runs=2, seed=1, methods=methods
            )
            assert [r for r in both if r["method"] == method] == alone


@pytest.mark.parametrize("family", ["gaussian", "arccos0", "arccos1"])
def test_kernel_benchmark_errors_equal_gram_errors(family):
    # the benchmark takes K's norms once and forms each run's difference in
    # its Gram matrix; every error keeps gram_errors' bits on the same features
    data = ker.synthetic_data(60, 3, seed=2)
    spec = ker.KernelSpec(family, sigma=5.0)
    rows = ker.run_kernel_benchmark(data, 31, spec, runs=3, seed=9)
    K = ker.exact_gram(data, spec)
    _, _, seeds = _seed_matrix(("subgroup", "mc"), ("subgroup", "mc"), 3, 9)
    base = generate(subgroup_generating_vector(3, 31))
    for row in rows:
        s = seeds[row["method"]][row["run"]]
        F = ker.feature_map(data, mc_points(31, 3, s) if row["method"] == "mc" else random_shift(base, s), spec)
        errs = ker.gram_errors(K, F @ F.T)
        assert (row["rel_frobenius"], row["rel_max"]) == (errs.rel_frobenius, errs.rel_max)
