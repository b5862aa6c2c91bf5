"""Kernel feature-map tests.

The normal quantile inside ``feature_map`` is checked against an
independent bisection of the erf-based normal CDF, read back from
arc-cosine order-1 features of the data rows +-e_j; the arc-cosine
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
    F = ker.feature_map(X, ps, ker.KernelSpec("arccos1")).features
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
    assert ker.exact_kernel(x, x, ker.KernelSpec("gaussian")) == 1.0
    assert ker.exact_kernel(x, x, ker.KernelSpec("arccos0")) == pytest.approx(1.0, abs=1e-12)
    # arccos1 at theta = 0 is ||x||^2 / pi * pi = ||x||^2
    assert ker.exact_kernel(x, x, ker.KernelSpec("arccos1")) == pytest.approx(
        float(x @ x), rel=1e-12
    )


def test_exact_kernel_known_angles():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    # orthogonal: theta = pi/2
    assert ker.exact_kernel(e1, e2, ker.KernelSpec("arccos0")) == pytest.approx(0.5, abs=1e-12)
    assert ker.exact_kernel(e1, e2, ker.KernelSpec("arccos1")) == pytest.approx(
        1.0 / math.pi, rel=1e-12
    )
    # antipodal: theta = pi
    assert ker.exact_kernel(e1, -e1, ker.KernelSpec("arccos0")) == pytest.approx(0.0, abs=1e-12)
    g = ker.exact_kernel(e1, 3.0 * e1, ker.KernelSpec("gaussian", sigma=2.0))
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
                    ker.exact_kernel(X[i], X[j], spec), abs=1e-12
                )


def test_kernel_spec_validation():
    with pytest.raises(DomainError):
        ker.KernelSpec("laplace")
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            ker.KernelSpec("gaussian", sigma=bad)


def test_arccos_rejects_zero_rows():
    X = np.array([[0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(DomainError):
        ker.exact_gram(X, ker.KernelSpec("arccos0"))
    with pytest.raises(DomainError):
        ker.exact_kernel(X[0], X[1], ker.KernelSpec("arccos1"))


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
    closed = ker.exact_kernel(x, y, ker.KernelSpec("arccos0"))
    assert closed == pytest.approx(quad, abs=1e-3)


# ---------------------------------------------------------------------------
# feature maps
# ---------------------------------------------------------------------------


def _shifted_lattice(d, n, seed=0):
    return random_shift(generate(subgroup_generating_vector(d, n)), seed)


def test_feature_map_shapes_and_dims():
    X = np.random.default_rng(1).normal(0, 5, size=(30, 4))
    ps = _shifted_lattice(4, 17)
    fm = ker.feature_map(X, ps, ker.KernelSpec("gaussian"))
    assert fm.features.shape == (30, 34)  # cos/sin pairs
    assert fm.n_frequencies == 17
    assert fm.feature_dim == 34
    fm0 = ker.feature_map(X, ps, ker.KernelSpec("arccos0"))
    assert fm0.features.shape == (30, 17)


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
    fm = ker.feature_map(X, _shifted_lattice(6, 13), ker.KernelSpec("gaussian"))
    K = ker.approx_gram(fm)
    np.testing.assert_allclose(np.diag(K), np.ones(12), atol=1e-12)
    assert np.abs(K).max() <= 1.0 + 1e-12
    np.testing.assert_allclose(K, K.T, atol=1e-15)
    assert np.linalg.eigvalsh(K).min() >= -1e-10


def test_arccos0_features_are_scaled_bits():
    X = np.random.default_rng(3).normal(0, 2, size=(20, 3)) + 0.5
    fm = ker.feature_map(X, _shifted_lattice(3, 19), ker.KernelSpec("arccos0"))
    lo = np.sqrt(2.0 / 19)
    vals = np.unique(fm.features)
    assert set(np.round(vals, 12)).issubset({0.0, round(lo, 12)})


def test_mc_features_converge_to_gaussian_kernel():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 5, size=7)
    y = rng.normal(0, 5, size=7)
    spec = ker.KernelSpec("gaussian", sigma=4.0)
    exact = ker.exact_kernel(x, y, spec)
    X = np.stack([x, y])

    def median_err(n, reps=60):
        errs = []
        for s in range(reps):
            fm = ker.feature_map(X, mc_points(n, 7, seed=1000 + s), spec)
            approx = float(fm.features[0] @ fm.features[1])
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
    fm = ker.feature_map(data, _shifted_lattice(4, 401, seed=1), spec)
    errs = ker.gram_errors(K, ker.approx_gram(fm))
    assert errs.rel_frobenius < 0.05
    assert errs.rel_max < 0.2


# ---------------------------------------------------------------------------
# error metrics, data plumbing, benchmark driver
# ---------------------------------------------------------------------------


def test_gram_errors_identities():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    z = ker.gram_errors(A, A)
    assert z.rel_frobenius == 0.0 and z.rel_max == 0.0
    e = ker.gram_errors(A, A + 0.1)
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
