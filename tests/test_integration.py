"""Integration test-problem and Boltzmann estimator tests.

Closed forms are recomputed inline (independent arithmetic) wherever a
value is asserted; estimator convergence is checked on seeded runs.
"""

import itertools
import math

import numpy as np
import pytest

from lattice_forge import integration as integ
from lattice_forge.exceptions import DomainError
from lattice_forge.lattice import subgroup_generating_vector
from lattice_forge.pointset import LatticePointSet, generate, mc_points, random_shift

# ---------------------------------------------------------------------------
# integrand and exact integral
# ---------------------------------------------------------------------------


def test_integrand_point_and_batch():
    spec = integ.TestIntegrand(d=1)
    assert integ.test_integrand(np.array([1.0]), spec) == pytest.approx(math.e, abs=1e-15)
    assert integ.test_integrand(np.array([0.0]), spec) == 1.0
    spec3 = integ.TestIntegrand(d=3, b=2.0, c=1.0)
    x = np.array([0.5, 0.5, 0.5])
    expect = math.exp(0.5 * (1 + 1 / 4 + 1 / 9))
    assert integ.test_integrand(x, spec3) == pytest.approx(expect, rel=1e-15)
    batch = integ.test_integrand(np.stack([x, np.zeros(3)]), spec3)
    np.testing.assert_allclose(batch, [expect, 1.0], rtol=1e-15)


def test_integrand_validation():
    with pytest.raises(DomainError):
        integ.TestIntegrand(d=0)
    with pytest.raises(DomainError):
        integ.TestIntegrand(d=2, c=0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            integ.TestIntegrand(d=2, c=bad)
        with pytest.raises(DomainError):
            integ.TestIntegrand(d=2, b=bad)
    spec = integ.TestIntegrand(d=2)
    with pytest.raises(DomainError):
        integ.test_integrand(np.zeros(3), spec)


def test_exact_integral_closed_forms():
    assert integ.test_integral_exact(integ.TestIntegrand(d=1)) == pytest.approx(
        math.e - 1, abs=1e-15
    )
    # d=2: (e - 1) * (e^{1/4} - 1)/(1/4)
    expect = (math.e - 1) * (math.exp(0.25) - 1) / 0.25
    got = integ.test_integral_exact(integ.TestIntegrand(d=2))
    assert got == pytest.approx(expect, rel=1e-14)
    assert got == pytest.approx(1.95222, abs=1e-4)


def test_exact_integral_log_space_branch_continuous():
    # the d >= 100 log-space path must agree with direct products
    lo = integ.test_integral_exact(integ.TestIntegrand(d=99))
    hi = integ.test_integral_exact(integ.TestIntegrand(d=100))
    direct = float(np.prod(np.expm1(integ.TestIntegrand(d=100).weights())
                           / integ.TestIntegrand(d=100).weights()))
    assert hi == pytest.approx(direct, rel=1e-12)
    assert hi > lo  # every factor exceeds 1


def test_qmc_estimate_constant_and_riemann():
    ps = mc_points(100, 3, seed=0)
    assert integ.qmc_estimate(ps, lambda X: np.full(X.shape[0], 7.0)) == 7.0
    # f is called once on the batch; a scalar result is not an (n,) vector
    with pytest.raises(DomainError):
        integ.qmc_estimate(ps, lambda row: 7.0)
    # d=1 unshifted lattice = left Riemann sum of e^x
    vec = subgroup_generating_vector(1, 10007)
    est = integ.qmc_estimate(
        generate(vec), lambda X: integ.test_integrand(X, integ.TestIntegrand(d=1))
    )
    assert est == pytest.approx(math.e - 1, abs=1e-3)


def test_qmc_estimate_propagates_integrand_errors():
    def f(X):
        # fails on the batch; a row-by-row retry would succeed and hide it
        if X.ndim == 2:
            raise ValueError("integrand failed")
        return 1.0

    with pytest.raises(ValueError, match="integrand failed"):
        integ.qmc_estimate(mc_points(10, 2, seed=0), f)


def test_relative_error():
    assert integ.relative_error(1.1, 1.0) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(DomainError):
        integ.relative_error(1.0, 0.0)


def test_shifted_lattice_converges_with_n():
    spec = integ.TestIntegrand(d=10)
    exact = integ.test_integral_exact(spec)
    f = lambda X: integ.test_integrand(X, spec)  # noqa: E731

    def median_err(n):
        base = generate(subgroup_generating_vector(10, n))
        errs = [
            abs(integ.qmc_estimate(random_shift(base, s), f) - exact) / exact
            for s in range(20)
        ]
        return float(np.median(errs))

    assert median_err(401) < median_err(101)


# ---------------------------------------------------------------------------
# Boltzmann machine
# ---------------------------------------------------------------------------


def test_energy_closed_forms():
    d = 3
    model = integ.BoltzmannModel(W=np.zeros((d, d)), b=np.zeros(d))
    assert integ.boltzmann_energy(np.full(d, 0.5), model) == 0.0
    model_i = integ.BoltzmannModel(W=np.eye(d), b=np.zeros(d))
    # x = all ones: E = -(d + 0)/d = -1
    assert integ.boltzmann_energy(np.ones(d), model_i) == pytest.approx(-1.0, abs=1e-15)
    batch = integ.boltzmann_energy(np.stack([np.ones(d), np.zeros(d)]), model_i)
    np.testing.assert_allclose(batch, [-1.0, 0.0], atol=1e-15)


def test_partition_trivial_model_is_one():
    d = 4
    model = integ.BoltzmannModel(W=np.zeros((d, d)), b=np.zeros(d))
    ps = mc_points(100, d, seed=1)
    assert integ.estimate_partition(ps, model) == 1.0


def test_partition_d1_closed_form():
    # W = 0, b = (1): E(x) = -x, Z = integral e^x = e - 1
    model = integ.BoltzmannModel(W=np.zeros((1, 1)), b=np.ones(1))
    ps = generate(subgroup_generating_vector(1, 10007))
    assert integ.estimate_partition(ps, model) == pytest.approx(math.e - 1, abs=1e-3)


def test_random_model_seeded():
    a = integ.random_boltzmann_model(5, seed=3)
    b = integ.random_boltzmann_model(5, seed=3)
    np.testing.assert_array_equal(a.W, b.W)
    np.testing.assert_array_equal(a.W_h, b.W_h)
    # W is the seeded generator's first draw
    np.testing.assert_array_equal(a.W, np.random.default_rng(3).standard_normal((5, 5)))
    assert a.has_inference_params()
    assert not integ.BoltzmannModel(a.W, a.b).has_inference_params()


def test_marginal_separates_when_cross_term_vanishes():
    # W_h = 0 makes exp(-f(v, .)) constant, so the marginal factorizes
    d = 4
    rng = np.random.default_rng(11)
    model = integ.BoltzmannModel(
        W=rng.standard_normal((d, d)),
        b=rng.standard_normal(d),
        W_v=rng.standard_normal((d, d)),
        W_h=np.zeros((d, d)),
        b_v=rng.standard_normal(d),
    )
    v = rng.random(d)
    ps = mc_points(500, d, seed=2)
    Z = 1.7
    f_v = -(v @ model.W_v @ v + model.b_v @ v) / d
    expect = math.exp(-f_v) * integ.estimate_partition(ps, model) / Z
    got = integ.estimate_marginal(v, ps, model, Z)
    assert got == pytest.approx(expect, rel=1e-12)


def test_marginal_validation():
    d = 3
    full = integ.random_boltzmann_model(d, seed=0)
    model = integ.BoltzmannModel(full.W, full.b)
    ps = mc_points(10, d, seed=0)
    with pytest.raises(DomainError):
        integ.estimate_marginal(np.zeros(d), ps, model, 1.0)
    with pytest.raises(DomainError):
        integ.estimate_marginal(np.zeros(d), ps, full, 0.0)


def test_mc_partition_blocking_invariant(monkeypatch):
    model = integ.random_boltzmann_model(3, seed=5)
    monkeypatch.setattr(integ, "_MC_BLOCK", 4000)
    whole = integ.mc_partition(model, 4000, seed=9)
    monkeypatch.setattr(integ, "_MC_BLOCK", 1000)
    split = integ.mc_partition(model, 4000, seed=9)
    # same generator stream, different block boundaries
    assert whole == pytest.approx(split, rel=1e-12)


def _blocked_mc(model, n_samples, seed, block, v=None, Z=None):
    """Independent copy of the two blocked i.i.d. loops: exp(-E) summed per
    block for the partition, mean * take per block for the marginal."""
    rng = np.random.default_rng(seed)
    total = 0.0
    done = 0
    while done < n_samples:
        take = min(block, n_samples - done)
        X = rng.random((take, model.d))
        if v is None:
            total += float(np.exp(-integ.boltzmann_energy(X, model)).sum())
        else:
            total += integ.estimate_marginal(v, LatticePointSet(X), model, Z) * take
        done += take
    return total / n_samples


@pytest.mark.parametrize("block", [333, 1000, 1_000_000])
def test_mc_estimators_match_blocked_loop_bitwise(monkeypatch, block):
    # 2500 samples: 7 full blocks of 333 and a short one of 169; 2 of 1000
    # and one of 500; a single short block at the default size. Several
    # models, since a reordered sum often rounds the same on any one.
    monkeypatch.setattr(integ, "_MC_BLOCK", block)
    for s in range(8):
        d = 3 + s % 5
        model = integ.random_boltzmann_model(d, seed=s)
        v = np.random.default_rng(s + 1).random(d)
        Z = integ.mc_partition(model, 2500, seed=s + 2)
        assert Z == _blocked_mc(model, 2500, s + 2, block), s
        got = integ.mc_marginal(v, model, Z, 2500, seed=s + 3)
        assert got == _blocked_mc(model, 2500, s + 3, block, v=v, Z=Z), s


# ---------------------------------------------------------------------------
# benchmark drivers
# ---------------------------------------------------------------------------


def test_integration_benchmark_rows_and_determinism():
    rows = integ.run_integration_benchmark(2, 13, runs=3, seed=5)
    again = integ.run_integration_benchmark(2, 13, runs=3, seed=5)
    assert rows == again
    assert len(rows) == 6
    methods = {r["method"] for r in rows}
    assert methods == {"subgroup", "mc"}
    for r in rows:
        assert r["rel_error"] == pytest.approx(
            abs(r["estimate"] - r["exact"]) / r["exact"], rel=1e-15
        )


def test_integration_benchmark_unshifted_is_deterministic_per_run():
    rows = integ.run_integration_benchmark(
        1, 3, runs=2, seed=0, methods=("subgroup",), shifted=False
    )
    # forced zero shift: every run evaluates the raw lattice {0, 1/3, 2/3}
    expect = (1 + math.exp(1 / 3) + math.exp(2 / 3)) / 3
    for r in rows:
        assert r["estimate"] == pytest.approx(expect, rel=1e-15)


def test_boltzmann_benchmark_shapes():
    rows, gt = integ.run_boltzmann_benchmark(
        3, 7, runs=2, seed=1, gt_samples=20_000
    )
    assert len(rows) == 4
    assert gt > 0
    for r in rows:
        assert r["exact"] == pytest.approx(gt, rel=0)
    rows2, gt2 = integ.run_boltzmann_benchmark(
        3, 7, runs=2, seed=1, target="marginal", gt_samples=20_000
    )
    assert len(rows2) == 4
    assert gt2 > 0


def test_benchmark_method_validation():
    with pytest.raises(DomainError):
        integ.run_integration_benchmark(2, 13, runs=1, methods=("bogus",))
    with pytest.raises(DomainError):
        integ.run_boltzmann_benchmark(2, 13, runs=1, target="junk")
    for bad in ({"methods": ()}, {"runs": 0}, {"runs": -1}):
        kwargs = {"runs": 1, **bad}
        with pytest.raises(DomainError):
            integ.run_integration_benchmark(2, 13, **kwargs)
        with pytest.raises(DomainError):
            integ.run_boltzmann_benchmark(2, 13, gt_samples=100, **kwargs)


def _method_subsets(methods):
    for k in range(1, len(methods) + 1):
        for combo in itertools.permutations(methods, k):
            yield combo


def _rows_by_method(rows):
    out = {}
    for r in rows:
        out.setdefault(r["method"], []).append(r)
    return out


@pytest.mark.parametrize("driver", ["integration", "boltzmann"])
def test_method_rows_do_not_depend_on_other_methods(driver):
    def run(methods):
        if driver == "integration":
            return integ.run_integration_benchmark(5, 11, runs=2, seed=3, methods=methods)
        return integ.run_boltzmann_benchmark(
            5, 11, runs=2, seed=3, gt_samples=2_000, methods=methods
        )[0]

    alone = {m: run((m,)) for m in ("subgroup", "korobov", "mc")}
    for methods in _method_subsets(("subgroup", "korobov", "mc")):
        for method, rows in _rows_by_method(run(methods)).items():
            assert rows == alone[method], (methods, method)
