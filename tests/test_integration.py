"""Integration test-problem and Boltzmann estimator tests.

Closed forms are recomputed inline (independent arithmetic) wherever a
value is asserted; estimator convergence is checked on seeded runs.
"""

import itertools
import math

import numpy as np
import pytest

from lattice_forge import integration as integ
from lattice_forge import pointset
from lattice_forge.exceptions import DomainError
from lattice_forge.lattice import subgroup_generating_vector
from lattice_forge.pointset import LatticePointSet, _replicate, generate, mc_points, random_shift

# ---------------------------------------------------------------------------
# integrand and exact integral
# ---------------------------------------------------------------------------


def test_integrand_point_and_batch():
    spec = integ.TestIntegrand(d=1)
    vals = integ.test_integrand(np.array([[1.0], [0.0]]), spec)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(math.e, abs=1e-15)
    assert vals[1] == 1.0
    spec3 = integ.TestIntegrand(d=3, b=2.0, c=1.0)
    x = np.array([0.5, 0.5, 0.5])
    expect = math.exp(0.5 * (1 + 1 / 4 + 1 / 9))
    assert integ.test_integrand(x[None, :], spec3)[0] == pytest.approx(expect, rel=1e-15)
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
    # only an (m, 2) batch is accepted: a single point is not one
    spec = integ.TestIntegrand(d=2)
    for bad in (np.zeros(2), np.zeros(3), np.zeros((4, 3)), np.zeros((1, 4, 2)), 1.0):
        with pytest.raises(DomainError, match=r"points must be an \(m, 2\) batch"):
            integ.test_integrand(bad, spec)


def test_exact_integral_closed_forms():
    assert integ.test_integral_exact(integ.TestIntegrand(d=1)) == pytest.approx(
        math.e - 1, abs=1e-15
    )
    # d=2: (e - 1) * (e^{1/4} - 1)/(1/4)
    expect = (math.e - 1) * (math.exp(0.25) - 1) / 0.25
    got = integ.test_integral_exact(integ.TestIntegrand(d=2))
    assert got == pytest.approx(expect, rel=1e-14)
    assert got == pytest.approx(1.95222, abs=1e-4)
    # at b = 2000 the weights after the first underflow to 0, whose factor
    # is its limit 1: the integral is (e - 1) * 1 * 1
    assert integ.TestIntegrand(d=3, b=2000.0).weights().tolist() == [1.0, 0.0, 0.0]
    assert integ.test_integral_exact(integ.TestIntegrand(d=3, b=2000.0)) == float(np.expm1(1.0))


def test_exact_integral_log_space_branch_continuous():
    # the d >= 100 log-space path must agree with direct products
    lo = integ.test_integral_exact(integ.TestIntegrand(d=99))
    hi = integ.test_integral_exact(integ.TestIntegrand(d=100))
    direct = float(np.prod(np.expm1(integ.TestIntegrand(d=100).weights())
                           / integ.TestIntegrand(d=100).weights()))
    assert hi == pytest.approx(direct, rel=1e-12)
    assert hi > lo  # every factor exceeds 1


def test_integration_benchmark_checks_reference_before_points(monkeypatch):
    # an overflowing weight or factor makes the reference inf or nan: it is
    # refused before any point set is built, with no RuntimeWarning (pytest
    # turns warnings into errors)
    def no_points(*args, **kwargs):
        raise AssertionError("point sets were built")

    monkeypatch.setattr(integ, "_replicate", no_points)
    for b, c in ((2.0, 800.0), (-2000.0, 1.0), (2.0, 709.9)):
        with pytest.raises(DomainError, match="reference value must be finite and nonzero"):
            integ.run_integration_benchmark(3, 7, b=b, c=c, runs=1)
    with pytest.raises(AssertionError, match="point sets were built"):
        integ.run_integration_benchmark(3, 7, b=2000.0, runs=1)


def test_qmc_estimate_constant_and_riemann():
    # d=1 unshifted lattice = left Riemann sum of e^x
    vec = subgroup_generating_vector(1, 10007)
    est = integ.test_integrand(generate(vec).points, integ.TestIntegrand(d=1)).mean()
    assert est == pytest.approx(math.e - 1, abs=1e-3)


def test_relative_error():
    assert integ._relative_error(1.1, 1.0) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(DomainError):
        integ._relative_error(1.0, 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="estimate must be finite"):
            integ._relative_error(bad, 1.0)


def test_shifted_lattice_converges_with_n():
    spec = integ.TestIntegrand(d=10)
    exact = integ.test_integral_exact(spec)

    def median_err(n):
        base = generate(subgroup_generating_vector(10, n))
        errs = [
            abs(integ.test_integrand(random_shift(base, s).points, spec).mean() - exact) / exact
            for s in range(20)
        ]
        return float(np.median(errs))

    assert median_err(401) < median_err(101)


# ---------------------------------------------------------------------------
# Boltzmann machine
# ---------------------------------------------------------------------------


def _model(W, b):
    """A model with the given W and b and zero marginal parameters."""
    d = len(b)
    return integ.BoltzmannModel(W=W, b=b, W_v=np.zeros((d, d)), W_h=np.zeros((d, d)), b_v=np.zeros(d))


def test_energy_closed_forms():
    d = 3
    model = _model(np.zeros((d, d)), np.zeros(d))
    assert integ.boltzmann_energy(np.full((1, d), 0.5), model).tolist() == [0.0]
    model_i = _model(np.eye(d), np.zeros(d))
    # x = all ones: E = -(d + 0)/d = -1
    batch = integ.boltzmann_energy(np.stack([np.ones(d), np.zeros(d)]), model_i)
    assert batch.shape == (2,)
    np.testing.assert_allclose(batch, [-1.0, 0.0], atol=1e-15)
    for bad in (np.ones(d), np.ones((2, d + 1)), np.ones((1, 2, d))):
        with pytest.raises(DomainError, match=r"points must be an \(m, 3\) batch"):
            integ.boltzmann_energy(bad, model_i)


def test_partition_trivial_model_is_one():
    d = 4
    model = _model(np.zeros((d, d)), np.zeros(d))
    ps = mc_points(100, d, seed=1)
    assert integ.estimate_partition(ps, model) == 1.0


def test_partition_d1_closed_form():
    # W = 0, b = (1): E(x) = -x, Z = integral e^x = e - 1
    model = _model(np.zeros((1, 1)), np.ones(1))
    ps = generate(subgroup_generating_vector(1, 10007))
    assert integ.estimate_partition(ps, model) == pytest.approx(math.e - 1, abs=1e-3)


def test_random_model_seeded():
    a = integ.random_boltzmann_model(5, seed=3)
    b = integ.random_boltzmann_model(5, seed=3)
    np.testing.assert_array_equal(a.W, b.W)
    np.testing.assert_array_equal(a.W_h, b.W_h)
    # W is the seeded generator's first draw
    np.testing.assert_array_equal(a.W, np.random.default_rng(3).standard_normal((5, 5)))


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
    ps = mc_points(10, d, seed=0)
    with pytest.raises(DomainError):
        integ.estimate_marginal(np.zeros(d), ps, full, 0.0)
    # points with the wrong column count are refused by the energy's check
    with pytest.raises(DomainError, match=r"points must be an \(m, 3\) batch"):
        integ.estimate_marginal(np.zeros(d), mc_points(10, d + 1, seed=0), full, 1.0)
    # every marginal parameter is required, of its shape, and finite
    with pytest.raises(TypeError):
        integ.BoltzmannModel(full.W, full.b)
    params = {"W": full.W, "b": full.b, "W_v": full.W_v, "W_h": full.W_h, "b_v": full.b_v}
    for name in ("W_v", "W_h", "b_v"):
        shape = params[name].shape
        for bad in (None, np.zeros((2, 2)), np.zeros((2,)), np.zeros((d, d, 1))):
            with pytest.raises(DomainError, match=f"{name} must have shape"):
                integ.BoltzmannModel(**{**params, name: bad})
        for value in (np.nan, np.inf):
            with pytest.raises(DomainError, match="model parameters must be finite"):
                integ.BoltzmannModel(**{**params, name: np.full(shape, value)})
    # parameters are stored as float64 arrays, lists included
    listed = integ.BoltzmannModel(**{**params, "W_v": full.W_v.tolist()})
    assert listed.W_v.dtype == np.float64
    np.testing.assert_array_equal(listed.W_v, full.W_v)
    # the messages for W and b are unchanged
    with pytest.raises(DomainError, match=r"W must be square, got shape \(3, 2\)"):
        integ.BoltzmannModel(**{**params, "W": np.zeros((3, 2))})
    with pytest.raises(DomainError, match=r"b must have shape \(3,\), got \(2,\)"):
        integ.BoltzmannModel(**{**params, "b": np.zeros(2)})


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


def test_integration_benchmark_unshifted_is_deterministic_per_run(monkeypatch):
    # forced zero shift: every run evaluates the raw lattice {0, 1/3, 2/3},
    # and with no value budget its 5 runs go past the chunk of d = 1 runs
    monkeypatch.setattr(pointset, "_CHUNK_VALUES", 0)
    one = integ.run_integration_benchmark(1, 3, runs=1, seed=0, methods=("subgroup",), shifted=False)
    rows = integ.run_integration_benchmark(1, 3, runs=5, seed=0, methods=("subgroup",), shifted=False)
    expect = (1 + math.exp(1 / 3) + math.exp(2 / 3)) / 3
    assert one[0]["estimate"] == pytest.approx(expect, rel=1e-15)
    for r, row in enumerate(rows):
        assert row["run"] == r
        assert repr({**row, "run": 0}) == repr(one[0]), r


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


@pytest.mark.parametrize("shifted", [True, False], ids=["shifted", "no-shift"])
def test_integration_benchmark_matches_materialized_sets(reference_sets, shifted):
    # d = 64 streams blocks of 512 rows, and n = 7681 = 15 * 512 + 1 ends in
    # the one-row remainder: every estimate is still the mean of the
    # integrand on the whole materialized set, bit for bit
    d, n, runs = 64, 7681, 2
    methods = ("subgroup", "korobov", "mc")
    rows = integ.run_integration_benchmark(d, n, runs=runs, seed=7, methods=methods, shifted=shifted)
    w = integ.TestIntegrand(d=d).weights()
    for method in methods:
        got = [r["estimate"] for r in rows if r["method"] == method]
        expect = [float(np.exp(P @ w).mean()) for P in reference_sets(d, n, method, runs, 7, shifted)]
        assert got == expect, method


def _boltzmann_reference(P, model, v):
    """The per-point partition and marginal integrands on a whole set,
    written out as the estimators once computed them."""
    e = -(np.einsum("ij,jk,ik->i", P, model.W, P) + P @ model.b) / model.d
    const = -(v @ model.W_v @ v + model.b_v @ v) / model.d
    cross = -(2.0 * (v @ model.W_h) @ P.T) / model.d
    return np.exp(-e), np.exp(-(const + cross) - e)


@pytest.mark.parametrize("target", ["partition", "marginal"])
@pytest.mark.parametrize("method, n", [("subgroup", 3851), ("korobov", 3851), ("mc", 3841)])
def test_streamed_boltzmann_values_match_materialized_sets_bitwise(reference_sets, stream_order, target,
                                                                   method, n):
    # d = 25 streams blocks of 1280 rows: n = 3851 in four blocks, n = 3841
    # in three with the one-row remainder joined to the last
    d, runs, Z = 25, 2, 1.5
    model = integ.random_boltzmann_model(d, 4)
    v = np.random.default_rng(5).random(d)
    if target == "partition":
        values = lambda x: integ._partition_values(x, model)  # noqa: E731
    else:
        values = lambda h: integ._marginal_values(v, h, model)  # noqa: E731
    outs = []

    def record(x):
        outs.append(values(x))
        return outs[-1]

    means = _replicate(d, n, (method,), record, runs=runs, seed_source=6)[method]
    calls = stream_order([len(o) for o in outs], d, n, (method,), runs)[method]
    for r, P in enumerate(reference_sets(d, n, method, runs, 6)):
        expect = _boltzmann_reference(P, model, v)[target == "marginal"]
        assert np.concatenate([outs[k] for k in calls[r]]).tobytes() == expect.tobytes(), r
        assert means[r] == float(expect.mean()), r
        # the public estimators use the same per-point functions
        if target == "partition":
            assert means[r] == integ.estimate_partition(LatticePointSet(P), model)
        else:
            assert means[r] / Z == integ.estimate_marginal(v, LatticePointSet(P), model, Z)


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
