"""QMC integration test problems with closed-form references.

Two families:

* the separable exponential integrand f(x) = exp(c * sum_j x_j j^(-b))
  on [0, 1]^d, whose integral factorizes into a product of 1-d integrals
  with closed form (exp(c j^(-b)) - 1) / (c j^(-b));
* a fully-connected Boltzmann machine relaxed to the unit cube, whose
  partition function and visible-unit marginals are estimated by
  averaging exp(-energy) over a point set, with an i.i.d. Monte Carlo
  pseudo-ground-truth helper.

``run_integration_benchmark`` / ``run_boltzmann_benchmark`` drive the
repeated-shift experiments that the CLI serializes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DomainError
from .pointset import LatticePointSet, _replicate

__all__ = [
    "TestIntegrand",
    "BoltzmannModel",
    "test_integrand",
    "test_integral_exact",
    "qmc_estimate",
    "random_boltzmann_model",
    "boltzmann_energy",
    "estimate_partition",
    "estimate_marginal",
    "mc_partition",
    "mc_marginal",
    "run_integration_benchmark",
    "run_boltzmann_benchmark",
]


@dataclass(frozen=True)
class TestIntegrand:
    """Parameters of f(x) = exp(c * sum_j x_j * j**(-b)) on [0, 1]^d.

    b and c must be finite and c nonzero; weights c * j**(-b) may still
    underflow to 0 or overflow (see ``test_integral_exact``).
    """

    d: int
    b: float = 2.0
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DomainError(f"d must be >= 1, got {self.d}")
        if not (math.isfinite(self.b) and math.isfinite(self.c)):
            raise DomainError(f"b and c must be finite, got b={self.b}, c={self.c}")
        if self.c == 0.0:
            raise DomainError("c must be nonzero (c = 0 degenerates to f == 1)")

    def weights(self) -> np.ndarray:
        """Coordinate weights c * j**(-b), j = 1..d."""
        j = np.arange(1, self.d + 1, dtype=np.float64)
        return self.c * j ** (-self.b)


def test_integrand(x: np.ndarray, spec: TestIntegrand) -> "float | np.ndarray":
    """Evaluate the integrand at one point (1-d input) or a batch (2-d).

    Examples
    --------
    >>> test_integrand(np.array([1.0]), TestIntegrand(d=1)) == math.e
    True
    """
    xa = np.asarray(x, dtype=np.float64)
    w = spec.weights()
    if xa.ndim == 1:
        if xa.shape != (spec.d,):
            raise DomainError(f"point must have shape ({spec.d},), got {xa.shape}")
        return float(np.exp(xa @ w))
    if xa.ndim == 2:
        if xa.shape[1] != spec.d:
            raise DomainError(f"batch must have {spec.d} columns, got {xa.shape[1]}")
        return np.exp(xa @ w)
    raise DomainError(f"expected a point or a batch, got ndim={xa.ndim}")


def test_integral_exact(spec: TestIntegrand) -> float:
    """Closed-form integral: prod_j (exp(c j^(-b)) - 1) / (c j^(-b)).

    For large d the product is accumulated in log space; every factor is
    computed with expm1 so small weights lose no precision, and a zero
    weight contributes its limit 1. Overflow gives inf or nan, silently.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = spec.weights()
        factors = np.divide(np.expm1(a), a, out=np.ones_like(a), where=a != 0.0)
        if spec.d < 100:
            return float(np.prod(factors))
        return float(np.exp(np.log(factors).sum()))


def qmc_estimate(points: LatticePointSet, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Equal-weight cubature: mean of f over the point set.

    ``f`` is called once on the (n, d) batch and must return an (n,)
    vector; any other shape raises ``DomainError``. Errors raised by
    ``f`` propagate unchanged.
    """
    vals = np.asarray(f(points.points), dtype=np.float64)
    if vals.shape != (points.n,):
        raise DomainError(f"integrand must return shape ({points.n},), got {vals.shape}")
    return float(vals.mean())


def _relative_error(estimate: float, exact: float) -> float:
    """|estimate - exact| / |exact|; the reference must be nonzero."""
    if exact == 0.0 or not math.isfinite(exact):
        raise DomainError(f"reference value must be finite and nonzero, got {exact}")
    return abs(estimate - exact) / abs(exact)


# ---------------------------------------------------------------------------
# Boltzmann machine on the unit cube
# ---------------------------------------------------------------------------

# Samples per block of the i.i.d. estimators ``mc_partition``/``mc_marginal``;
# bounds their memory at about _MC_BLOCK * d floats.
_MC_BLOCK = 1_000_000


@dataclass(frozen=True)
class BoltzmannModel:
    """Quadratic energy E(x) = -(x' W x + b' x) / d on [0, 1]^d.

    ``W_v``, ``W_h``, ``b_v`` (optional) parameterize a visible/hidden
    split used by ``estimate_marginal``: for an observation v and hidden
    state h,

        f(v, h) = -(v' W_v v + 2 v' W_h h + b_v' v) / d,

    and the unnormalized marginal of v is the integral over h of
    exp(-f(v, h)) exp(-E(h)).
    """

    W: np.ndarray
    b: np.ndarray
    W_v: np.ndarray | None = None
    W_h: np.ndarray | None = None
    b_v: np.ndarray | None = None

    def __post_init__(self) -> None:
        W = np.asarray(self.W, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise DomainError(f"W must be square, got shape {W.shape}")
        if b.shape != (W.shape[0],):
            raise DomainError(f"b must have shape ({W.shape[0]},), got {b.shape}")
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise DomainError("model parameters must be finite")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @property
    def d(self) -> int:
        return self.W.shape[0]

    def has_inference_params(self) -> bool:
        return self.W_v is not None and self.W_h is not None and self.b_v is not None


def random_boltzmann_model(d: int, seed: "int | np.random.SeedSequence") -> BoltzmannModel:
    """Standard-normal model parameters from one seeded generator.

    A single seed fixes W, b and the visible/hidden parameters, so all
    estimators compared on the model see identical coefficients.
    """
    d = operator.index(d)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((d, d))
    b = rng.standard_normal(d)
    W_v = rng.standard_normal((d, d))
    W_h = rng.standard_normal((d, d))
    b_v = rng.standard_normal(d)
    return BoltzmannModel(W=W, b=b, W_v=W_v, W_h=W_h, b_v=b_v)


def boltzmann_energy(x: np.ndarray, model: BoltzmannModel) -> "float | np.ndarray":
    """E(x) = -(x' W x + b' x) / d for one point or a batch."""
    xa = np.asarray(x, dtype=np.float64)
    single = xa.ndim == 1
    X = np.atleast_2d(xa)
    if X.shape[1] != model.d:
        raise DomainError(f"points must have {model.d} columns, got {X.shape[1]}")
    quad = np.einsum("ij,jk,ik->i", X, model.W, X)
    lin = X @ model.b
    e = -(quad + lin) / model.d
    return float(e[0]) if single else e


def estimate_partition(points: LatticePointSet, model: BoltzmannModel) -> float:
    """Partition function Z = integral of exp(-E) over [0, 1]^d."""
    e = boltzmann_energy(points.points, model)
    return float(np.exp(-e).mean())


def estimate_marginal(
    v: np.ndarray, points: LatticePointSet, model: BoltzmannModel, Z: float
) -> float:
    """Marginal likelihood of an observation v, integrating out h.

    Averages exp(-f(v, h)) exp(-E(h)) over the point set and divides by
    the partition function Z (which must be positive).
    """
    if not model.has_inference_params():
        raise DomainError("model carries no visible/hidden parameters")
    if not (Z > 0.0 and math.isfinite(Z)):
        raise DomainError(f"partition function must be positive and finite, got {Z}")
    va = np.asarray(v, dtype=np.float64)
    if va.shape != (model.d,):
        raise DomainError(f"observation must have shape ({model.d},), got {va.shape}")
    H = points.points
    if H.shape[1] != model.d:
        raise DomainError(f"points must have {model.d} columns, got {H.shape[1]}")
    const = -(va @ model.W_v @ va + model.b_v @ va) / model.d
    cross = -(2.0 * (va @ model.W_h) @ H.T) / model.d
    f_vals = const + cross
    e_vals = boltzmann_energy(H, model)
    return float(np.mean(np.exp(-f_vals - e_vals))) / Z


def _mc_mean(
    d: int,
    n_samples: int,
    seed: "int | np.random.SeedSequence",
    block_sum: Callable[[np.ndarray], float],
) -> float:
    """Mean of an integrand over n_samples i.i.d. uniform points in [0, 1)^d.

    The points come from one seeded generator in blocks of at most
    ``_MC_BLOCK`` rows; ``block_sum(X)`` returns the integrand's sum over
    block X.
    """
    n_samples = operator.index(n_samples)
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    total = 0.0
    done = 0
    while done < n_samples:
        take = min(_MC_BLOCK, n_samples - done)
        total += block_sum(rng.random((take, d)))
        done += take
    return total / n_samples


def mc_partition(
    model: BoltzmannModel,
    n_samples: int,
    seed: "int | np.random.SeedSequence",
) -> float:
    """i.i.d. Monte Carlo partition estimate, blocked for memory.

    With n_samples ~ 1e7 this serves as a pseudo-ground-truth against
    which lattice and small-sample MC estimates are scored.
    """
    return _mc_mean(
        model.d, n_samples, seed,
        lambda X: float(np.exp(-boltzmann_energy(X, model)).sum()),
    )


def mc_marginal(
    v: np.ndarray,
    model: BoltzmannModel,
    Z: float,
    n_samples: int,
    seed: "int | np.random.SeedSequence",
) -> float:
    """i.i.d. Monte Carlo estimate of the marginal of v (see above)."""
    return _mc_mean(
        model.d, n_samples, seed,
        lambda H: estimate_marginal(v, LatticePointSet(H), model, Z) * len(H),
    )


# ---------------------------------------------------------------------------
# Benchmark drivers
# ---------------------------------------------------------------------------

# Seed-matrix column of each method; fixed, so a method's rows do not depend
# on which other methods run.
_SEED_COLUMNS = ("subgroup", "korobov", "mc")


def run_integration_benchmark(
    d: int,
    n: int,
    *,
    b: float = 2.0,
    c: float = 1.0,
    runs: int = 50,
    seed: int = 0,
    methods: "tuple[str, ...] | list[str]" = ("subgroup", "mc"),
    shifted: bool = True,
) -> list[dict]:
    """Repeated randomized integration runs for each method.

    Methods are "subgroup", "korobov" (shifted lattices) and "mc"
    (i.i.d. uniform); ``runs`` must be >= 1. Each run r draws fresh
    seeds (shift for lattices, sample seed for MC) from one master
    generator, one fixed column per method, so the whole table is
    reproducible from ``seed`` and a method's rows do not depend on the
    other methods listed. Returns one row dict per (run, method) with
    the estimate, the closed-form reference, and the relative error. A
    reference that is not finite and nonzero raises ``DomainError``.
    """
    spec = TestIntegrand(d=d, b=b, c=c)
    exact = test_integral_exact(spec)
    _relative_error(exact, exact)  # check the reference before building any point set

    def score(ps: LatticePointSet) -> dict:
        est = qmc_estimate(ps, lambda X: test_integrand(X, spec))
        return {"estimate": est, "exact": exact, "rel_error": _relative_error(est, exact)}

    return _replicate(
        d, n, methods, score,
        columns=_SEED_COLUMNS, runs=runs, seed=seed, seed_source=seed, shifted=shifted,
    )


def run_boltzmann_benchmark(
    d: int,
    n: int,
    *,
    runs: int = 50,
    seed: int = 0,
    target: str = "partition",
    gt_samples: int = 10_000_000,
    methods: "tuple[str, ...] | list[str]" = ("subgroup", "mc"),
) -> tuple[list[dict], float]:
    """Partition-function (or marginal) estimation runs vs. a large-MC
    pseudo-ground-truth.

    The ground truth is computed once with ``gt_samples`` i.i.d. draws;
    every method row carries its relative error against it. Methods
    and seeding are as in ``run_integration_benchmark``. Returns
    (rows, ground_truth).
    """
    if target not in ("partition", "marginal"):
        raise DomainError(f"target must be 'partition' or 'marginal', got {target!r}")

    ss = np.random.SeedSequence(seed)
    s_model, s_obs, s_gt, s_gt2, s_runs = ss.spawn(5)
    model = random_boltzmann_model(d, s_model)

    ground_truth = Z = mc_partition(model, gt_samples, s_gt)
    if target == "marginal":
        v = np.random.default_rng(s_obs).random(d)
        ground_truth = mc_marginal(v, model, Z, gt_samples, s_gt2)

    def score(ps: LatticePointSet) -> dict:
        if target == "partition":
            est = estimate_partition(ps, model)
        else:
            est = estimate_marginal(v, ps, model, Z)
        return {"estimate": est, "exact": ground_truth, "rel_error": _relative_error(est, ground_truth)}

    rows = _replicate(
        d, n, methods, score,
        columns=_SEED_COLUMNS, runs=runs, seed=seed, seed_source=s_runs,
    )
    return rows, ground_truth
