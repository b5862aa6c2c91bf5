"""QMC integration test problems with closed-form references.

Two families:

* the separable exponential integrand f(x) = exp(c * sum_j x_j j^(-b))
  on [0, 1]^d, whose integral factorizes into a product of 1-d integrals
  with closed form (exp(c j^(-b)) - 1) / (c j^(-b));
* a fully-connected Boltzmann machine relaxed to the unit cube, whose
  partition function and visible-unit marginals are estimated by
  averaging exp(-energy) over a point set, with an i.i.d. Monte Carlo
  pseudo-ground-truth helper.

Integrands and energies take an (m, d) batch of points and return the
(m,) array of values; any other shape raises ``DomainError``.
``run_integration_benchmark`` / ``run_boltzmann_benchmark`` drive the
repeated-shift experiments that the CLI serializes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .exceptions import DomainError
from .pointset import LatticePointSet, _replicate

__all__ = [
    "TestIntegrand",
    "BoltzmannModel",
    "test_integrand",
    "test_integral_exact",
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


def _batch(x: np.ndarray, d: int) -> np.ndarray:
    """``x`` as a float64 (m, d) batch; any other shape is a DomainError."""
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != d:
        raise DomainError(f"points must be an (m, {d}) batch, got shape {X.shape}")
    return X


def test_integrand(x: np.ndarray, spec: TestIntegrand) -> np.ndarray:
    """Evaluate the integrand on an (m, d) batch.

    Examples
    --------
    >>> float(test_integrand(np.array([[1.0]]), TestIntegrand(d=1))[0]) == math.e
    True
    """
    return np.exp(_batch(x, spec.d) @ spec.weights())


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


def _relative_error(estimate: float, exact: float) -> float:
    """|estimate - exact| / |exact|; the reference must be finite and
    nonzero, the estimate finite."""
    if exact == 0.0 or not math.isfinite(exact):
        raise DomainError(f"reference value must be finite and nonzero, got {exact}")
    if not math.isfinite(estimate):
        raise DomainError(f"estimate must be finite, got {estimate}")
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

    ``W_v``, ``W_h``, ``b_v`` parameterize a visible/hidden split used by
    ``estimate_marginal``: for an observation v and hidden state h,

        f(v, h) = -(v' W_v v + 2 v' W_h h + b_v' v) / d,

    and the unnormalized marginal of v is the integral over h of
    exp(-f(v, h)) exp(-E(h)). All five parameters are required, finite,
    stored as float64, and of shape (d, d) (matrices) or (d,) (vectors).
    """

    W: np.ndarray
    b: np.ndarray
    W_v: np.ndarray
    W_h: np.ndarray
    b_v: np.ndarray

    def __post_init__(self) -> None:
        W = np.asarray(self.W, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise DomainError(f"W must be square, got shape {W.shape}")
        for f in fields(self):
            a = np.asarray(getattr(self, f.name), dtype=np.float64)
            shape = W.shape if f.name.startswith("W") else W.shape[:1]
            if a.shape != shape:
                raise DomainError(f"{f.name} must have shape {shape}, got {a.shape}")
            object.__setattr__(self, f.name, a)
        if not all(np.isfinite(getattr(self, f.name)).all() for f in fields(self)):
            raise DomainError("model parameters must be finite")

    @property
    def d(self) -> int:
        return self.W.shape[0]


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


def boltzmann_energy(x: np.ndarray, model: BoltzmannModel) -> np.ndarray:
    """E(x) = -(x' W x + b' x) / d on an (m, d) batch."""
    X = _batch(x, model.d)
    quad = np.einsum("ij,jk,ik->i", X, model.W, X)
    lin = X @ model.b
    return -(quad + lin) / model.d


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
    if not (Z > 0.0 and math.isfinite(Z)):
        raise DomainError(f"partition function must be positive and finite, got {Z}")
    va = np.asarray(v, dtype=np.float64)
    if va.shape != (model.d,):
        raise DomainError(f"observation must have shape ({model.d},), got {va.shape}")
    H = points.points
    e_vals = boltzmann_energy(H, model)
    const = -(va @ model.W_v @ va + model.b_v @ va) / model.d
    cross = -(2.0 * (va @ model.W_h) @ H.T) / model.d
    f_vals = const + cross
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
    reference that is not finite and nonzero, or an estimate that
    overflows, raises ``DomainError``.
    """
    spec = TestIntegrand(d=d, b=b, c=c)
    exact = test_integral_exact(spec)
    _relative_error(exact, exact)  # check the reference before building any point set

    def score(ps: LatticePointSet) -> dict:
        # exp may overflow where the reference does not; _relative_error refuses it
        with np.errstate(over="ignore"):
            est = float(test_integrand(ps.points, spec).mean())
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
