"""Closed-form rank-1 lattices with provable toroidal separation.

The package builds quasi-Monte Carlo point sets from a single closed
form: for prime n with 2d | n - 1, placing the generating vector on a
multiplicative subgroup of the nonzero residues yields a lattice whose
pairwise toroidal distances collapse to (n-1)/(2d) distinct values with
known two-sided bounds -- no search required. Around that core live
distance diagnostics, randomized integration and kernel-approximation
benchmarks against Monte Carlo, a Boltzmann-machine inference test bed,
and low-coherence spherical frames driven by the same subgroup trick.
"""

from .exceptions import AdmissibilityError, DomainError, SizeLimitError
from .integration import (
    BoltzmannModel,
    TestIntegrand,
    boltzmann_energy,
    estimate_marginal,
    estimate_partition,
    mc_marginal,
    mc_partition,
    qmc_estimate,
    random_boltzmann_model,
    relative_error,
    run_boltzmann_benchmark,
    run_integration_benchmark,
    test_integral_exact,
    test_integrand,
)
from .kernels import (
    FeatureMatrix,
    GramErrors,
    KernelSpec,
    approx_gram,
    exact_gram,
    exact_kernel,
    feature_map,
    gram_errors,
    run_kernel_benchmark,
    synthetic_data,
)
from .lattice import (
    GeneratingVector,
    SearchResult,
    find_admissible_n,
    korobov_search,
    korobov_vector,
    subgroup_generating_vector,
)
from .metrics import (
    DistanceBounds,
    DistanceReport,
    OptimalDistances,
    brute_force_min_distance,
    lattice_min_distance,
    min_distance_bounds,
    optimal_distances,
    toroidal_distance,
)
from .numtheory import (
    factorize,
    is_prime,
    primitive_root,
)
from .pointset import (
    LatticePointSet,
    generate,
    load_csv,
    mc_points,
    random_shift,
    save_csv,
    shift_by,
)
from .sphere import (
    AsymptoticCoherenceBound,
    CoherenceReport,
    SphericalFrame,
    asymptotic_coherence_bound,
    mutual_coherence,
    sphere_frame,
    sphere_index_set,
)

__version__ = "0.1.0"

# Deprecated alias kept for existing callers; it is not part of the public
# surface. Write ``GeneratingVector(z, n)`` instead.
explicit_vector = GeneratingVector

__all__ = [
    "__version__",
    # exceptions
    "AdmissibilityError",
    "DomainError",
    "SizeLimitError",
    # number theory
    "is_prime",
    "factorize",
    "primitive_root",
    # lattice construction
    "GeneratingVector",
    "SearchResult",
    "subgroup_generating_vector",
    "korobov_vector",
    "korobov_search",
    "find_admissible_n",
    # metrics
    "DistanceReport",
    "DistanceBounds",
    "OptimalDistances",
    "toroidal_distance",
    "lattice_min_distance",
    "min_distance_bounds",
    "optimal_distances",
    "brute_force_min_distance",
    # point sets
    "LatticePointSet",
    "generate",
    "random_shift",
    "shift_by",
    "mc_points",
    "save_csv",
    "load_csv",
    # integration / Boltzmann
    "TestIntegrand",
    "BoltzmannModel",
    "test_integrand",
    "test_integral_exact",
    "qmc_estimate",
    "relative_error",
    "random_boltzmann_model",
    "boltzmann_energy",
    "estimate_partition",
    "estimate_marginal",
    "mc_partition",
    "mc_marginal",
    "run_integration_benchmark",
    "run_boltzmann_benchmark",
    # kernels
    "KernelSpec",
    "FeatureMatrix",
    "GramErrors",
    "exact_kernel",
    "exact_gram",
    "feature_map",
    "approx_gram",
    "gram_errors",
    "synthetic_data",
    "run_kernel_benchmark",
    # spherical frames
    "SphericalFrame",
    "CoherenceReport",
    "AsymptoticCoherenceBound",
    "sphere_index_set",
    "sphere_frame",
    "mutual_coherence",
    "asymptotic_coherence_bound",
]
