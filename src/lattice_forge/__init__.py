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

from . import integration, kernels, lattice, metrics, numtheory, pointset, sphere
from .exceptions import AdmissibilityError, DomainError, SizeLimitError
from .integration import *
from .kernels import *
from .lattice import *
from .metrics import *
from .numtheory import *
from .pointset import *
from .sphere import *

__version__ = "0.1.0"

# Deprecated alias kept for existing callers; it is not part of the public
# surface. Write ``GeneratingVector(z, n)`` instead.
explicit_vector = GeneratingVector

# Each module's ``__all__`` is the one list of its public names.
__all__ = [
    "__version__",
    "AdmissibilityError",
    "DomainError",
    "SizeLimitError",
    *numtheory.__all__,
    *lattice.__all__,
    *metrics.__all__,
    *pointset.__all__,
    *integration.__all__,
    *kernels.__all__,
    *sphere.__all__,
]
