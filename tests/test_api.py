"""The package surface: the namespace re-exports exactly the library
modules' public names, dropped names stay dropped, and importing it
leaves scipy unloaded."""

import dataclasses
import importlib
import subprocess
import sys

import lattice_forge

_LIBRARY_MODULES = (
    "exceptions", "numtheory", "lattice", "metrics", "pointset",
    "integration", "kernels", "sphere",
)


def test_package_all_is_union_of_module_all():
    union = {"__version__"}
    for name in _LIBRARY_MODULES:
        mod = importlib.import_module(f"lattice_forge.{name}")
        for attr in mod.__all__:
            assert getattr(lattice_forge, attr) is getattr(mod, attr), (name, attr)
        union |= set(mod.__all__)
    assert len(lattice_forge.__all__) == len(set(lattice_forge.__all__))
    assert set(lattice_forge.__all__) == union
    assert isinstance(lattice_forge.__version__, str)


_DROPPED = {
    "kernels": ("FeatureMatrix", "approx_gram", "exact_kernel"),
    "pointset": ("shift_by",),
    "integration": ("relative_error", "qmc_estimate"),
    "lattice": ("korobov_vector",),
}


def test_dropped_names_are_gone():
    # feature_map returns the feature array itself and random_shift does its
    # own fold; exact_kernel and relative_error live on as private helpers;
    # the integration benchmark averages test_integrand's batch itself; the
    # Korobov search builds its winner's vector in place
    for module, names in _DROPPED.items():
        mod = importlib.import_module(f"lattice_forge.{module}")
        for name in names:
            assert name not in lattice_forge.__all__ and not hasattr(lattice_forge, name)
            assert name not in mod.__all__ and not hasattr(mod, name), (module, name)
    assert len(lattice_forge.__all__) == 52


def test_results_hold_no_echo_fields():
    fields = {
        lattice_forge.SearchResult: {"vector", "score", "multiplier"},
        lattice_forge.DistanceBounds: {"l1_lower", "l1_upper", "l2_lower", "l2_upper"},
        lattice_forge.OptimalDistances: {"l1", "l2"},
    }
    for cls, names in fields.items():
        assert {f.name for f in dataclasses.fields(cls)} == names, cls


def test_scipy_is_loaded_only_for_features():
    # scipy.special costs about as much to import as the rest of the
    # package; only kernels.feature_map needs it
    code = (
        "import sys, lattice_forge, lattice_forge.cli\n"
        "assert 'scipy' not in sys.modules\n"
        "code = lattice_forge.cli.main(['construct', '--d', '50', '--n', '101', '--deterministic'])\n"
        "assert code == 0 and 'scipy' not in sys.modules\n"
        "from lattice_forge import kernels as ker, pointset as ps\n"
        "ker.feature_map([[1.0]], ps.mc_points(3, 1, seed=0), ker.KernelSpec())\n"
        "assert 'scipy' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
