"""The package surface: the namespace re-exports exactly the library
modules' public names, dropped names stay dropped, and no subcommand
loads scipy."""

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
    "sphere": ("sphere_index_set",),
}


def test_dropped_names_are_gone():
    # feature_map returns the feature array itself and random_shift does its
    # own fold; exact_kernel and relative_error live on as private helpers;
    # the integration benchmark averages test_integrand's batch itself; the
    # Korobov search builds its winner's vector in place; a sphere frame
    # lists its own index set
    for module, names in _DROPPED.items():
        mod = importlib.import_module(f"lattice_forge.{module}")
        for name in names:
            assert name not in lattice_forge.__all__ and not hasattr(lattice_forge, name)
            assert name not in mod.__all__ and not hasattr(mod, name), (module, name)
    assert len(lattice_forge.__all__) == 51


def test_results_hold_no_echo_fields():
    fields = {
        lattice_forge.SearchResult: {"vector", "score", "multiplier"},
        lattice_forge.DistanceBounds: {"l1_lower", "l1_upper", "l2_lower", "l2_upper"},
        lattice_forge.OptimalDistances: {"l1", "l2"},
    }
    for cls, names in fields.items():
        assert {f.name for f in dataclasses.fields(cls)} == names, cls


def test_no_subcommand_loads_scipy():
    # scipy.special costs about as much to import as the rest of the
    # package; the normal quantile is the package's own port of it, so no
    # subcommand imports scipy, and kernel runs with scipy unimportable
    argvs = [
        "construct --d 50 --n 101", "admissible --d 3 --count 2", "integrate --d 4 --n 41 --runs 2",
        "boltzmann --d 2 --n 41 --runs 2 --gt-samples 2000", "kernel --samples 30 --data-dim 4 --n 41 --runs 2",
        "sphere --d 8 --n 13", "bench-timing --d 4 --n 41",
    ]
    code = (
        "import sys, lattice_forge.cli\n"
        "assert 'scipy' not in sys.modules\n"
        f"for argv in {argvs!r}:\n"
        "    assert lattice_forge.cli.main([*argv.split(), '--deterministic']) == 0, argv\n"
        "    assert 'scipy' not in sys.modules, argv\n"
    )
    blocked = (
        "import sys; sys.modules['scipy'] = None\n"
        "from lattice_forge.cli import main\n"
        "raise SystemExit(main(['kernel', '--samples', '30', '--data-dim', '4', '--n', '41', '--runs', '2']))\n"
    )
    for child in (code, blocked):
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
