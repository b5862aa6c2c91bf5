"""The package namespace re-exports exactly the library modules' public names."""

import importlib

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
