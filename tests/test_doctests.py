"""Run the ``>>>`` examples in every ``lattice_forge`` module's docstrings."""

import doctest
import importlib
import pkgutil

import pytest

import lattice_forge

_MODULES = ["lattice_forge"] + [
    f"lattice_forge.{info.name}" for info in pkgutil.iter_modules(lattice_forge.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0

