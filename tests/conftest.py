"""Shared fixtures."""

import numpy as np
import pytest


class _NoScan:
    """Stands in for numpy inside a module: any use means a scan started."""

    def __init__(self, allow=()):
        self._allow = allow

    def __getattr__(self, name):
        if name in self._allow:
            return getattr(np, name)
        raise AssertionError("the scan started")


@pytest.fixture
def no_numpy(monkeypatch):
    """``no_numpy("lattice_forge.metrics")`` makes that module's numpy fail.

    A size guard that must raise before allocating is then tested fast:
    without the guard the call fails at its first numpy use instead of
    allocating gigabytes, and an accepted size fails the same way.
    ``allow`` names numpy functions that stay usable, such as an
    ``asarray`` that only views its argument ahead of the guard.
    """

    def block(module, allow=()):
        monkeypatch.setattr(f"{module}.np", _NoScan(allow))

    return block
