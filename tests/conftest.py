"""Shared fixtures."""

import pytest


class _NoScan:
    """Stands in for numpy inside a module: any use means a scan started."""

    def __getattr__(self, name):
        raise AssertionError("the scan started")


@pytest.fixture
def no_numpy(monkeypatch):
    """``no_numpy("lattice_forge.metrics")`` makes that module's numpy fail.

    A size guard that must raise before allocating is then tested fast:
    without the guard the call fails at its first numpy use instead of
    allocating gigabytes, and an accepted size fails the same way.
    """

    def block(module):
        monkeypatch.setattr(f"{module}.np", _NoScan())

    return block
