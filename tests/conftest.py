"""Shared fixtures."""

import numpy as np
import pytest

from lattice_forge.lattice import korobov_search, subgroup_generating_vector
from lattice_forge.pointset import generate, mc_points, random_shift


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


@pytest.fixture
def reference_sets():
    """``reference_sets(d, n, method, runs, seed_source, shifted=True)``
    yields, in run order, the point sets the benchmark drivers' runs see,
    built whole by ``generate`` + ``random_shift`` or ``mc_points``.

    Seeds come from the drivers' (runs, 3) seed matrix, with the column
    order subgroup, korobov, mc.
    """

    def sets(d, n, method, runs, seed_source, shifted=True):
        seeds = np.random.default_rng(seed_source).integers(
            0, 2**63 - 1, size=(runs, 3), dtype=np.int64
        )
        col = [int(s) for s in seeds[:, ("subgroup", "korobov", "mc").index(method)]]
        if method != "mc":
            vec = (subgroup_generating_vector(d, n) if method == "subgroup"
                   else korobov_search(d, n, "l1").vector)
            base = generate(vec)
        for s in col:
            if method == "mc":
                yield mc_points(n, d, s).points
            else:
                yield random_shift(base, s).points if shifted else base.points

    return sets
