"""Shared fixtures."""

import numpy as np
import pytest

from lattice_forge import exceptions, pointset
from lattice_forge.exceptions import SizeLimitError
from lattice_forge.lattice import korobov_search, subgroup_generating_vector
from lattice_forge.numtheory import is_prime
from lattice_forge.pointset import LatticePointSet, mc_points, random_shift


def _scan_started(*args, **kwargs):
    """Stands in for a call's first work after its size guards."""
    raise AssertionError("the scan started")


class _NoScan:
    """Stands in for numpy inside a module: any use means a scan started."""

    def __init__(self, allow=()):
        self._allow = allow

    def __getattr__(self, name):
        if name in self._allow:
            return getattr(np, name)
        _scan_started()


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
def first_work(monkeypatch):
    """``first_work("lattice_forge.numtheory.primitive_root")`` makes that
    function raise ``AssertionError("the scan started")``, for a call whose
    first work after its guards is not a numpy use."""

    def stub(target):
        monkeypatch.setattr(target, _scan_started)

    return stub


@pytest.fixture
def guard_threshold(monkeypatch):
    """``guard_threshold(call, need, line)`` tests a size guard on both sides.

    With ``need - 1`` bytes of physical memory ``call()`` must raise the
    ``SizeLimitError`` that ``line`` matches; with ``need`` bytes it must
    get past the guard to its first work, which ``no_numpy`` or
    ``first_work`` makes raise ``AssertionError("the scan started")``.
    ``past`` = (exception, match) names what it reaches there instead,
    such as a later guard; with ``past=None`` the call must return there,
    and ``check`` returns what it returned. Physical memory stays stubbed
    at ``need``.
    """

    def check(call, need, line, past=(AssertionError, "scan started")):
        monkeypatch.setattr(exceptions, "_physical_memory", lambda: need - 1)
        with pytest.raises(SizeLimitError, match=line):
            call()
        monkeypatch.setattr(exceptions, "_physical_memory", lambda: need)
        if past is None:
            return call()
        with pytest.raises(past[0], match=past[1]):
            call()

    return check


@pytest.fixture
def prime_at_most():
    """``prime_at_most(n)`` is the largest prime <= n."""

    def below(n):
        while not is_prime(n):
            n -= 1
        return n

    return below


@pytest.fixture
def reference_sets():
    """``reference_sets(d, n, method, runs, seed_source, shifted=True)``
    yields, in run order, the point sets the benchmark drivers' runs see,
    built whole by ``random_shift`` or ``mc_points``. A lattice's base is
    the one-shot product formula (i * z_j mod n) / n on int64 products, not
    ``generate``, so it shares no residue arithmetic with the stream.

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
            i = np.arange(n, dtype=np.int64)[:, None]
            base = LatticePointSet(i * vec.as_array() % n / n)
        for s in col:
            if method == "mc":
                yield mc_points(n, d, s).points
            else:
                yield random_shift(base, s).points if shifted else base.points

    return sets


@pytest.fixture
def stream_order():
    """``stream_order(lengths, d, n, methods, runs, shifted=True)`` maps each
    method to its runs' ``values`` calls in row order: a list per run of
    indices into ``lengths``, the row counts of ``_replicate``'s calls.

    It decodes the documented call order: method by method, then chunk by
    chunk (min(runs, max(d, ``pointset._CHUNK_VALUES`` // n)) runs each),
    then block by block, then run by run inside a chunk. An unshifted
    lattice is one set, passed once and repeated for every run.
    """

    def order(lengths, d, n, methods, runs, shifted=True):
        calls = iter(enumerate(lengths))
        size = min(runs, max(d, pointset._CHUNK_VALUES // n))
        out = {}
        for method in methods:
            sets = runs if shifted or method == "mc" else 1
            out[method] = []
            for first in range(0, sets, size):
                chunk = [[] for _ in range(min(size, sets - first))]
                rows = 0
                while rows < n:
                    block = [next(calls) for _ in chunk]
                    assert len({h for _, h in block}) == 1, (method, first, rows)
                    for run, (k, _) in zip(chunk, block):
                        run.append(k)
                    rows += block[0][1]
                assert rows == n, (method, first)
                out[method] += chunk
            out[method] *= runs // sets
        assert next(calls, None) is None, "calls left over"
        return out

    return order
