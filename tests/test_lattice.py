"""Generating-vector construction and search tests.

The Korobov search is validated against an independent per-multiplier
rescan with ``lattice_min_distance`` (a hypothesis property over small
primes, both norms and every d up to (n-1)/2), its early abort and its
one-multiplier-per-orbit ranking against the argmax of every
multiplier's exact key (``_korobov_keys``, kept here as the exhaustive
oracle), and the subgroup
construction's group structure (closure of {z, -z} under multiplication
mod n) is checked for every admissible pair with n <= 500.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lattice_forge import exceptions
from lattice_forge.exceptions import AdmissibilityError, DomainError, SizeLimitError
from lattice_forge.lattice import (
    _BOUND_K,
    GeneratingVector,
    _exponent_tables,
    _korobov_bounds,
    _korobov_key,
    _weight_table,
    find_admissible_n,
    korobov_search,
    subgroup_generating_vector,
)
from lattice_forge.metrics import lattice_min_distance
from lattice_forge.numtheory import is_prime, primitive_root


def _admissible_pairs(n_max):
    """All (d, n) with n prime <= n_max and 2d | n-1."""
    pairs = []
    for n in range(3, n_max + 1):
        if not is_prime(n):
            continue
        half = (n - 1) // 2
        for d in range(1, half + 1):
            if half % d == 0:
                pairs.append((d, n))
    return pairs


# ---------------------------------------------------------------------------
# subgroup construction
# ---------------------------------------------------------------------------


def test_subgroup_examples():
    assert subgroup_generating_vector(2, 5).z == (1, 2)
    assert subgroup_generating_vector(3, 13).z == (1, 4, 3)
    assert subgroup_generating_vector(1, 3).z == (1,)


def test_subgroup_method_tag_and_shape():
    vec = subgroup_generating_vector(50, 101)
    assert vec.method == "subgroup"
    assert vec.d == 50
    assert vec.n == 101
    assert vec.z[0] == 1  # g^0


def test_subgroup_admissibility_error_message():
    with pytest.raises(AdmissibilityError, match="2d does not divide n-1"):
        subgroup_generating_vector(3, 12)
    with pytest.raises(AdmissibilityError):
        subgroup_generating_vector(2, 7)  # 4 does not divide 6


def test_subgroup_rejects_composite_n():
    # 9 - 1 = 8 is divisible by 2d = 4, so this reaches the prime check
    with pytest.raises(DomainError):
        subgroup_generating_vector(2, 9)


def test_subgroup_rejects_bad_d():
    with pytest.raises(DomainError):
        subgroup_generating_vector(0, 5)


def test_subgroup_closure_and_nondegeneracy_all_admissible_to_500():
    for d, n in _admissible_pairs(500):
        vec = subgroup_generating_vector(d, n)
        assert len(set(vec.z)) == d, (d, n)  # no repeated component
        # {z, -z} is a multiplicative subgroup of order 2d
        h = set(vec.z) | {n - c for c in vec.z}
        assert len(h) == 2 * d, (d, n)
        for a in vec.z:
            for b in vec.z:
                assert (a * b) % n in h, (d, n, a, b)


def test_subgroup_at_64_bits_is_an_order_2d_subgroup():
    # n - 1 = 2**2 * 5**2 * q * r with q ~ 2**28, r ~ 2**29: trial division
    # runs to q (seconds), Pollard-Brent rho splits q * r in milliseconds
    q, r = 268435399, 536870401
    n = 100 * q * r + 1
    assert is_prime(q) and is_prime(r) and is_prime(n) and n < 2**64
    vec = subgroup_generating_vector(50, n)
    h = pow(primitive_root(n), (n - 1) // 100, n)
    assert vec.z == tuple(pow(h, j, n) for j in range(50))
    assert all(pow(c, 100, n) == 1 for c in vec.z)
    assert len(set(vec.z) | {n - c for c in vec.z}) == 100


def test_subgroup_deterministic():
    a = subgroup_generating_vector(8, 97)
    b = subgroup_generating_vector(8, 97)
    assert a == b


# ---------------------------------------------------------------------------
# Korobov search
# ---------------------------------------------------------------------------


def _korobov(a, d, n):
    """The Korobov vector [1, a, ..., a^(d-1)] mod n, built independently."""
    return GeneratingVector(tuple(pow(a, j, n) for j in range(d)), n, "korobov")


def test_korobov_search_example():
    res = korobov_search(2, 5, "l1")
    assert res.multiplier == 2
    assert res.score == pytest.approx(0.6, abs=1e-15)
    assert res.vector.z == (1, 2)
    assert res.vector.method == "korobov"


_SMALL_PRIMES = [n for n in range(3, 200) if is_prime(n)]


def _korobov_keys(d, n, w):
    """Exact key of every multiplier a, indexed by a (entry 0 is -1)."""
    powers, W, steps = _exponent_tables(n, w)
    by_multiplier = np.full(n, -1, dtype=np.int64)
    by_multiplier[powers] = [_korobov_key(v, d, W, steps) for v in range(n - 1)]
    return by_multiplier


def _orbit(v, N):
    """Discrete logs of a = g^v, n - a, 1/a and n - 1/a, with N = n - 1."""
    h = N // 2
    return frozenset({v % N, (v + h) % N, -v % N, (h - v) % N})


@st.composite
def _search_cases(draw):
    """(d, n, norm) with n a prime below 200 and 1 <= d <= (n-1)/2.

    Most d exceed the cycle lengths 1 and 2 of the multipliers a = 1 and
    a = n-1, so whole turns plus a partial window are exercised.
    """
    n = draw(st.sampled_from(_SMALL_PRIMES))
    d = draw(st.integers(1, (n - 1) // 2))
    return d, n, draw(st.sampled_from(["l1", "l2"]))


@given(_search_cases())
@settings(max_examples=100, deadline=None)
@example((2, 13, "l1"))
@example((3, 13, "l2"))
@example((2, 29, "l1"))
@example((5, 31, "l2"))
@example((1, 3, "l1"))
@example((99, 199, "l2"))
def test_korobov_search_exhaustive_oracle(case):
    # independent rescan: evaluate every multiplier with the census path
    d, n, norm = case
    res = korobov_search(d, n, norm)
    keys = {a: lattice_min_distance(_korobov(a, d, n), norm).min_key for a in range(1, n)}
    # every multiplier's key, not only the winner's
    fast = _korobov_keys(d, n, _weight_table(n, 1 if norm == "l1" else 2))
    assert fast[1:].tolist() == [keys[a] for a in range(1, n)]
    best = max(keys, key=lambda a: (keys[a], -a))
    oracle = lattice_min_distance(_korobov(best, d, n), norm)
    assert res.multiplier == best
    assert res.score == oracle.min_distance
    assert res.vector == _korobov(best, d, n)


@functools.lru_cache(maxsize=None)
def _exhaustive_winner(d, n, norm):
    """Smallest multiplier with the largest exact key, and its score."""
    keys = _korobov_keys(d, n, _weight_table(n, 1 if norm == "l1" else 2))
    best = int(np.argmax(keys))  # first maximum: the smallest multiplier
    key = int(keys[best])
    return best, key / n if norm == "l1" else float(np.sqrt(key)) / n


@pytest.mark.parametrize("bound_k", [_BOUND_K, 4])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_korobov_search_early_abort_oracle(monkeypatch, norm, bound_k):
    # the default K bounds only the (n, d) with 64 d <= n - 1; K = 4 puts
    # most small cases under the bound too
    monkeypatch.setattr("lattice_forge.lattice._BOUND_K", bound_k)
    for n in _SMALL_PRIMES + [n for n in range(200, 300) if is_prime(n)]:
        for d in sorted({1, 2, 3, 4, (n - 1) // 8, (n - 1) // 2}):
            if d < 1 or n < 2 * d + 1:
                continue
            res = korobov_search(d, n, norm)
            assert (res.multiplier, res.score) == _exhaustive_winner(d, n, norm)


@pytest.mark.parametrize("d, n, bounded", [(4, 257, True), (5, 257, False), (64, 4099, True), (65, 4099, False)])
def test_korobov_bound_cost_cap(d, n, bounded):
    # the bound is formed iff _BOUND_K * d <= n - 1, and is then an upper
    # bound on every multiplier's exact key
    assert (_BOUND_K * d <= n - 1) == bounded
    w = _weight_table(n, 2)
    powers, W, steps = _exponent_tables(n, w)
    # the discrete logs of k = 1.._BOUND_K, in the order of k
    shifts = [int(np.flatnonzero(powers == k)[0]) for k in range(1, _BOUND_K + 1)]
    bound = _korobov_bounds(d, W, shifts)
    if bounded:
        keys = _korobov_keys(d, n, w)[powers]
        assert (bound >= keys).all() and (bound < 2**63 - 1).all()
    else:
        assert (bound == 2**63 - 1).all()
    res = korobov_search(d, n, "l2")
    assert (res.multiplier, res.score) == _exhaustive_winner(d, n, "l2")


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_korobov_key_is_constant_on_orbits(norm):
    # a, n - a, 1/a and n - 1/a share one exact key, so the search may rank
    # one multiplier per orbit; checked in multiplier form, without logs
    for n in [n for n in range(3, 400) if is_prime(n)] + [1009, 2003]:
        a = np.arange(1, n)
        inv = np.array([pow(int(x), -1, n) for x in a])
        w = _weight_table(n, 1 if norm == "l1" else 2)
        for d in (1, 2, 3, 4, 7, 13):
            if n < 2 * d + 1:
                continue
            keys = _korobov_keys(d, n, w)
            for partner in (n - a, inv, n - inv):
                assert (keys[partner] == keys[a]).all(), (d, n, norm)


def _record_keys(monkeypatch):
    """List the exponent v of every multiplier the search scores exactly."""
    scored = []

    def recording_key(v, *args):
        scored.append(v)
        return _korobov_key(v, *args)

    monkeypatch.setattr("lattice_forge.lattice._korobov_key", recording_key)
    return scored


@pytest.mark.parametrize("bound_k", [_BOUND_K, 1])
def test_korobov_search_small_moduli(monkeypatch, bound_k):
    # at n = 3, 5 and 7 most orbits have fewer than four members, and
    # v = 0 (a = 1) shares its orbit with v = N/2 (a = n - 1) at every n
    monkeypatch.setattr("lattice_forge.lattice._BOUND_K", bound_k)
    scored = _record_keys(monkeypatch)
    orbits = {3: {(0, 1)}, 5: {(0, 2), (1, 3)}, 7: {(0, 3), (1, 2, 4, 5)}}
    for n, expected in orbits.items():
        N = n - 1
        assert {tuple(sorted(_orbit(v, N))) for v in range(N)} == expected
        for d in range(1, (n - 1) // 2 + 1):
            for norm in ("l1", "l2"):
                scored.clear()
                res = korobov_search(d, n, norm)
                assert (res.multiplier, res.score) == _exhaustive_winner(d, n, norm)
                # no orbit is scored twice; without the bound every one is
                hit = [_orbit(v, N) for v in scored]
                assert len(set(hit)) == len(hit)
                if bound_k * d > N:
                    assert len(hit) == len(expected)


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_korobov_search_stops_at_exact_ties(monkeypatch, norm):
    # at d = 1 every multiplier gives the same lattice, so every orbit's bound
    # ties the first orbit's key; a = 1 comes first and wins every tie, so
    # one exact key settles the search
    scored = _record_keys(monkeypatch)
    for n in (67, 101, 1009, 10007):
        scored.clear()
        res = korobov_search(1, n, norm)
        assert len(scored) == 1, (n, len(scored))
        assert (res.multiplier, res.score) == _exhaustive_winner(1, n, norm)


def test_korobov_search_validation():
    with pytest.raises(DomainError):
        korobov_search(2, 8, "l1")
    with pytest.raises(AdmissibilityError):
        korobov_search(3, 5, "l1")  # n < 2d + 1
    with pytest.raises(DomainError):
        korobov_search(2, 5, "l3")


def test_korobov_search_refuses_int64_overflow_before_building_tables(
    no_numpy, first_work, prime_at_most, monkeypatch
):
    # the bound (n-1) * ((n-1)//2)**2 on l2 prefix sums passes 2**63 - 1 at
    # n = 3329023, a prime; (n-1)**2 on index products at n = 3037000501.
    # Physical memory is stubbed high so that the byte guard, which would
    # refuse n ~ 3e9 on a smaller machine, lets the sizes below by.
    no_numpy("lattice_forge.lattice")
    first_work("lattice_forge.lattice._powers")
    monkeypatch.setattr(exceptions, "_physical_memory", lambda: 2**80)
    assert is_prime(3329023) and is_prime(3037000507)
    for n, norm in ((3329023, "l2"), (3037000507, "l1"), (3037000507, "l2")):
        with pytest.raises(SizeLimitError, match="overflows int64"):
            korobov_search(1, n, norm)
    # just below each threshold the guard lets the search start
    for n, norm in (
        (prime_at_most(3329022), "l2"),
        (3329023, "l1"),
        (prime_at_most(3037000500), "l1"),
    ):
        with pytest.raises(AssertionError, match="scan started"):
            korobov_search(1, n, norm)


def test_korobov_search_memory_guard_threshold(no_numpy, first_work, guard_threshold):
    # 48 bytes per residue plus 48 MiB of block scratch while the bound is
    # formed, or 66 bytes per residue while a key is scored: the first is
    # more at n = 10**6 + 3, the second at n = 10**9 + 9, where the int64
    # guard passes and the byte guard refuses 61.5 GiB
    no_numpy("lattice_forge.lattice")
    first_work("lattice_forge.lattice._powers")
    cases = ((1000003, 48 * 1000003 + 24 * 2**21, "0.1"), (1000000009, 66 * 1000000009, "61.5"))
    for n, need, gib in cases:
        guard_threshold(lambda: korobov_search(2, n, "l1"), need,
                        f"korobov search for d=2, n={n} needs {gib} GiB")


# ---------------------------------------------------------------------------
# admissible moduli
# ---------------------------------------------------------------------------


def test_find_admissible_examples():
    assert find_admissible_n(50, 3) == [101, 401, 601]
    assert find_admissible_n(100, 1) == [401]
    assert find_admissible_n(500, 1) == [3001]
    assert find_admissible_n(1, 4) == [3, 5, 7, 11]


def test_find_admissible_respects_start():
    assert find_admissible_n(50, 2, start=102) == [401, 601]
    assert find_admissible_n(50, 1, start=101) == [101]


def test_find_admissible_returns_certified_primes():
    for m in find_admissible_n(7, 5):
        assert type(m) is int and is_prime(m)
        assert (m - 1) % 14 == 0
        assert m >= 15


def test_find_admissible_validation():
    with pytest.raises(DomainError):
        find_admissible_n(0, 1)
    with pytest.raises(DomainError):
        find_admissible_n(3, 0)


def test_find_admissible_memory_guard_threshold(first_work, guard_threshold):
    # 50 bytes per listed modulus, checked before the first primality test:
    # 10**11 moduli would need 4656.6 GiB
    first_work("lattice_forge.lattice.is_prime")
    for count, gib in ((10**11, "4656.6"), (1, "0.0")):
        guard_threshold(lambda: find_admissible_n(1, count, start=2**62), 50 * count,
                        f"^admissible list of {count} moduli for d=1 needs {gib} GiB")


def test_find_admissible_list_stays_within_its_guard(monkeypatch):
    # the guard's 50 bytes per modulus hold at the largest ints the list
    # takes (36 bytes each, moduli near 2**62), measured as the list grows;
    # every candidate counts as prime, so only the list is traced
    monkeypatch.setattr("lattice_forge.lattice.is_prime", lambda n: True)
    for count in (100, 20000):
        tracemalloc.start()
        try:
            find_admissible_n(1, count, start=2**62)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 44 * count < peak <= 50 * count


# ---------------------------------------------------------------------------
# GeneratingVector plumbing
# ---------------------------------------------------------------------------


def test_explicit_vector_and_validation():
    vec = GeneratingVector([1, 3], 7)
    assert vec.method == "explicit"
    assert vec.z == (1, 3)
    assert vec.as_array().dtype == np.int64
    with pytest.raises(DomainError):
        GeneratingVector([0, 3], 7)  # component out of range
    with pytest.raises(DomainError):
        GeneratingVector([1, 3], 8)  # composite n
    with pytest.raises(DomainError):
        GeneratingVector([], 7)


def test_generating_vector_is_hashable_value_object():
    a = GeneratingVector(z=(1, 2), n=5, method="explicit")
    b = GeneratingVector(z=(1, 2), n=5, method="explicit")
    assert a == b
    assert hash(a) == hash(b)
