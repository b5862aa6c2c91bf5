"""Primality, factorization, and primitive-root tests.

The primitive-root checks are oracle-based: for every prime up to 10^4
the returned generator's multiplicative order is recomputed by direct
cycle enumeration, independently of the fast exponentiation path.
``factorize`` (trial division plus Pollard-Brent rho) is checked against
plain trial division, kept here as the oracle, on hypothesis draws below
2**40, and on hard 64-bit cases against factorizations known by
construction.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lattice_forge.exceptions import DomainError, SizeLimitError
from lattice_forge.lattice import (
    GeneratingVector,
    korobov_search,
    subgroup_generating_vector,
)
from lattice_forge.metrics import min_distance_bounds
from lattice_forge.numtheory import factorize, is_prime, primitive_root
from lattice_forge.sphere import SphericalFrame


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


# ---------------------------------------------------------------------------
# is_prime
# ---------------------------------------------------------------------------


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(786433)  # 12 * 65536 + 1


def test_is_prime_against_sieve():
    primes = set(_sieve(20_000))
    for n in range(20_001):
        assert is_prime(n) == (n in primes), n


def test_is_prime_large_semiprime():
    # 1000003 * 1000033 has no small factors; catches weak witness sets
    assert is_prime(1_000_003)
    assert is_prime(1_000_033)
    assert not is_prime(1_000_003 * 1_000_033)


def test_is_prime_rejects_out_of_range():
    with pytest.raises(DomainError):
        is_prime(-1)
    with pytest.raises(DomainError):
        is_prime(2**64)


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------


def _trial_division(n):
    """Oracle: factor n >= 2 by trial division (2, 3, then 6k +/- 1)."""
    factors = []
    for p in (2, 3):
        if n % p == 0:
            m = 0
            while n % p == 0:
                n //= p
                m += 1
            factors.append((p, m))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                m = 0
                while n % p == 0:
                    n //= p
                    m += 1
                factors.append((p, m))
        f += 6
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def test_factorize_examples():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(100) == ((2, 2), (5, 2))
    assert factorize(3000) == ((2, 3), (3, 1), (5, 3))
    assert factorize(13) == ((13, 1),)


def test_factorize_roundtrip_full_range():
    # recombination is the identity on all of [2, 1e5], and trial division agrees
    for n in range(2, 100_001):
        f = factorize(n)
        assert math.prod(p**m for p, m in f) == n
        assert f == _trial_division(n), n


def test_factorize_factors_are_prime_and_sorted():
    for n in (2, 97, 1024, 30030, 99991, 65536, 2 * 3 * 5 * 7 * 11 * 13):
        f = factorize(n)
        primes = [p for p, _ in f]
        assert primes == sorted(primes)
        assert all(is_prime(p) for p in primes)
        assert all(m >= 1 for _, m in f)


def test_factorize_rejects_small():
    with pytest.raises(DomainError):
        factorize(1)
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_rejects_above_64_bits():
    # the range is_prime certifies; factorize(2**64 - 1) is a hard case below
    with pytest.raises(DomainError, match="2\\*\\*64"):
        factorize(2**64)


@given(st.integers(min_value=2, max_value=2**40 - 1))
@settings(max_examples=300, deadline=None)
@example(997 * 997)  # the largest trial prime, squared
@example(1009**2)  # the smallest cofactor rho has to split
@example(1009 * 1013)
@example(2**40 - 87)  # the largest prime below 2**40
def test_factorize_matches_trial_division(n):
    f = factorize(n)
    assert f == _trial_division(n)
    primes = [p for p, _ in f]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) for p in primes)
    assert math.prod(p**m for p, m in f) == n


# the prime 2**31 - 1 and the largest prime r < 2**31 - 1 with 2*q*r + 1 prime
_Q31, _R31 = 2**31 - 1, 2147482763


@pytest.mark.parametrize(
    "n, factors",
    [
        (2 * _Q31 * _R31, ((2, 1), (_R31, 1), (_Q31, 1))),
        (4294967291**2, ((4294967291, 2),)),  # the largest prime below 2**32
        (2**63, ((2, 63),)),
        (
            2**64 - 1,
            tuple((p, 1) for p in (3, 5, 17, 257, 641, 65537, 6700417)),
        ),
        (561, ((3, 1), (11, 1), (17, 1))),  # Carmichael numbers
        (41041, ((7, 1), (11, 1), (13, 1), (41, 1))),
    ],
)
def test_factorize_hard_cases(n, factors):
    assert all(is_prime(p) for p, _ in factors)
    assert math.prod(p**m for p, m in factors) == n
    assert factorize(n) == factors


def test_factorize_returns_plain_int_pairs():
    f = factorize(3000)
    assert f == ((2, 3), (3, 1), (5, 3))
    assert type(f) is tuple
    assert all(type(pair) is tuple and all(type(x) is int for x in pair) for pair in f)


# ---------------------------------------------------------------------------
# primitive_root
# ---------------------------------------------------------------------------


def test_primitive_root_examples():
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(13) == 2
    assert primitive_root(2) == 1
    assert primitive_root(3) == 2


def test_primitive_root_rejects_composite():
    with pytest.raises(DomainError):
        primitive_root(12)
    with pytest.raises(DomainError):
        primitive_root(1)


def test_primitive_root_order_oracle_all_primes_to_1e4():
    # independent oracle: walk the cycle g, g^2, ... and count its length
    for p in _sieve(10_000):
        if p == 2:
            continue
        g = primitive_root(p)
        x = g
        order = 1
        while x != 1:
            x = (x * g) % p
            order += 1
        assert order == p - 1, (p, g)


def test_primitive_root_halfway_power_is_minus_one():
    for p in (5, 13, 101, 401, 601, 3001):
        g = primitive_root(p)
        assert pow(g, (p - 1) // 2, p) == p - 1


def test_primitive_root_at_64_bits():
    # p - 1 = 2 * q * r with q, r ~ 2**31, so trial division would need
    # minutes; the check below uses the known factorization, not factorize
    p = 2 * _Q31 * _R31 + 1
    assert is_prime(p) and p.bit_length() == 63
    cofactors = [(p - 1) // q for q in (2, _R31, _Q31)]
    g = primitive_root(p)
    assert all(pow(g, e, p) != 1 for e in cofactors)
    for h in range(2, g):
        assert any(pow(h, e, p) == 1 for e in cofactors), h


def test_primitive_root_is_smallest():
    # re-derive minimality by brute force on a few primes
    for p in (5, 7, 11, 13, 101):
        g = primitive_root(p)
        for cand in range(2, g):
            order = 1
            x = cand
            while x != 1:
                x = (x * cand) % p
                order += 1
            assert order < p - 1, (p, cand)


# ---------------------------------------------------------------------------
# prime moduli and subgroup lists
# ---------------------------------------------------------------------------

_TAKES_A_MODULUS = {
    "GeneratingVector": lambda n: GeneratingVector((1,), n),
    "subgroup_generating_vector": lambda n: subgroup_generating_vector(1, n),
    "korobov_search": lambda n: korobov_search(1, n),
    "min_distance_bounds": lambda n: min_distance_bounds(1, n),
    "SphericalFrame": lambda n: SphericalFrame(1, n),
}


@pytest.mark.parametrize("n", [-5, 0, 1, 9])
@pytest.mark.parametrize("call", _TAKES_A_MODULUS.values(), ids=_TAKES_A_MODULUS.keys())
def test_every_modulus_check_refuses_with_one_message(call, n):
    with pytest.raises(DomainError) as exc:
        call(n)
    assert str(exc.value) == f"n must be prime, got {n}"


def test_subgroup_memory_guard_threshold(first_work, guard_threshold):
    # each listed power of an order-2*10**9 subgroup's generator mod
    # 6000000001 holds 16 bytes of pointers and a 32-byte int: the vector
    # lists d = 10**9 of them (48 GB), the index set all 2*10**9 (96 GB).
    # primitive_root is the vector's first work after the guard, so it stands
    # in for the list being built; a frame meets its int64 bound there.
    first_work("lattice_forge.numtheory.primitive_root")
    n, order = 6000000001, 2 * 10**9
    guard_threshold(lambda: subgroup_generating_vector(order // 2, n), 48 * (order // 2),
                    f"subgroup of order {order} for n={n} needs 44.7 GiB")
    guard_threshold(lambda: SphericalFrame(order, n), 48 * order,
                    f"subgroup of order {order} for n={n} needs 89.4 GiB",
                    past=(SizeLimitError, "overflows int64"))
