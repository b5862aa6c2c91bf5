"""Primality, factorization, and primitive-root tests.

The primitive-root checks are oracle-based: for every prime up to 10^4
the returned generator's multiplicative order is recomputed by direct
cycle enumeration, independently of the fast exponentiation path.
"""

import math

import pytest

from lattice_forge.exceptions import DomainError
from lattice_forge.numtheory import (
    Factorization,
    PrimeModulus,
    factorize,
    is_prime,
    primitive_root,
)


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


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(100).factors == ((2, 2), (5, 2))
    assert factorize(3000).factors == ((2, 3), (3, 1), (5, 3))
    assert factorize(13).factors == ((13, 1),)


def test_factorize_roundtrip_full_range():
    # recombination is the identity on all of [2, 1e5]
    for n in range(2, 100_001):
        f = factorize(n)
        assert math.prod(p**m for p, m in f.factors) == n


def test_factorize_factors_are_prime_and_sorted():
    for n in (2, 97, 1024, 30030, 99991, 65536, 2 * 3 * 5 * 7 * 11 * 13):
        f = factorize(n)
        primes = f.primes()
        assert list(primes) == sorted(primes)
        assert all(is_prime(p) for p in primes)
        assert all(m >= 1 for _, m in f.factors)


def test_factorize_rejects_small():
    with pytest.raises(DomainError):
        factorize(1)
    with pytest.raises(DomainError):
        factorize(0)


def test_factorization_dataclass_fields():
    f = factorize(3000)
    assert isinstance(f, Factorization)
    assert f.base == 3000
    assert f.factors == ((2, 3), (3, 1), (5, 3))


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
# PrimeModulus
# ---------------------------------------------------------------------------


def test_prime_modulus_certifies():
    m = PrimeModulus(101)
    assert int(m) == 101
    assert range(int(m))[-1] == 100  # __index__ usable as an int


def test_prime_modulus_rejects_composite():
    with pytest.raises(DomainError):
        PrimeModulus(100)
    with pytest.raises(DomainError):
        PrimeModulus(1)
