"""Exact integer arithmetic: primality, factorization, primitive roots.

Everything here runs on plain Python integers (arbitrary precision), so no
intermediate product can overflow, and everything is deterministic -- the
Miller-Rabin test uses a fixed witness set that is provably correct for the
whole unsigned 64-bit range.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .exceptions import DomainError

__all__ = [
    "PrimeModulus",
    "Factorization",
    "is_prime",
    "factorize",
    "primitive_root",
]

_U64_MAX = 2**64 - 1

# Sufficient deterministic witness set for every n < 3.317e24 (Sorenson &
# Webster), which covers the full 64-bit range this module accepts.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit integers.

    Parameters
    ----------
    n : int
        Value to test; must satisfy ``0 <= n < 2**64``.

    Returns
    -------
    bool
        True iff ``n`` is prime.
    """
    n = operator.index(n)
    if n < 0 or n > _U64_MAX:
        raise DomainError(f"is_prime expects 0 <= n < 2**64, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # n - 1 = d * 2**r with d odd
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A positive integer certified prime at construction time.

    Construction runs the deterministic primality test and raises
    ``DomainError`` on a composite, so any live instance is a certificate.
    ``__index__`` lets instances stand in for plain ints (``range``, numpy,
    ``%``, ...).
    """

    n: int

    def __post_init__(self) -> None:
        n = operator.index(self.n)
        object.__setattr__(self, "n", n)
        if not is_prime(n):
            raise DomainError(f"{n} is not prime")

    def __index__(self) -> int:
        return self.n

    def __int__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"PrimeModulus({self.n})"


@dataclass(frozen=True)
class Factorization:
    """Prime factorization ``base = prod(p**m for p, m in factors)``.

    ``factors`` is sorted by prime and each multiplicity is >= 1.
    """

    base: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        """Distinct prime divisors, ascending."""
        return tuple(p for p, _ in self.factors)


def factorize(n: int) -> Factorization:
    """Factor ``n >= 2`` by trial division (2, 3, then 6k +/- 1)."""
    n = operator.index(n)
    if n < 2:
        raise DomainError(f"factorize expects n >= 2, got {n}")
    rem = n
    factors: list[tuple[int, int]] = []
    for p in (2, 3):
        if rem % p == 0:
            m = 0
            while rem % p == 0:
                rem //= p
                m += 1
            factors.append((p, m))
    f = 5
    while f * f <= rem:
        for p in (f, f + 2):
            if rem % p == 0:
                m = 0
                while rem % p == 0:
                    rem //= p
                    m += 1
                factors.append((p, m))
        f += 6
    if rem > 1:
        factors.append((rem, 1))
    return Factorization(base=n, factors=tuple(factors))


def primitive_root(p: int | PrimeModulus) -> int:
    """Smallest primitive root modulo a prime ``p``.

    Returns the least ``g in {2, ..., p-1}`` with ``g**((p-1)/q) != 1
    (mod p)`` for every prime divisor ``q`` of ``p - 1`` (so ``g``
    generates the full multiplicative group); ``p = 2`` returns 1.
    """
    p = operator.index(p)
    if not is_prime(p):
        raise DomainError(f"primitive_root expects a prime, got {p}")
    if p == 2:
        return 1
    phi = p - 1
    prime_divisors = factorize(phi).primes()
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in prime_divisors):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")


def _subgroup(order: int, n: int) -> list[int]:
    """The order-``order`` subgroup of the nonzero residues mod prime n.

    Returns ``[g**(k*(n-1)//order) % n for k in range(order)]`` with g
    the smallest primitive root, so entry k is h**k for the generator
    h = g**((n-1)//order). Callers check that n is prime and that
    ``order`` divides n - 1.
    """
    h = pow(primitive_root(n), (n - 1) // order, n)
    out = [1] * order
    for k in range(1, order):
        out[k] = out[k - 1] * h % n
    return out
