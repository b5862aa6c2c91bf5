"""Exact integer arithmetic: primality, factorization, primitive roots.

Everything here runs on plain Python integers (arbitrary precision), so no
intermediate product can overflow, and everything is deterministic -- the
Miller-Rabin test uses a fixed witness set that is provably correct for the
whole unsigned 64-bit range.

``factorize`` covers the same range, 2 <= n < 2**64: trial division by the
primes below 1000, then deterministic Miller-Rabin plus Pollard-Brent rho
(Brent 1980) on the cofactor. Rho splits a 64-bit number with two ~2**31
prime factors in tens of milliseconds (a fraction of a second at worst),
where trial division needs minutes, so ``primitive_root`` -- and every
subgroup construction built on it -- stays fast at 64-bit moduli.
"""

from __future__ import annotations

import itertools
import math
import operator

from .exceptions import DomainError

__all__ = [
    "is_prime",
    "factorize",
    "primitive_root",
]

_U64_MAX = 2**64 - 1

# Sufficient deterministic witness set for every n < 3.317e24 (Sorenson &
# Webster), which covers the full 64-bit range this module accepts. These
# are the first 12 primes, so ``is_prime`` also trial-divides by them.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _primes_below(limit: int) -> tuple[int, ...]:
    """Primes p < limit by the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(i for i, f in enumerate(flags) if f)


_TRIAL_PRIMES = _primes_below(1000)

# Steps of the rho walk whose differences share one gcd.
_RHO_BATCH = 128


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
    for p in _MR_WITNESSES:
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


def _rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (Pollard-Brent rho).

    Brent's cycle search on x -> x**2 + c mod n from x = 2, multiplying
    ``_RHO_BATCH`` differences before each gcd and replaying the last
    batch one step at a time if that gcd hits n. The constants
    c = 1, 2, ... are tried in order, so the result is deterministic.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of ``2 <= n < 2**64`` as ``((p, m), ...)``.

    The primes p ascend and each multiplicity m is >= 1. Trial division
    by the primes below 1000 stops once p**2 exceeds the remaining
    cofactor. A cofactor left over is split by deterministic
    Miller-Rabin (``is_prime``) and Pollard-Brent rho until every part
    is prime, so the result is exact; the 2**64 limit is the range
    ``is_prime`` certifies. Raises ``DomainError`` outside it.

    Examples
    --------
    >>> factorize(3000)
    ((2, 3), (3, 1), (5, 3))
    >>> [p for p, _ in factorize(2**64 - 1)]
    [3, 5, 17, 257, 641, 65537, 6700417]
    """
    n = operator.index(n)
    if n < 2 or n > _U64_MAX:
        raise DomainError(f"factorize expects 2 <= n < 2**64, got {n}")
    counts: dict[int, int] = {}
    rem = n
    for p in _TRIAL_PRIMES:
        if p * p > rem:
            break
        while rem % p == 0:
            rem //= p
            counts[p] = counts.get(p, 0) + 1
    pending = [rem] if rem > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            f = _rho(m)
            pending += (f, m // f)
    return tuple(sorted(counts.items()))


def primitive_root(p: int) -> int:
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
    prime_divisors = [q for q, _ in factorize(phi)]
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
