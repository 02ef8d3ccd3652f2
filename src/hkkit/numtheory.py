"""Modular arithmetic, multiplicative orders, primality, and prime search.

Everything here is exact integer arithmetic.  Moduli are expected to fit in a
64-bit word; derived quantities (powers, products) use Python's
arbitrary-precision integers, so nothing can overflow silently.
"""

import math

# Largest input for which the fixed witness set below is a *proven*
# deterministic primality test (first 12 primes; certified bound from
# Sorenson-Webster).  Comfortably past 2**64.
_MR_CERTIFIED_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class NotAUnitError(ValueError):
    """An operation required gcd(a, n) = 1 and it did not hold."""


class NoPrimesInClassError(ValueError):
    """A progression r mod s with gcd(r, s) > 1 was searched for primes."""


def multiplicative_order(a: int, n: int) -> int:
    """Least omega >= 1 with a**omega == 1 (mod n).

    Strategy: naive power iteration, O(n) modular multiplications worst case.
    The moduli in this package are small, so factoring the group order to do
    better is not worth the machinery.
    """
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    a %= n
    g = math.gcd(a, n)
    if g != 1:
        raise NotAUnitError(f"{a} is not a unit modulo {n} (gcd = {g})")
    order = 1
    power = a
    while power != 1:
        power = power * a % n
        order += 1
    return order


def is_prime(m: int) -> bool:
    """Deterministic primality test.

    Fixed-witness Miller-Rabin, exact for every m below ~3.3e24 (so in
    particular for the full 64-bit range).  m < 2 is not prime.  Inputs past
    the certified bound raise rather than silently degrade to a probabilistic
    answer.
    """
    if m >= _MR_CERTIFIED_BOUND:
        raise ValueError(
            f"{m} exceeds the certified deterministic range ({_MR_CERTIFIED_BOUND})"
        )
    if m < 2:
        return False
    for w in _MR_WITNESSES:
        if m % w == 0:
            return m == w
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def find_prime_in_class(r: int, s: int, search_limit: int) -> int | None:
    """Least prime p == r (mod s) with p <= search_limit, scanning r, r+s, ...

    Returns None when the progression holds no prime up to the limit.  For
    gcd(r, s) = 1 a prime always exists beyond *some* bound, but there is no
    effective bound to rely on, so the caller decides how far to look.
    """
    if s < 1:
        raise ValueError(f"step must be at least 1, got {s}")
    if search_limit < 2:
        raise ValueError(f"search limit must be at least 2, got {search_limit}")
    g = math.gcd(r, s)
    if g != 1:
        raise NoPrimesInClassError(
            f"gcd({r}, {s}) = {g} > 1: the progression cannot contain "
            "infinitely many primes"
        )
    candidate = r
    while candidate <= search_limit:
        if candidate >= 2 and is_prime(candidate):
            return candidate
        candidate += s
    return None
