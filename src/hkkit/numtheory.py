"""Primality, factoring, multiplicative orders, and prime search.

Everything here is exact integer arithmetic, with no randomness.  Moduli are
expected to fit in a 64-bit word; derived quantities (powers, products) use
Python's arbitrary-precision integers, so nothing can overflow silently.
Orders come from the factored Carmichael function, so an order modulo any
64-bit n costs at most tens of milliseconds, not O(n) multiplications.
"""

import math
import operator

# Rows (psi_k, k) of OEIS A014233 where psi_k grows: Miller-Rabin on the first
# k primes proves every m < psi_k (Jaeschke 1993; Sorenson-Webster 2017).  The
# last psi is the certified bound, comfortably past 2**64.
_MR_TIERS = ((2047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
             (2_152_302_898_747, 5), (3_474_749_660_383, 6), (341_550_071_728_321, 7),
             (3_825_123_056_546_413_051, 9), (318_665_857_834_031_151_167_461, 12),
             (3_317_044_064_679_887_385_961_981, 13))
_MR_CERTIFIED_BOUND = _MR_TIERS[-1][0]
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class NotAUnitError(ValueError):
    """An operation required gcd(a, n) = 1 and it did not hold."""


class NoPrimesInClassError(ValueError):
    """A progression r mod s with gcd(r, s) > 1 was searched for primes."""


def multiplicative_order(a: int, n: int) -> int:
    """Least omega >= 1 with a**omega == 1 (mod n).

    Factors n for the Carmichael exponent lambda(n) and its prime factors
    (_carmichael), then strips each prime from lambda(n) while
    a**(order/l) == 1 still holds (_order_dividing; Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 1.4.3).  The cost is that of
    factoring n, at most tens of milliseconds for n below 2**64.  A cofactor
    past is_prime's certified bound raises ValueError.
    """
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    a %= n
    g = math.gcd(a, n)
    if g != 1:
        raise NotAUnitError(f"{a} is not a unit modulo {n} (gcd = {g})")
    return _order_dividing(a, n, *_carmichael(prime_factors(n)))


def _carmichael(factors: dict[int, int]) -> tuple[int, set[int]]:
    """From n's factors: lambda(n), the units' exponent, and a set holding its primes."""
    lam, primes = 1, set()
    for q, k in factors.items():
        lam = math.lcm(lam, _prime_power_lambda(q, k))
        primes.add(q)
        primes.update(prime_factors(q - 1))
    return lam, primes


def _prime_power_lambda(q: int, k: int) -> int:
    """lambda(q^k) for a prime q and k >= 1: (q-1)*q^(k-1), halved for 2^k with k >= 3."""
    lam = (q - 1) * q ** (k - 1)
    return lam // 2 if q == 2 and k >= 3 else lam


def _order_dividing(a: int, n: int, m: int, primes: set[int]) -> int:
    """Order of the unit a mod n, from a multiple m whose primes all lie in primes."""
    for l in primes:
        while m % l == 0 and pow(a, m // l, n) == 1:
            m //= l
    return m


# Trial division covers the primes below this bound; Pollard-Brent rho splits
# what is left, so rho only ever sees composites without small factors.
_TRIAL_BOUND = 1 << 10


def prime_factors(m: int) -> dict[int, int]:
    """The factorization of m >= 1 as {prime: exponent}, primes ascending.

    Trial division below 2**10, then Pollard-Brent rho (Brent 1980) on what
    is left, with is_prime deciding when to stop.  Perfect squares are split
    by isqrt first, since rho can cycle on them without finding a factor.
    Deterministic: rho tries the maps x**2 + c for c = 1, 2, ... in turn.
    A non-integer m raises TypeError, as math.isqrt does.
    """
    m = operator.index(m)
    if m < 1:
        raise ValueError(f"can only factor positive integers, got {m}")
    factors: dict[int, int] = {}
    d = 2
    while d < _TRIAL_BOUND and d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    # every x left has no prime factor below d, so x < d*d means x is prime
    pending = [m] if m > 1 else []
    while pending:
        x = pending.pop()
        if x < d * d or is_prime(x):
            factors[x] = factors.get(x, 0) + 1
            continue
        root = math.isqrt(x)
        if root * root == x:
            pending += (root, root)
            continue
        divisor = _rho_divisor(x)
        pending += (divisor, x // divisor)
    return dict(sorted(factors.items()))


def _rho_divisor(m: int) -> int:
    """A proper divisor of the composite m, by Brent's variant of rho."""
    for c in range(1, m):
        y, power, product, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(power):
                y = (y * y + c) % m
            done = 0
            while done < power and g == 1:
                saved = y
                for _ in range(min(128, power - done)):
                    y = (y * y + c) % m
                    product = product * abs(x - y) % m
                g = math.gcd(product, m)
                done += 128
            power *= 2
        if g == m:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % m
                g = math.gcd(abs(x - saved), m)
        if g != m:
            return g
    raise RuntimeError(f"{m} has no proper divisor: library bug")


def is_prime(m: int) -> bool:
    """Deterministic primality test.

    Trial division by the primes through 41, then Miller-Rabin on the first
    k primes, the least k that A014233 proves exact for m: one base below
    2047, four below 3.2e9, all 13 below ~3.3e24 (well past 2**64).  m < 2
    is not prime.  Trial division answers every m with a prime factor up to
    41, however large; any other m past the certified bound raises rather
    than silently degrade to a probabilistic answer.  A non-integer m raises
    TypeError, as math.isqrt does.
    """
    m = operator.index(m)
    if m < 2:
        return False
    for w in _MR_WITNESSES:
        if m % w == 0:
            return m == w
    if m >= _MR_CERTIFIED_BOUND:
        raise ValueError(
            f"{m} exceeds the certified deterministic range ({_MR_CERTIFIED_BOUND})"
        )
    if m < 41 * 41:  # no prime factor up to 41, so none at all
        return True
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next(k for psi, k in _MR_TIERS if m < psi)
    for w in _MR_WITNESSES[:k]:
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
    (from r mod s when r < 0: no member below 0 is prime).

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
    candidate = r if r >= 0 else r % s
    while candidate <= search_limit:
        if is_prime(candidate):
            return candidate
        candidate += s
    return None
