"""The census of every ring within limits whose phi has a given period:
library-only, imported by hkkit and hkkit.realize on first use (PEP 562)."""

import math
from bisect import bisect_left, bisect_right
from itertools import compress

from . import numtheory  # is_prime is looked up per window (see closed_form._lazy)
from .closed_form import RingSpec
from .numtheory import _order_dividing, prime_factors
from .period import PeriodReport, _classify
from .realize import RealizationResult, SearchStats, _check_search_args

_WINDOW = 1 << 14  # moduli that enumerate_realizations factors at once


def _moduli(n_limit: int):
    """Yield (n, lambda(n), n's distinct primes ascending) for n = 2..n_limit.

    A windowed sieve: in each window of at most _WINDOW consecutive moduli,
    each prime q with q*q below the window's end is divided out of its
    multiples, and a cofactor left above 1 is prime.  The sieving primes are
    found as the windows reach them, so memory is O(_WINDOW + sqrt(n_limit))
    and a sweep cut short never looks for primes up to sqrt(n_limit).
    """
    sieving, width = [], min(n_limit, _WINDOW)
    for lo in range(2, n_limit + 1, width):
        hi = min(lo + width, n_limit + 1)
        sieving += filter(numtheory.is_prime, range(math.isqrt(lo - 1) + 1, math.isqrt(hi - 1) + 1))
        rest = list(range(lo, hi))
        lams, primes = [1] * len(rest), [[] for _ in rest]
        for q in sieving:
            for i in range(-lo % q, hi - lo, q):
                m, part = rest[i] // q, q - 1
                while m % q == 0:
                    m, part = m // q, part * q
                rest[i] = m
                # lambda(2^k) = 2^(k-2) for k >= 3
                lams[i] = math.lcm(lams[i], part // 2 if q == 2 and part >= 4 else part)
                primes[i].append(q)
        for i, m in enumerate(rest):
            if m > 1:
                lams[i] = math.lcm(lams[i], m - 1)
                primes[i].append(m)
            yield lo + i, lams[i], primes[i]


def _primes_to(limit: int) -> list[int]:
    """The primes up to limit >= 1, ascending, from a sieve of Eratosthenes."""
    sieve = bytearray(2) + bytearray([1]) * (limit - 1)
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, limit + 1, q)))
    return list(compress(range(limit + 1), sieve))


def enumerate_realizations(
    pi: int, n_limit: int, p_limit: int, max_results: int
) -> list[RealizationResult]:
    """Every (p, n) with period exactly pi within the limits, ordered by (n, p).

    Unlike realize, this sweeps all moduli n >= 2 (composite included) and
    accepts both period branches, so it finds realizations the progression
    construction cannot, for instance full-branch rings with composite n.
    Each result carries the cumulative candidate counts at the moment it was
    found.  Truncated at max_results.

    _moduli sieves each n's lambda(n) and primes; each order is stripped
    down from g = gcd(2*pi, lambda(n)), with g factored once per distinct g,
    so pi is never factored.  Every p at an n where pi does not divide g is
    skipped (but counted).  Only the rings returned become RingSpecs.
    """
    _check_search_args(pi, n_limit, p_limit)
    if max_results < 1:
        raise ValueError(f"max_results must be at least 1, got {max_results}")
    primes = _primes_to(p_limit)
    g_primes: dict[int, set[int]] = {}
    counted = 0  # p_candidates: primes up to p_limit, less those dividing n
    results: list[RealizationResult] = []
    for n, lam, n_primes in _moduli(n_limit):
        before = counted
        counted += len(primes) - bisect_right(n_primes, p_limit)
        g = math.gcd(2 * pi, lam)
        if g % pi != 0:  # pi | omega | g for any p of period pi
            continue
        if g not in g_primes:
            g_primes[g] = set(prime_factors(g))
        # a p dividing n leaves pow(p, g, n) a multiple of p, never 1
        for i, p in enumerate(primes, 1):
            if pow(p, g, n) != 1:
                continue
            # pi is omega or omega/2, so omega | 2*pi; omega | lam, so omega | g
            omega = _order_dividing(p, n, g, g_primes[g])
            classified = _classify(p, n, omega)
            if classified[0] != pi:
                continue
            spec = RingSpec(p, n)
            # p is the i-th prime, and n's primes below p were not candidates
            stats = SearchStats(n - 1, before + i - bisect_left(n_primes, p))
            results.append(RealizationResult(
                pi, spec, PeriodReport(spec, omega, *classified), None, stats))
            if len(results) >= max_results:
                return results
    return results
