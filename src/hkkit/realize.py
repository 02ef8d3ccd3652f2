"""Constructive search for rings whose periodic term has a prescribed period.

Any target period pi is reachable: pick a prime modulus n == 1 (mod 2*pi), so
the cyclic unit group mod n has order divisible by 2*pi and contains elements
of order exactly 2*pi; pick a prime p in such a residue class.  The unit
group, being cyclic of even order, has a unique involution, -1 mod n, so
p^pi == -1 (mod n) and the period of phi halves from omega = 2*pi to exactly
pi.  Dirichlet guarantees the primes exist but gives no bound, so every
search here takes explicit limits and reports exhaustion rather than spinning.
enumerate_realizations takes a census of a whole box of rings instead.
"""

import math
from bisect import bisect_left, bisect_right
from itertools import compress

from .closed_form import _N_MAX, RingSpec, _Value
from .numtheory import _order_dividing, find_prime_in_class, is_prime, prime_factors
from .period import PeriodReport, _classify, period_of

SEARCH_LIMIT_DEFAULT = 10_000
_WINDOW = 1 << 14  # moduli that enumerate_realizations factors at once


class SearchStats(_Value):
    """Counters for candidates examined during a realization search."""

    __match_args__ = ("n_candidates", "p_candidates")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, n_candidates: int = 0, p_candidates: int = 0) -> None:
        self.n_candidates, self.p_candidates = n_candidates, p_candidates


class SearchExhausted(Exception):
    """Search limits ran out before a realization was found."""

    def __init__(self, target_pi: int, n_limit: int, p_limit: int, stats: SearchStats):
        self.target_pi = target_pi
        self.n_limit = n_limit
        self.p_limit = p_limit
        self.stats = stats
        super().__init__(
            f"no realization of period {target_pi} within n <= {n_limit}, "
            f"p <= {p_limit} ({stats.n_candidates} moduli and "
            f"{stats.p_candidates} characteristics examined)"
        )


class RealizationResult(_Value):
    """A ring (p, n) whose periodic term has exact period target_pi.

    residue_used is the class r with ord_n(r) = 2 * target_pi in which p was
    found when the result came from the arithmetic-progression construction
    (realize); results discovered by exhaustive scanning
    (enumerate_realizations) leave it None, and for those the construction
    invariants (n prime, omega = 2 * target_pi, halved branch) need not hold.
    """

    __match_args__ = ("target_pi", "spec", "report", "residue_used", "search_stats")

    def __init__(self, target_pi: int, spec: RingSpec, report: PeriodReport,
                 residue_used: int | None, search_stats: SearchStats) -> None:
        fields = self.__dict__
        fields["target_pi"], fields["spec"], fields["report"] = target_pi, spec, report
        fields["residue_used"], fields["search_stats"] = residue_used, search_stats


def _check_search_args(pi: int, n_limit: int, p_limit: int) -> None:
    if pi < 1:
        raise ValueError(f"target period must be at least 1, got {pi}")
    if n_limit < 2 or p_limit < 2:
        raise ValueError("search limits must be at least 2")


def realize(pi: int, n_limit: int = SEARCH_LIMIT_DEFAULT,
            p_limit: int = SEARCH_LIMIT_DEFAULT) -> RealizationResult:
    """Smallest-first construction of a ring with period exactly pi.

    Scans prime moduli n == 1 (mod 2*pi) in increasing order; within each,
    residues r in [2, n-1] of multiplicative order 2*pi in increasing order;
    within each class, primes p == r (mod n) in increasing order.  The first
    hit wins, so the output is deterministic.  Raises SearchExhausted (with
    the candidate counts) when the limits run out.

    The involution congruence p^pi == -1 (mod n) and the resulting period are
    re-checked on the way out; a violation would be a bug in this library,
    not bad input, and raises RuntimeError.
    """
    _check_search_args(pi, n_limit, p_limit)
    stats = SearchStats()
    step = 2 * pi
    step_primes: set[int] | None = None
    for n in range(1 + step, min(n_limit, _N_MAX) + 1, step):  # RingSpec refuses larger n
        stats.n_candidates += 1
        if is_prime(n):
            if step_primes is None:  # step < n, inside is_prime's range
                step_primes = set(prime_factors(step))
            # a class r > p_limit holds no p <= p_limit, since p >= r
            for r in range(2, min(n, p_limit + 1)):
                if pow(r, step, n) != 1 or _order_dividing(r, n, step, step_primes) != step:
                    continue
                p = find_prime_in_class(r, n, p_limit)
                # members r, r + n, ... scanned: up to p, or all up to p_limit
                stats.p_candidates += len(range(r, (p or p_limit) + 1, n))
                if p is None:
                    continue
                spec = RingSpec(p, n)
                if pow(p, pi, n) != n - 1:
                    raise RuntimeError(
                        f"unique-involution check failed for p={p}, n={n}: "
                        "library bug"
                    )
                report = period_of(spec)
                if report.pi != pi:
                    raise RuntimeError(
                        f"constructed spec p={p}, n={n} has period "
                        f"{report.pi}, expected {pi}: library bug"
                    )
                return RealizationResult(
                    target_pi=pi,
                    spec=spec,
                    report=report,
                    residue_used=r,
                    search_stats=stats,
                )
    raise SearchExhausted(pi, n_limit, p_limit, stats)


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
        sieving += filter(is_prime, range(math.isqrt(lo - 1) + 1, math.isqrt(hi - 1) + 1))
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
