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
import sys
from bisect import bisect_left, bisect_right
from itertools import compress

from .closed_form import _N_MAX, RingSpec, _Value
from .numtheory import _prime_power_lambda, find_prime_in_class, is_prime, prime_factors
from .period import PeriodReport, _classify, _is_period, period_of

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

    p^pi == r^pi == -1 (mod n) holds by the residue test; the period is
    re-checked on the way out by period_of, whose order comes from
    lambda(n), and a violation, a bug in this library, raises RuntimeError.
    """
    _check_search_args(pi, n_limit, p_limit)
    stats = SearchStats()
    pi_primes = None
    for n in range(1 + 2 * pi, min(n_limit, _N_MAX) + 1, 2 * pi):  # RingSpec refuses larger n
        stats.n_candidates += 1
        if is_prime(n):
            if pi_primes is None:  # pi < n, inside is_prime's range
                pi_primes = list(prime_factors(pi))
            # a class r > p_limit holds no p <= p_limit, since p >= r
            for r in range(2, min(n, p_limit + 1)):
                # r^pi == -1 and no pi/l is a period: for prime n, order exactly 2*pi
                if pow(r, pi, n) != n - 1 or any(_is_period(r, n, pi // l) for l in pi_primes):
                    continue
                p = find_prime_in_class(r, n, p_limit)
                # members r, r + n, ... scanned: up to p, or all up to p_limit
                stats.p_candidates += len(range(r, (p or p_limit) + 1, n))
                if p is None:
                    continue
                spec = RingSpec(p, n)
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
                m, k = rest[i] // q, 1
                while m % q == 0:
                    m, k = m // q, k + 1
                rest[i] = m
                lams[i] = math.lcm(lams[i], _prime_power_lambda(q, k))
                primes[i].append(q)
        for i, m in enumerate(rest):
            if m > 1:
                lams[i] = math.lcm(lams[i], _prime_power_lambda(m, 1))
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

    _moduli sieves each n's lambda(n) and primes.  Every p at an n where pi
    does not divide lambda(n) (pi | omega | lambda(n)) is skipped but counted;
    pi is factored once, at the first n where it does.  Only the rings
    returned, where pi is a period and no pi/l is, become RingSpecs.
    """
    _check_search_args(pi, n_limit, p_limit)
    if max_results < 1:
        raise ValueError(f"max_results must be at least 1, got {max_results}")
    if p_limit >= sys.maxsize:  # past the largest sieve that _primes_to can index
        raise ValueError(f"p_limit must be below {sys.maxsize}, got {p_limit}")
    primes = _primes_to(p_limit)
    pi_primes = None
    counted = 0  # p_candidates: primes up to p_limit, less those dividing n
    results: list[RealizationResult] = []
    for n, lam, n_primes in _moduli(n_limit):
        before = counted
        counted += len(primes) - bisect_right(n_primes, p_limit)
        if lam % pi:
            continue
        if pi_primes is None:  # pi <= lam < n, inside is_prime's range
            pi_primes = list(prime_factors(pi))
        for i, p in enumerate(primes, 1):
            # the periods are the multiples of the exact one, so pi is exact
            # when it is a period and no pi/l is, for each prime l of pi
            if not _is_period(p, n, pi) or any(_is_period(p, n, pi // l) for l in pi_primes):
                continue
            omega = pi if pow(p, pi, n) == 1 else 2 * pi  # p^pi == -1 otherwise
            spec = RingSpec(p, n)
            # p is the i-th prime, and n's primes below p were not candidates
            stats = SearchStats(n - 1, before + i - bisect_left(n_primes, p))
            results.append(RealizationResult(
                pi, spec, PeriodReport(spec, omega, *_classify(p, n, omega)), None, stats))
            if len(results) >= max_results:
                return results
    return results
