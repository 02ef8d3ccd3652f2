"""Constructive search for rings whose periodic term has a prescribed period.

Any target period pi is reachable: pick a prime modulus n == 1 (mod 2*pi), so
the cyclic unit group mod n has order divisible by 2*pi and contains elements
of order exactly 2*pi; pick a prime p in such a residue class.  The unit
group, being cyclic of even order, has a unique involution, -1 mod n, so
p^pi == -1 (mod n) and the period of phi halves from omega = 2*pi to exactly
pi.  Dirichlet guarantees the primes exist but gives no bound, so every
search here takes explicit limits and reports exhaustion rather than spinning.
"""

from .closed_form import _N_MAX, RingSpec, _lazy, _Value
from .numtheory import _order_dividing, find_prime_in_class, is_prime, prime_factors
from .period import PeriodReport, period_of

SEARCH_LIMIT_DEFAULT = 10_000
__getattr__ = _lazy(__name__, {"realize_census": "_WINDOW _moduli _primes_to "
                                                  "enumerate_realizations"})


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
