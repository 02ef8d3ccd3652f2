"""Exact period of the periodic term phi(e) = b(n-b).

The period pi is always omega or omega/2, where omega is the multiplicative
order of p mod n, and the halved case happens exactly when omega is even and
p^(omega/2) == -1 (mod n).  verify_minimal_period checks that classification
against phi itself.
"""

import enum
from collections.abc import Iterator, Mapping
from itertools import chain, repeat

from .closed_form import RingSpec, _Value
from .numtheory import multiplicative_order, prime_factors

_BLOCK = 4096  # values per list that _phi_blocks yields


class Branch(enum.Enum):
    HALF = "HALF"  # pi = omega / 2
    FULL = "FULL"  # pi = omega


class PeriodReport(_Value):
    """Classification of the period of phi for the ring spec.

    involution_check is True exactly when omega is even and the congruence
    p^(omega/2) == n-1 (mod n) held; for odd omega the congruence is never
    tested and the flag is False.  The comparison uses the canonical
    representative n-1, never a signed -1, to dodge sign-convention bugs.
    Only the classification is stored; cycle and phi_profile are computed on each read.
    """

    __match_args__ = ("spec", "omega", "pi", "branch", "involution_check")

    def __init__(self, spec: RingSpec, omega: int, pi: int, branch: Branch,
                 involution_check: bool) -> None:
        fields = self.__dict__
        fields["spec"], fields["omega"], fields["pi"] = spec, omega, pi
        fields["branch"], fields["involution_check"] = branch, involution_check

    @property
    def cycle(self) -> tuple[int, ...]:
        """phi(0), ..., phi(pi - 1), one period, rebuilt on each read (no cache): O(pi)."""
        # phi repeats after pi, since on the halved branch p^pi == -1 maps b to n - b
        return tuple(chain.from_iterable(_phi_blocks(self.spec, self.pi)))

    @property
    def phi_profile(self) -> tuple[int, ...]:
        """phi(0), ..., phi(omega - 1): the cycle repeated omega/pi times, O(omega).
        cli._cell prints its first 2^20 values from the cycle's text."""
        return self.cycle * (self.omega // self.pi)


def period_of(spec: RingSpec) -> PeriodReport:
    """Classify the period of phi: omega, the exact period pi, and the branch.

    Costs one order (one factorization); phi_profile is built only when read.
    """
    omega = multiplicative_order(spec.p, spec.n)
    return PeriodReport(spec, omega, *_classify(spec.p, spec.n, omega))


def _classify(p: int, n: int, omega: int) -> tuple[int, Branch, bool]:
    """(pi, branch, involution_check) for p of order omega mod n: the halving rule."""
    involution = omega % 2 == 0 and pow(p, omega // 2, n) == n - 1
    pi, branch = (omega // 2, Branch.HALF) if involution else (omega, Branch.FULL)
    return pi, branch, involution


def _phi_blocks(spec: RingSpec, count: int) -> Iterator[list[int]]:
    """phi(0), ..., phi(count - 1) in lists of _BLOCK values, the last one shorter.

    The one walk of b = p^e mod n, one multiplication per value; b starts one
    step before 1, at the inverse of p (a unit mod n), and each value steps it
    before reading it.
    """
    n, p = spec.n, spec.p
    b = pow(p, -1, n)
    for start in range(0, count, _BLOCK):
        # repeat, not range: range makes an int per step
        yield [(b := b * p % n) * (n - b) for _ in repeat(None, min(_BLOCK, count - start))]


class PeriodCheck(_Value):
    """Outcome of a direct periodicity-and-minimality check.

    On success, divisor_witnesses maps each proper divisor d of the period to
    the least index e with phi(e + d) != phi(e), the witness that rejects d.
    On failure, failing_distance is the offending shift: the claimed period
    itself if plain periodicity broke, or the least divisor of the claim that
    is a period too.  failing_index is 0 exactly when the claim itself is no
    period, and None otherwise.
    """

    __match_args__ = ("ok", "failing_distance", "failing_index", "divisor_witnesses")

    def __init__(self, ok: bool, failing_distance: int | None = None,
                 failing_index: int | None = None,
                 divisor_witnesses: Mapping[int, int] | None = None) -> None:
        fields = self.__dict__
        fields["ok"], fields["failing_distance"] = ok, failing_distance
        fields["failing_index"] = failing_index
        fields["divisor_witnesses"] = {} if divisor_witnesses is None else divisor_witnesses

    def __bool__(self) -> bool:
        return self.ok


def verify_minimal_period(spec: RingSpec, window_multiplier: int = 2) -> PeriodCheck:
    """Check the classified period against phi itself, from e = 0 on.

    Two independent checks:
      (a) phi(e + pi) == phi(e) for every e >= 0, so the period is
          immediate, with no transient;
      (b) every proper divisor d of pi has a witness e < omega with
          phi(e + d) != phi(e).  The minimal period of a periodic sequence
          divides every period, so testing divisors of pi suffices.

    Each check is decided at e = 0 (see _check_claimed_period), so the result
    does not depend on window_multiplier, which is only checked, and every
    accepted n is answered with one power for pi and one for each pi/l, l a
    prime of pi.
    """
    if window_multiplier < 2:
        raise ValueError(f"window_multiplier must be at least 2, "
                         f"got {window_multiplier}")
    return _check_claimed_period(spec, period_of(spec).pi)


def _check_claimed_period(spec: RingSpec, pi: int) -> PeriodCheck:
    # a d that is no period fails at e = 0 already: with c = p^d mod n,
    # phi(0) - phi(d) = (1 - c)(n - 1 - c) is 0 only when c == +-1 (_is_period)
    p, n = spec.p, spec.n
    if not _is_period(p, n, pi):
        return PeriodCheck(ok=False, failing_distance=pi, failing_index=0)
    # the periods are the multiples of the least one, so stripping each prime
    # of pi while what is left is a period ends at it, as _order_dividing does
    least, divisors = pi, [1]
    for prime, k in prime_factors(pi).items():
        while least % prime == 0 and _is_period(p, n, least // prime):
            least //= prime
        divisors = [d * prime**j for d in divisors for j in range(k + 1)]
    return PeriodCheck(ok=least == pi, failing_distance=None if least == pi else least,
                       divisor_witnesses=dict.fromkeys(sorted(d for d in divisors if d < least), 0))


def _is_period(p: int, n: int, d: int) -> bool:
    """Whether d is a period of phi for p mod n: p^d == +-1 (mod n), as for
    b = p^e and c = p^(e+d) mod n, b(n - b) - c(n - c) = (b - c)(n - b - c)
    is 0 exactly when c == +-b, for every e at once.  A p dividing n passes
    no d, as p^d mod n is then a multiple of p."""
    return pow(p, d, n) in (1, n - 1)
