"""The classified period checked against phi itself: library-only, imported
by hkkit and hkkit.period on the first use of one of its names (PEP 562)."""

from collections.abc import Mapping

from . import period  # period_of is looked up at each call (see closed_form._lazy)
from .closed_form import RingSpec, _Value
from .numtheory import prime_factors


class PeriodCheck(_Value):
    """Outcome of a direct periodicity-and-minimality check.

    On success, divisor_witnesses maps each proper divisor d of the period to
    the least index e with phi(e + d) != phi(e), the witness that rejects d.
    On failure, failing_distance is the offending shift: the claimed period
    itself if plain periodicity broke at index failing_index, or a proper
    divisor that turned out to be a period too (failing_index is then None).
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


def verify_minimal_period(spec: RingSpec, window_multiplier: int) -> PeriodCheck:
    """Check the classified period against phi itself, from e = 0 on.

    Two independent checks:
      (a) phi(e + pi) == phi(e) for every 0 <= e <= window_multiplier * omega,
          starting at e = 0, so the period is immediate, with no transient;
      (b) every proper divisor d of pi has a witness e < omega with
          phi(e + d) != phi(e).  The minimal period of a periodic sequence
          divides every period, so testing divisors of pi suffices.

    Each check is decided at e = 0 (see _first_mismatch), so the result does
    not depend on window_multiplier, and every accepted n is answered.
    """
    if window_multiplier < 2:
        raise ValueError(f"window_multiplier must be at least 2, "
                         f"got {window_multiplier}")
    return _check_claimed_period(spec, period.period_of(spec).pi)


def _check_claimed_period(spec: RingSpec, pi: int) -> PeriodCheck:
    failing = _first_mismatch(spec, pi)
    if failing is not None:
        return PeriodCheck(ok=False, failing_distance=pi, failing_index=failing)
    witnesses: dict[int, int] = {}
    divisors = [1]
    for prime, k in prime_factors(pi).items():
        divisors = [d * prime**j for d in divisors for j in range(k + 1)]
    for d in sorted(divisors)[:-1]:  # the proper divisors of pi, ascending
        witness = _first_mismatch(spec, d)
        if witness is None:
            return PeriodCheck(ok=False, failing_distance=d,
                               divisor_witnesses=witnesses)
        witnesses[d] = witness
    return PeriodCheck(ok=True, divisor_witnesses=witnesses)


def _first_mismatch(spec: RingSpec, d: int) -> int | None:
    """Least e >= 0 with phi(e + d) != phi(e), or None.

    With b = p^e and c = p^(e+d) mod n, both in 0 < b, c < n,
    b(n - b) - c(n - c) = (b - c)(n - b - c), so phi(e + d) == phi(e) exactly
    when c == +-b, that is when p^d == +-1 (mod n), for every e at once: the
    first mismatch is at e = 0 or nowhere.
    """
    return 0 if pow(spec.p, d, spec.n) not in (1, spec.n - 1) else None
