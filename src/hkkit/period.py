"""Exact period of the periodic term phi(e) = b(n-b).

The period pi is always omega or omega/2, where omega is the multiplicative
order of p mod n, and the halved case happens exactly when omega is even and
p^(omega/2) == -1 (mod n).
"""

import enum

from .closed_form import RingSpec, _lazy, _Value
from .numtheory import multiplicative_order

__getattr__ = _lazy(__name__, {"period_verify": "PeriodCheck verify_minimal_period "
                                                 "_check_claimed_period _first_mismatch"})


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
        # values b(n-b), b = p^e mod n; phi repeats after pi, since on the
        # halved branch p^pi == -1 maps b to n - b
        n, p, b, cycle = self.spec.n, self.spec.p, 1, []
        for _ in range(self.pi):
            cycle.append(b * (n - b))
            b = b * p % n
        return tuple(cycle)

    @property
    def phi_profile(self) -> tuple[int, ...]:
        """phi(0), ..., phi(omega - 1): the cycle repeated omega/pi times, O(omega).
        cli._cell prints this same layout from the cycle's text."""
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
