"""Closed-form Hilbert-Kunz function of k[[x,y]]/(x^n - y^n) in characteristic p.

With q = p^e and b the representative of q mod n in [1, n-1], the colength of
the Frobenius-power ideal (x^q, y^q) in the quotient ring is exactly

    HK(e) = n * q - b * (n - b),

so the Hilbert-Kunz multiplicity is n and the periodic term is
phi(e) = b * (n - b).  All values are exact integers; e is uncapped.
"""

from collections import namedtuple
from itertools import accumulate, cycle, repeat
from operator import mul, sub

from .numtheory import is_prime

# n must fit in a machine word; only q = p^e is allowed to grow without bound.
_N_MAX = 2**63 - 1
# the Groebner oracle's default cap on q = p^e (groebner.capped_q); it lives here
# so that the CLI's option help reads it without loading the oracle
Q_CAP_DEFAULT = 512


class InvalidRingError(ValueError):
    """A (p, n) pair that does not define a ring of this family."""


class _Value:
    """Base of hkkit's result types: a value is its fields, __match_args__.

    Two values are equal when they are of the same class and their fields are
    equal, a value hashes by its fields, and its repr is Class(field=value, ...).
    Fields are set once, by __init__ writing __dict__; setting or deleting an
    attribute raises dataclasses.FrozenInstanceError.  A mutable type restores
    object's __setattr__ and __delattr__, and sets __hash__ to None.  No
    __slots__: copy and pickle restore a value by filling its __dict__.
    """

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # only on this error path
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class RingSpec(_Value):
    """The pair (p, n) defining k[[x,y]]/(x^n - y^n) over characteristic p.

    The coefficient field k never matters: the colength formula depends only
    on p and n, so k stays implicit (the Groebner oracle fixes the prime
    field, losing nothing).
    """

    __match_args__ = ("p", "n")

    def __init__(self, p: int, n: int) -> None:
        fields = self.__dict__
        fields["p"], fields["n"] = p, n
        self.__post_init__()

    def __post_init__(self) -> None:
        """Refuse a (p, n) outside the family; __init__'s validation hook."""
        if not (isinstance(self.p, int) and isinstance(self.n, int)):
            raise InvalidRingError(f"p and n must be ints, got p={self.p!r}, n={self.n!r}")
        if self.n < 2:
            raise InvalidRingError(f"n must be at least 2, got n={self.n}")
        if self.n > _N_MAX:
            raise InvalidRingError(f"n={self.n} does not fit in a 64-bit word")
        if not is_prime(self.p):
            raise InvalidRingError(f"p must be prime, got p={self.p}")
        if self.n % self.p == 0:
            raise InvalidRingError(
                f"p={self.p} divides n={self.n}: n must not be divisible by "
                "the characteristic"
            )

    @property
    def hk_multiplicity(self) -> int:
        """Leading coefficient of HK(e) against p^e; exactly n for this family."""
        return self.n


class HKRecord(namedtuple("HKRecord", "e q b hk phi")):
    """One table row: e, q = p^e, residue b, HK(e), and phi(e) = b(n-b)."""

    __slots__ = ()


def residue_b(spec: RingSpec, e: int) -> int:
    """The representative of p^e mod n in [1, n-1].

    Never 0: gcd(p, n) = 1 keeps every power of p a unit mod n.
    """
    if e < 0:
        raise ValueError(f"e must be nonnegative, got {e}")
    return pow(spec.p, e, spec.n)


def phi_value(spec: RingSpec, e: int) -> int:
    """Periodic term phi(e) = b(n-b); always in [n-1, floor(n^2/4)]."""
    b = residue_b(spec, e)
    return b * (spec.n - b)


def hk_value(spec: RingSpec, e: int) -> int:
    """HK(e) = n * p^e - b(n-b), exact in unbounded integers."""
    return spec.n * spec.p**e - phi_value(spec, e)


def _rows(spec: RingSpec, e_max: int, q) -> list[HKRecord]:
    """Rows for e = 0..e_max.  q and HK(e) = n*q - phi take the number type of
    the given q = p^0 (hk_table and a short CLI table pass the int 1, a long
    CLI table an exact Decimal), each q one multiplication by p from the last;
    e, b and phi are ints.

    b = p^e mod n walks as an int, b = b * p mod n, until it returns to 1
    after the order of p mod n; that one cycle of b and phi serves every row,
    and phi is turned into q's type once per cycle value, not once per row.
    The columns are built by C-level loops and zipped into records with no
    Python call per row."""
    if e_max < 0:
        raise ValueError(f"e_max must be nonnegative, got {e_max}")
    p, n, number = spec.p, spec.n, type(q)
    bs, b = [], 1
    for _ in range(e_max + 1):
        bs.append(b)
        b = b * p % n
        if b == 1:
            break
    phis = [b * (n - b) for b in bs]
    qs = list(accumulate(repeat(number(p), e_max), mul, initial=q))
    hks = map(sub, map(mul, repeat(number(n)), qs), cycle(map(number, phis)))
    return list(map(tuple.__new__, repeat(HKRecord),
                    zip(range(e_max + 1), qs, cycle(bs), hks, cycle(phis))))


def hk_table(spec: RingSpec, e_max: int) -> list[HKRecord]:
    """Rows for e = 0..e_max, in order, with q built incrementally."""
    return _rows(spec, e_max, 1)
