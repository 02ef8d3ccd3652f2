import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hkkit.numtheory import (
    NoPrimesInClassError,
    NotAUnitError,
    _MR_CERTIFIED_BOUND,
    _MR_TIERS,
    _carmichael,
    _order_dividing,
    _rho_divisor,
    find_prime_in_class,
    is_prime,
    multiplicative_order,
    prime_factors,
)


def _trial_division_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


# OEIS A014233 below the certified bound, each with a proper divisor: psi_k is
# the least odd composite that is a strong pseudoprime to the first k prime
# bases, so a witness tier that ends one row too late answers True on it
PSEUDOPRIMES = [
    (2047, 23),
    (1373653, 829),
    (25326001, 2251),
    (3215031751, 151 * 751),
    (2152302898747, 6763 * 10627),
    (3474749660383, 1303 * 16927),
    (341550071728321, 10670053),
    (3825123056546413051, 149491 * 747451),
    (318665857834031151167461, 399165290221),
]

WITNESS_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _sieve(limit: int) -> bytearray:
    """flags[m] == 1 exactly when m < limit is prime (Eratosthenes)."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for d in range(2, math.isqrt(limit - 1) + 1):
        if flags[d]:
            flags[d * d::d] = bytes(len(range(d * d, limit, d)))
    return flags


def _thirteen_witness_prime(m: int) -> bool:
    """Miller-Rabin on all 13 primes through 41: exact below 3.317e24 (A014233)."""
    if m < 2:
        return False
    if m in WITNESS_PRIMES:
        return True
    if m % 2 == 0:
        return False
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in WITNESS_PRIMES:
        x = pow(w, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def naive_order(a: int, n: int) -> int:
    # the order loop multiplicative_order used to run, kept as the reference
    a %= n
    order, power = 1, a
    while power != 1:
        power = power * a % n
        order += 1
    return order


# (a, n) checked by the defining property of the order, most of them far past
# any naive loop: Mersenne and 2^63 primes, a prime square, a semiprime near
# 2^62, Carmichael numbers, and powers of 2
LARGE_CASES = [
    (3, 2**61 - 1),
    (3, 2**63 - 25),
    (3, (2**31 - 1) ** 2),
    (5, (2**31 - 1) * 2147483659),
    (2, 561),
    (5, 41041),
    (3, 8),
    (3, 2**40),
    (5, 2**63),
    (3, 2**63 - 1),
]


class TestMultiplicativeOrder:
    def test_known_orders(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(2, 5) == 4
        assert multiplicative_order(2, 15) == 4
        assert multiplicative_order(13, 15) == 4
        assert multiplicative_order(2, 9) == 6
        assert multiplicative_order(4, 5) == 2
        assert multiplicative_order(1, 9) == 1

    def test_reduces_argument_mod_n(self):
        assert multiplicative_order(7, 5) == multiplicative_order(2, 5)

    def test_rejects_nonunits(self):
        with pytest.raises(NotAUnitError):
            multiplicative_order(6, 9)
        with pytest.raises(NotAUnitError):
            multiplicative_order(0, 5)
        with pytest.raises(NotAUnitError):
            multiplicative_order(3, 12)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            multiplicative_order(1, 1)

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=59))
    def test_order_is_minimal(self, n, a):
        if math.gcd(a, n) != 1:
            with pytest.raises(NotAUnitError):
                multiplicative_order(a, n)
            return
        d = multiplicative_order(a, n)
        assert pow(a, d, n) == 1
        assert all(pow(a, k, n) != 1 for k in range(1, d))

    def test_matches_naive_loop_exhaustively(self):
        # every modulus below 2000: every unit below 300, then the units among
        # bases 1..23, n-2 and n-1, which keeps the naive loop to seconds
        for n in range(2, 2000):
            bases = range(1, n) if n < 300 else [*range(1, 24), n - 2, n - 1]
            for a in bases:
                if math.gcd(a, n) == 1:
                    assert multiplicative_order(a, n) == naive_order(a, n), (a, n)

    @given(st.integers(min_value=2, max_value=10**5 - 1), st.integers(min_value=1))
    def test_matches_naive_loop(self, n, a):
        if math.gcd(a, n) != 1:
            return
        assert multiplicative_order(a, n) == naive_order(a, n)

    @pytest.mark.parametrize("a, n", LARGE_CASES)
    def test_order_at_large_moduli(self, a, n):
        omega = multiplicative_order(a, n)
        assert pow(a, omega, n) == 1
        for l in prime_factors(omega):
            assert pow(a, omega // l, n) != 1

    def test_large_prime_modulus_is_fast(self):
        start = time.perf_counter()
        assert multiplicative_order(3, 2**63 - 25) == 2**63 - 26  # 3 is a primitive root
        assert time.perf_counter() - start < 0.1

    def test_error_messages(self):
        with pytest.raises(NotAUnitError, match=r"^6 is not a unit modulo 9 \(gcd = 3\)$"):
            multiplicative_order(15, 9)
        with pytest.raises(ValueError, match="^modulus must be at least 2, got 1$"):
            multiplicative_order(1, 1)


class TestOrderHelpers:
    """The two halves of multiplicative_order: lambda(n) from n's factors,
    then each order from a known multiple of it.  enumerate_realizations'
    windowed sieve takes each lambda(q^k) from _prime_power_lambda too."""

    @given(
        st.integers(min_value=2, max_value=10**5 - 1),
        st.integers(min_value=1),
        st.integers(min_value=1, max_value=12),
    )
    def test_order_from_any_multiple(self, n, a, k):
        if math.gcd(a, n) != 1:
            return
        m = k * naive_order(a, n)
        assert _order_dividing(a, n, m, set(prime_factors(m))) == naive_order(a, n)

    def test_carmichael_is_the_least_universal_exponent(self):
        for n in range(2, 300):
            units = [a for a in range(1, n) if math.gcd(a, n) == 1]
            least = next(m for m in range(1, n + 1)
                         if all(pow(a, m, n) == 1 for a in units))
            lam, primes = _carmichael(prime_factors(n))
            assert lam == least, n
            assert set(prime_factors(lam)) <= primes, n


class TestPrimeFactors:
    @pytest.mark.parametrize(
        "m", [1, 2, 12, 561, 41041, 2**64, 3**40, 1031**3, 1031**2 * 1033]
        + [n for _, n in LARGE_CASES],
    )
    def test_multiplies_back_to_primes(self, m):
        factors = prime_factors(m)
        assert math.prod(q**k for q, k in factors.items()) == m
        assert all(is_prime(q) and k >= 1 for q, k in factors.items())
        assert list(factors) == sorted(factors)

    def test_known_factorizations(self):
        assert prime_factors(1) == {}
        assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
        assert prime_factors((2**31 - 1) ** 2) == {2**31 - 1: 2}
        assert prime_factors((2**31 - 1) * 2147483659) == {2**31 - 1: 1, 2147483659: 1}

    @given(st.integers(min_value=1, max_value=2**64))
    def test_random_values(self, m):
        factors = prime_factors(m)
        assert math.prod(q**k for q, k in factors.items()) == m
        assert all(is_prime(q) for q in factors)

    @given(st.lists(st.integers(min_value=2, max_value=2**20), min_size=1, max_size=3))
    def test_products_of_large_parts(self, parts):
        # odd parts of at least 2^10 leave composites past trial division, so
        # rho runs, and a repeated part makes a perfect square; four parts of
        # about 2^20 keep m below 2^81, inside is_prime's certified range
        m = math.prod(q | 1025 for q in parts + parts[:1])
        factors = prime_factors(m)
        assert math.prod(q**k for q, k in factors.items()) == m
        assert all(is_prime(q) for q in factors)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prime_factors(0)

    def test_rho_on_a_prime_is_an_internal_fault(self):
        # prime_factors never hands rho a prime; if it did, the CLI must say
        # "internal fault" (exit 4), not "invalid input" (exit 2)
        with pytest.raises(RuntimeError, match="^7 has no proper divisor"):
            _rho_divisor(7)


class TestIsPrime:
    def test_agrees_with_trial_division_exhaustively(self):
        for m in range(2000):
            assert is_prime(m) == _trial_division_prime(m), m

    def test_carmichael_numbers_rejected(self):
        for m in (561, 1105, 1729, 41041, 825265):
            assert not is_prime(m)

    def test_large_known_values(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)  # divisible by 3
        assert is_prime(18446744073709551557)  # largest prime below 2^64
        assert not is_prime(18446744073709551556)

    def test_witnesses_themselves(self):
        for w in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            assert is_prime(w)

    @pytest.mark.parametrize("psi, divisor", PSEUDOPRIMES)
    def test_strong_pseudoprimes_rejected(self, psi, divisor):
        assert 1 < divisor < psi and divisor * (psi // divisor) == psi
        assert not is_prime(psi)

    def test_tiers_are_a014233(self):
        # every psi_k below the bound is listed above, so each tier edge is tested
        assert [psi for psi, _ in _MR_TIERS[:-1]] == [psi for psi, _ in PSEUDOPRIMES]
        assert _MR_TIERS[-1] == (_MR_CERTIFIED_BOUND, 13)

    def test_agrees_with_sieve_through_two_witness_tiers(self):
        # every m below psi_2 = 1373653: trial division, then one or two bases
        limit = PSEUDOPRIMES[1][0]
        got, flags = bytes(is_prime(m) for m in range(limit)), _sieve(limit)
        assert got == flags, next(m for m in range(limit) if got[m] != flags[m])

    @given(st.integers(min_value=0, max_value=len(PSEUDOPRIMES)).flatmap(
        lambda k: st.integers(
            min_value=PSEUDOPRIMES[k - 1][0] if k else 0,
            max_value=(PSEUDOPRIMES[k][0] if k < len(PSEUDOPRIMES)
                       else _MR_CERTIFIED_BOUND) - 65,
        )
    ))
    def test_agrees_with_thirteen_witnesses_in_every_tier(self, start):
        # 64 consecutive m from a point in one band [psi_(k-1), psi_k), so
        # primes come up at every size, not only composites
        for m in range(start, start + 64):
            assert is_prime(m) == _thirteen_witness_prime(m), m

    def test_refuses_beyond_certified_range(self):
        # the bound is 1287836182261 * 2575672364521, with no factor up to 41,
        # and 2^89 - 1 is prime: both are left to Miller-Rabin, which refuses
        with pytest.raises(ValueError):
            is_prime(_MR_CERTIFIED_BOUND)
        with pytest.raises(ValueError):
            is_prime(2**89 - 1)
        # trial division answers a composite past the bound: 3 divides this one
        assert is_prime(_MR_CERTIFIED_BOUND + 2) is False
        # just below the bound is still answered (even, so composite)
        assert not is_prime(_MR_CERTIFIED_BOUND - 1)


@pytest.mark.parametrize("function", [is_prime, prime_factors])
@pytest.mark.parametrize("m", [2.5, 12.0, Fraction(7, 2), Fraction(7), Decimal(7), "7"],
                         ids=repr)
def test_non_integers_raise_type_error(function, m):
    with pytest.raises(TypeError):  # as math.isqrt does
        function(m)


def test_a_bool_is_an_int():
    assert not is_prime(True) and prime_factors(True) == {}


class TestFindPrimeInClass:
    def test_smallest_member_wins(self):
        assert find_prime_in_class(2, 5, 100) == 2
        assert find_prime_in_class(1, 4, 100) == 5
        assert find_prime_in_class(7, 15, 100) == 7
        assert find_prime_in_class(3, 10, 100) == 3

    def test_limit_is_inclusive(self):
        assert find_prime_in_class(11, 12, 11) == 11
        assert find_prime_in_class(11, 12, 10) is None

    def test_none_when_class_holds_no_small_prime(self):
        assert find_prime_in_class(1, 100, 100) is None

    def test_shared_factor_means_no_primes(self):
        with pytest.raises(NoPrimesInClassError):
            find_prime_in_class(2, 4, 100)
        with pytest.raises(NoPrimesInClassError):
            find_prime_in_class(6, 9, 100)
        with pytest.raises(NoPrimesInClassError):
            find_prime_in_class(0, 5, 100)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            find_prime_in_class(2, 0, 100)
        with pytest.raises(ValueError):
            find_prime_in_class(2, 5, 1)

    def test_negative_residue_starts_at_least_nonnegative_member(self):
        # about 1.7e11 members of the class lie below 0; none of them may be visited
        start = time.perf_counter()
        assert find_prime_in_class(-10**12 - 1, 6, 100) == 7
        assert time.perf_counter() - start < 0.5
        assert find_prime_in_class(-1, 6, 100) == 5
        assert find_prime_in_class(-7, 1, 100) == 2
        assert find_prime_in_class(-10**12 - 1, 6, 6) is None

    @given(st.integers(min_value=-10**15, max_value=-1), st.integers(min_value=1, max_value=30))
    def test_negative_residue_gives_least_prime_in_class(self, r, s):
        if math.gcd(r, s) != 1:
            return
        least = next((c for c in range(2, 1001) if c % s == r % s and is_prime(c)), None)
        assert find_prime_in_class(r, s, 1000) == least

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=2, max_value=30))
    def test_found_prime_is_least_in_class(self, r, s):
        if math.gcd(r, s) != 1:
            with pytest.raises(NoPrimesInClassError):
                find_prime_in_class(r, s, 1000)
            return
        p = find_prime_in_class(r, s, 1000)
        assert p is not None  # Dirichlet: plenty of room below 1000 for s <= 30
        assert p % s == r % s
        assert is_prime(p)
        assert all(
            not is_prime(candidate) for candidate in range(r, p, s) if candidate >= 2
        )
