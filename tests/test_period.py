import math
import time
from collections.abc import Mapping

import pytest
from hypothesis import given, strategies as st

import hkkit.period
from hkkit.closed_form import RingSpec, phi_value
from hkkit.numtheory import multiplicative_order, prime_factors
from hkkit.period import (Branch, PeriodCheck, _check_claimed_period, _is_period, period_of,
                          verify_minimal_period)
from measure import traced

VALID_SPECS = st.sampled_from(
    [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(2, 40) if n % p != 0]
)
WIDER_SPECS = st.tuples(
    st.sampled_from([p for p in range(2, 60) if all(p % k for k in range(2, p))]),
    st.integers(min_value=2, max_value=399),
).filter(lambda pn: pn[1] % pn[0] != 0)


def _brute_minimal_period(spec: RingSpec, omega: int) -> int:
    # smallest shift that fixes the phi sequence on a window twice omega wide
    profile = [phi_value(spec, e) for e in range(3 * omega)]
    for d in range(1, omega + 1):
        if all(profile[e + d] == profile[e] for e in range(2 * omega)):
            return d
    raise AssertionError("omega itself is always a period")


def check_claimed_period_by_pow(
    spec: RingSpec, pi: int, omega: int, window_multiplier: int
) -> PeriodCheck:
    # _check_claimed_period as it was, one pow per index, kept as the reference
    for e in range(window_multiplier * omega + 1):
        if phi_value(spec, e + pi) != phi_value(spec, e):
            return PeriodCheck(ok=False, failing_distance=pi, failing_index=e)
    witnesses: dict[int, int] = {}
    for d in range(1, pi):
        if pi % d != 0:
            continue
        for e in range(omega):
            if phi_value(spec, e + d) != phi_value(spec, e):
                witnesses[d] = e
                break
        else:
            return PeriodCheck(
                ok=False, failing_distance=d, divisor_witnesses=witnesses
            )
    return PeriodCheck(ok=True, divisor_witnesses=witnesses)


class TestPeriodOf:
    def test_halved_branch_p2_n5(self):
        report = period_of(RingSpec(2, 5))
        assert report.omega == 4
        assert report.pi == 2
        assert report.branch is Branch.HALF
        assert report.involution_check is True
        assert report.phi_profile == (4, 6, 4, 6)

    def test_full_branch_odd_order_p2_n7(self):
        report = period_of(RingSpec(2, 7))
        assert report.omega == 3
        assert report.pi == 3
        assert report.branch is Branch.FULL
        assert report.involution_check is False
        assert report.phi_profile == (6, 10, 12)

    def test_full_branch_even_order_n15(self):
        for p in (2, 13):
            report = period_of(RingSpec(p, 15))
            assert report.omega == 4
            assert report.pi == 4
            assert report.branch is Branch.FULL
            assert report.involution_check is False
            assert report.phi_profile == (14, 26, 44, 56)

    def test_trivial_order_n2(self):
        report = period_of(RingSpec(3, 2))
        assert report.omega == 1
        assert report.pi == 1
        assert report.branch is Branch.FULL
        assert report.phi_profile == (1,)

    def test_profile_length_is_omega(self):
        for p, n in ((2, 11), (3, 11), (5, 13), (7, 16)):
            report = period_of(RingSpec(p, n))
            assert len(report.phi_profile) == report.omega
            assert report.phi_profile == tuple(
                phi_value(RingSpec(p, n), e) for e in range(report.omega)
            )

    def test_large_modulus_is_fast(self):
        # the bound covers the omega-long profile build, not only classifying
        start = time.perf_counter()
        report = period_of(RingSpec(2, 1000003))
        profile = report.phi_profile  # rebuilt on every read
        assert time.perf_counter() - start < 0.6
        assert report.omega == len(profile) == 1000002
        assert profile[:3] == (1000002, 2000002, 3999996)
        assert profile[-1] == phi_value(RingSpec(2, 1000003), 1000001)

    def test_classifies_near_word_limit(self):
        # the profile would hold about 4.6 * 10^18 entries; classifying needs none
        start = time.perf_counter()
        report = period_of(RingSpec(3, 2**63 - 25))
        assert time.perf_counter() - start < 0.1
        assert report.omega == 2**63 - 26
        assert report.pi == 2**62 - 13
        assert report.branch is Branch.HALF
        assert report.involution_check is True

    @given(VALID_SPECS)
    def test_branch_rule(self, pn):
        p, n = pn
        spec = RingSpec(p, n)
        report = period_of(spec)
        omega = multiplicative_order(p, n)
        assert report.omega == omega
        assert report.phi_profile == tuple(phi_value(spec, e) for e in range(omega))
        halved = omega % 2 == 0 and pow(p, omega // 2, n) == n - 1
        assert report.involution_check == halved
        if halved:
            assert report.branch is Branch.HALF
            assert report.pi == omega // 2
        else:
            assert report.branch is Branch.FULL
            assert report.pi == omega

    @given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(2, 20000),
           st.sampled_from([1, 2, 3, 4096]))
    def test_cycle_is_the_naive_walk(self, p, n, block):
        # at any block size, pi past 4,096 included: one list per block, then chained
        if n % p == 0:
            n += 1
        spec = RingSpec(p, n)
        report, saved = period_of(spec), hkkit.period._BLOCK
        b, naive = 1, []
        for _ in range(report.pi):
            naive.append(b * (n - b))
            b = b * p % n
        hkkit.period._BLOCK = block
        try:
            assert report.cycle == tuple(naive)
        finally:
            hkkit.period._BLOCK = saved

    @given(VALID_SPECS)
    def test_pi_is_the_minimal_period(self, pn):
        p, n = pn
        spec = RingSpec(p, n)
        report = period_of(spec)
        assert report.pi == _brute_minimal_period(spec, report.omega)


class TestVerifyMinimalPeriod:
    def test_accepts_true_period(self):
        for p, n in ((2, 5), (2, 7), (2, 15), (13, 15), (3, 2), (2, 17)):
            check = verify_minimal_period(RingSpec(p, n), window_multiplier=4)
            assert check.ok
            assert bool(check)
            assert check.failing_distance is None
            assert check.failing_index is None

    def test_divisor_witnesses_cover_proper_divisors(self):
        spec = RingSpec(2, 17)  # pi = 4, proper divisors 1 and 2
        check = verify_minimal_period(spec, window_multiplier=4)
        assert check.ok
        assert set(check.divisor_witnesses) == {1, 2}
        for d, e in check.divisor_witnesses.items():
            assert phi_value(spec, e + d) != phi_value(spec, e)

    def test_rejects_small_window(self):
        with pytest.raises(ValueError):
            verify_minimal_period(RingSpec(2, 5), window_multiplier=1)
        with pytest.raises(ValueError):
            verify_minimal_period(RingSpec(2, 5), window_multiplier=0)

    def test_answers_near_the_word_limit_at_once(self):
        # 2 * (2^63 - 26) + 1 values of phi, decided at e = 0 by one pow per divisor
        spec = RingSpec(3, 2**63 - 25)
        start = time.perf_counter()
        check = verify_minimal_period(spec, 2)
        assert time.perf_counter() - start < 0.1
        assert check.ok
        assert check == _check_claimed_period(spec, 2**62 - 13)
        assert not hasattr(hkkit.period, "_STEP_BUDGET")

    def test_detects_non_period_claim(self):
        # 3 is not a period of the (2, 5) profile 4,6,4,6
        spec = RingSpec(2, 5)
        check = _check_claimed_period(spec, 3)
        assert not check.ok
        assert check.failing_distance == 3
        assert check.failing_index is not None
        e = check.failing_index
        assert phi_value(spec, e + 3) != phi_value(spec, e)

    def test_detects_non_minimal_claim(self):
        # 4 is a period of the (2, 5) profile but not the smallest one
        check = _check_claimed_period(RingSpec(2, 5), 4)
        assert not check.ok
        assert check.failing_distance == 2  # divisor with no witness
        assert check.failing_index is None

    def test_builds_no_profile(self):
        # period_of used to build the 100002-entry profile and drop it
        check, _, peak = traced(verify_minimal_period, RingSpec(2, 100003), 2)
        assert check.ok
        assert peak < 10**6

    @given(WIDER_SPECS)
    def test_every_divisor_witness_is_zero(self, pn):
        # x -> x(n-x) identifies x only with n-x on [1, n-1], so phi(e+d) ==
        # phi(e) holds iff p^d == +-1 (mod n), for every e at once
        check = verify_minimal_period(RingSpec(*pn), 2)
        assert check.ok
        assert set(check.divisor_witnesses.values()) <= {0}

    def test_check_is_falsy_when_failed(self):
        assert not PeriodCheck(ok=False, failing_distance=1, failing_index=0)

    @pytest.mark.parametrize(
        "p, n, pi, omega",
        [
            (2, 17, 4, 8),  # the true period
            (3, 31, 15, 30),  # the true period, many divisors
            (2, 5, 3, 4),  # not a period: fails at an index
            (2, 7, 2, 3),  # not a period, odd order
            (2, 5, 4, 4),  # a period whose divisor 2 is a period too
            (2, 31, 10, 5),  # divisor 5 is the period
            (3, 2, 1, 1),  # trivial ring
        ],
    )
    def test_matches_pow_per_index_reference(self, p, n, pi, omega):
        spec = RingSpec(p, n)
        for window in (2, 4):
            assert _check_claimed_period(spec, pi) == check_claimed_period_by_pow(
                spec, pi, omega, window)

    @given(
        VALID_SPECS,
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=2, max_value=4),
    )
    def test_matches_reference_on_any_claim(self, pn, pi, omega, window):
        spec = RingSpec(*pn)
        assert _check_claimed_period(spec, pi) == check_claimed_period_by_pow(
            spec, pi, omega, window)


def first_mismatch_by_walk(spec: RingSpec, d: int, count: int) -> int | None:
    # the least e < count with phi(e + d) != phi(e), or None, from b = p^e and
    # c = p^(e+d) mod n walked side by side, one multiplication each per index
    n, p = spec.n, spec.p
    b, c = 1, pow(p, d, n)
    for e in range(count):
        if b * (n - b) != c * (n - c):
            return e
        b = b * p % n
        c = c * p % n
    return None


# rings near 2^63: p = 2 has order 63 at 2^63 - 1 (FULL) and 124 at 2^62 + 1
# (HALF), so multiples of pi reach the None answer; the rest have huge orders
NEAR_WORD_LIMIT = st.sampled_from([(2, 2**63 - 1), (2, 2**62 + 1), (3, 2**63 - 1),
                                   (3, 2**63 - 25), (5, 2**63 - 25), (7, 2**63 - 2)])


class TestFirstMismatch:
    """_is_period decides at e = 0 what the walk over any count >= 1 of
    indices finds: a d that is no period mismatches at e = 0."""

    @given(st.one_of(WIDER_SPECS, NEAR_WORD_LIMIT), st.integers(1, 10**6),
           st.integers(1, 64), st.booleans())
    def test_matches_the_walk(self, pn, d, count, onto_a_period):
        spec = RingSpec(*pn)
        pi = period_of(spec).pi
        if onto_a_period and pi <= d:  # a multiple of pi, where phi never mismatches
            d -= d % pi
        assert (None if _is_period(spec.p, spec.n, d) else 0) == (
            first_mismatch_by_walk(spec, d, count))


def check_claimed_period_by_scan(
    spec: RingSpec, pi: int, omega: int, window_multiplier: int
) -> PeriodCheck:
    # _check_claimed_period with its divisors found by scanning 1..pi-1, as it
    # was before it took them from prime_factors(pi), and its walk as it was
    failing = first_mismatch_by_walk(spec, pi, window_multiplier * omega + 1)
    if failing is not None:
        return PeriodCheck(ok=False, failing_distance=pi, failing_index=failing)
    witnesses: dict[int, int] = {}
    for d in range(1, pi):
        if pi % d == 0:
            witness = first_mismatch_by_walk(spec, d, omega)
            if witness is None:
                return PeriodCheck(ok=False, failing_distance=d, divisor_witnesses=witnesses)
            witnesses[d] = witness
    return PeriodCheck(ok=True, divisor_witnesses=witnesses)


class TestDivisorsFromFactors:
    """The proper divisors of pi come from its factorization, ascending: the
    same witnesses, in the same order, and the same first failing divisor as
    the scan over 1..pi-1 gives."""

    RINGS = [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(2, 600) if n % p]

    @staticmethod
    def assert_same(spec, pi, omega, window):
        got = _check_claimed_period(spec, pi)
        want = check_claimed_period_by_scan(spec, pi, omega, window)
        assert got == want
        assert list(got.divisor_witnesses) == list(want.divisor_witnesses)
        return got

    def test_true_periods(self):
        for p, n in self.RINGS:
            spec = RingSpec(p, n)
            report = period_of(spec)
            assert self.assert_same(spec, report.pi, report.omega, 2).ok
            assert verify_minimal_period(spec, 2) == _check_claimed_period(spec, report.pi)

    def test_multiples_fail_at_the_first_divisor(self):
        # k*pi is a period; of its divisors, the true pi is the first that is one
        for p, n in self.RINGS[::3]:
            spec = RingSpec(p, n)
            report = period_of(spec)
            for k in (2, 6, 12):
                check = self.assert_same(spec, k * report.pi, report.omega, 2)
                assert (check.ok, check.failing_distance) == (False, report.pi)


# 47#, the product of the 15 primes up to 47: 2^15 = 32,768 divisors
P47 = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])


def count_is_period(monkeypatch) -> list[int]:
    """Patch _is_period to record each d it is asked about, in order."""
    asked = []

    def counted(p, n, d):
        asked.append(d)
        return _is_period(p, n, d)

    monkeypatch.setattr(hkkit.period, "_is_period", counted)
    return asked


class TestLeastPeriodByStripping:
    """_check_claimed_period asks _is_period about the claim, then about the
    quotients left by stripping each prime of it, and about no other divisor."""

    @staticmethod
    def many_divisors() -> RingSpec:
        # 14 * 47# + 1 is prime, 2 has order 2 * 47# mod it, and pi = 47#
        return RingSpec(2, 14 * P47 + 1)

    def test_the_true_period_costs_one_question_and_one_per_prime(self, monkeypatch):
        asked = count_is_period(monkeypatch)
        check = verify_minimal_period(self.many_divisors())
        assert check.ok
        assert len(check.divisor_witnesses) == 2**15 - 1
        assert set(check.divisor_witnesses.values()) == {0}
        assert asked == [P47, *(P47 // l for l in prime_factors(P47))]
        assert len(asked) == 16  # pi, then pi/l for each of its 15 primes

    def test_a_multiple_is_stripped_to_the_true_period(self, monkeypatch):
        asked = count_is_period(monkeypatch)
        check = _check_claimed_period(self.many_divisors(), 2 * P47)
        assert (check.ok, check.failing_distance, check.failing_index) == (False, P47, None)
        assert len(check.divisor_witnesses) == 3 * 2**14 - 2  # 2 * 47#'s, less 47# and itself
        assert asked == [2 * P47, P47, *(P47 // l for l in prime_factors(P47))]
        assert len(asked) == 17

    @pytest.mark.parametrize("p, n, pi, k", [
        (2, 35, 12, 4),  # 48: two strips of 2, then 2 and 3 stay
        (2, 35, 12, 12),  # 144: two strips each of 2 and 3
        (2, 37, 18, 6),  # 108 on the halved branch: omega = 36
        (2, 73, 9, 25),  # 225: 5 stripped twice, 3 kept
        (2, 51, 8, 45),  # 360: 3 twice and 5 stripped, 2 kept
        (2, 19, 9, 14),  # 126, halved too: omega = 18
    ])
    def test_the_least_period_several_strips_below_the_claim(self, p, n, pi, k):
        spec = RingSpec(p, n)
        report = period_of(spec)
        assert report.pi == pi
        check = _check_claimed_period(spec, k * pi)
        assert (check.ok, check.failing_distance) == (False, pi)
        assert list(check.divisor_witnesses) == [d for d in range(1, pi) if k * pi % d == 0]
        assert check == check_claimed_period_by_pow(spec, k * pi, report.omega, 2)

    def test_window_multiplier_defaults_to_2(self):
        for p, n in ((2, 5), (2, 17), (3, 31), (3, 2), (2, 35)):
            spec = RingSpec(p, n)
            assert verify_minimal_period(spec) == verify_minimal_period(spec, 2)
        with pytest.raises(ValueError, match="^window_multiplier must be at least 2, got 1$"):
            verify_minimal_period(RingSpec(2, 5), 1)


# Miller-Rabin on J. Sinclair's seven bases (2011), deterministic below 2^64;
# a base that the candidate divides proves nothing and is skipped
SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime_by_sinclair(m: int) -> bool:
    assert m < 2**64
    if m < 2 or m % 2 == 0:
        return m == 2
    t, s = m - 1, 0
    while t % 2 == 0:
        t, s = t // 2, s + 1
    for a in SINCLAIR_BASES:
        if a % m == 0:
            continue
        x = pow(a, t, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def has_period_evidence(spec: RingSpec, pi: int, factors: Mapping[int, int]) -> bool:
    # pi is the least d >= 1 with p^d == +-1 (mod n), so the minimal period of
    # phi from e = 0 on (the identity in _is_period); such d are the
    # multiples of the least one, so p^pi == +-1 and p^(pi/r) != +-1 for each
    # prime r | pi leave pi itself.  The factors of pi are multiplied back and
    # proved prime here: the evidence shares only pow with numtheory
    n, p = spec.n, spec.p
    return (math.prod(r**k for r, k in factors.items()) == pi
            and all(k >= 1 and is_prime_by_sinclair(r) for r, k in factors.items())
            and pow(p, pi, n) in (1, n - 1)
            and all(pow(p, pi // r, n) not in (1, n - 1) for r in factors))


def check_with_evidence(spec: RingSpec) -> bool:
    """verify_minimal_period(spec, 2) accepts pi, with witness 0 for each
    proper divisor, and pi has the evidence above."""
    pi = period_of(spec).pi
    factors = prime_factors(pi)
    divisors = {1}
    for r, k in factors.items():
        divisors = {d * r**j for d in divisors for j in range(k + 1)}
    want = PeriodCheck(ok=True, divisor_witnesses=dict.fromkeys(divisors - {pi}, 0))
    return has_period_evidence(spec, pi, factors) and verify_minimal_period(spec, 2) == want


def largest_prime_below(m: int) -> int:
    m -= 1
    while not is_prime_by_sinclair(m):
        m -= 1
    return m


class TestPeriodEvidence:
    def test_sinclair_bases_against_trial_division(self):
        for m in range(10**4):
            divisors = [k for k in range(2, math.isqrt(m) + 1) if m % k == 0]
            assert is_prime_by_sinclair(m) == (m > 1 and not divisors)
        # strong pseudoprimes to base 2, to the bases 2..7 and to the primes 2..23
        assert not any(map(is_prime_by_sinclair, (2047, 3215031751, 3825123056546413051)))
        assert is_prime_by_sinclair(2**61 - 1) and is_prime_by_sinclair(2**63 - 25)
        assert not is_prime_by_sinclair(2**63 - 1)

    def test_evidence_refuses_a_wrong_period_or_factorization(self):
        spec = RingSpec(3, 2**63 - 25)
        pi = period_of(spec).pi
        assert has_period_evidence(spec, pi, prime_factors(pi))
        assert not has_period_evidence(spec, 2 * pi, prime_factors(2 * pi))  # not minimal
        assert not has_period_evidence(spec, pi - 1, prime_factors(pi - 1))  # no period
        assert not has_period_evidence(spec, pi, {pi: 1})  # a composite "prime"
        assert not has_period_evidence(spec, pi, {**prime_factors(pi), 5: 1})  # product

    def test_evidence_at_every_word_size(self):
        # p = 3 at the largest prime below 2^k, k = 40..63; that of 2^63 is 2^63 - 25
        moduli = [largest_prime_below(2**k) for k in range(40, 64)]
        assert moduli[-1] == 2**63 - 25
        branches = set()
        for n in moduli:
            spec = RingSpec(3, n)
            assert check_with_evidence(spec), n
            branches.add(period_of(spec).branch)
        assert branches == {Branch.HALF, Branch.FULL}
