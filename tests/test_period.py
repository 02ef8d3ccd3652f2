import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import hkkit.period
import hkkit.period_verify
from hkkit.closed_form import RingSpec, phi_value
from hkkit.numtheory import multiplicative_order
from hkkit.period import (
    Branch,
    PeriodCheck,
    _check_claimed_period,
    _first_mismatch,
    period_of,
    verify_minimal_period,
)

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

    def test_refuses_a_walk_past_the_step_budget_at_once(self):
        # 2 * (2^63 - 26) steps would never end; the check raises before the first
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the step budget of 16777216 steps"):
            verify_minimal_period(RingSpec(3, 2**63 - 25), 2)
        assert time.perf_counter() - start < 0.01
        assert hkkit.period_verify._STEP_BUDGET == 2**24

    def test_step_budget_edge(self, monkeypatch):
        # window * omega = 2 * 286 for (2, 2003): refused one step under it, run at it
        spec = RingSpec(2, 2003)
        monkeypatch.setattr(hkkit.period_verify, "_STEP_BUDGET", 571)
        with pytest.raises(ValueError, match="window_multiplier \\* omega = 572 exceeds"):
            verify_minimal_period(spec, 2)
        monkeypatch.setattr(hkkit.period_verify, "_STEP_BUDGET", 572)
        assert verify_minimal_period(spec, 2).ok

    def test_detects_non_period_claim(self):
        # 3 is not a period of the (2, 5) profile 4,6,4,6
        spec = RingSpec(2, 5)
        check = _check_claimed_period(spec, 3, 4, window_multiplier=4)
        assert not check.ok
        assert check.failing_distance == 3
        assert check.failing_index is not None
        e = check.failing_index
        assert phi_value(spec, e + 3) != phi_value(spec, e)

    def test_detects_non_minimal_claim(self):
        # 4 is a period of the (2, 5) profile but not the smallest one
        check = _check_claimed_period(RingSpec(2, 5), 4, 4, window_multiplier=4)
        assert not check.ok
        assert check.failing_distance == 2  # divisor with no witness
        assert check.failing_index is None

    def test_builds_no_profile(self):
        # period_of used to build the 100002-entry profile and drop it
        tracemalloc.start()
        try:
            check = verify_minimal_period(RingSpec(2, 100003), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
            assert _check_claimed_period(
                spec, pi, omega, window
            ) == check_claimed_period_by_pow(spec, pi, omega, window)

    @given(
        VALID_SPECS,
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=2, max_value=4),
    )
    def test_matches_reference_on_any_claim(self, pn, pi, omega, window):
        spec = RingSpec(*pn)
        assert _check_claimed_period(
            spec, pi, omega, window
        ) == check_claimed_period_by_pow(spec, pi, omega, window)


def check_claimed_period_by_scan(
    spec: RingSpec, pi: int, omega: int, window_multiplier: int
) -> PeriodCheck:
    # _check_claimed_period with its divisors found by scanning 1..pi-1, as it
    # was before it took them from prime_factors(pi)
    failing = _first_mismatch(spec, pi, window_multiplier * omega + 1)
    if failing is not None:
        return PeriodCheck(ok=False, failing_distance=pi, failing_index=failing)
    witnesses: dict[int, int] = {}
    for d in range(1, pi):
        if pi % d == 0:
            witness = _first_mismatch(spec, d, omega)
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
        got = _check_claimed_period(spec, pi, omega, window)
        want = check_claimed_period_by_scan(spec, pi, omega, window)
        assert got == want
        assert list(got.divisor_witnesses) == list(want.divisor_witnesses)
        return got

    def test_true_periods(self):
        for p, n in self.RINGS:
            spec = RingSpec(p, n)
            report = period_of(spec)
            assert self.assert_same(spec, report.pi, report.omega, 2).ok
            assert verify_minimal_period(spec, 2) == _check_claimed_period(
                spec, report.pi, report.omega, 2)

    def test_multiples_fail_at_the_first_divisor(self):
        # k*pi is a period; of its divisors, the true pi is the first that is one
        for p, n in self.RINGS[::3]:
            spec = RingSpec(p, n)
            report = period_of(spec)
            for k in (2, 6, 12):
                check = self.assert_same(spec, k * report.pi, report.omega, 2)
                assert (check.ok, check.failing_distance) == (False, report.pi)
