import importlib
import math
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import hkkit.cli
from hkkit.closed_form import RingSpec
from hkkit.numtheory import _carmichael, is_prime, multiplicative_order, prime_factors
from hkkit.period import Branch, PeriodReport, period_of, verify_minimal_period
from hkkit.realize import (
    RealizationResult,
    SearchExhausted,
    SearchStats,
    enumerate_realizations,
    realize,
)
from measure import traced
from test_numtheory import naive_order


def realize_by_scan(pi: int, n_limit: int, p_limit: int):
    """realize as it was: a naive order loop for every residue r in [2, n-1].

    Kept as the reference; returns (spec, residue_used, stats), or the
    stats when the search exhausts.  Each class is walked member by member,
    so p_candidates is counted apart from realize's own arithmetic.
    """
    stats = SearchStats()
    step = 2 * pi
    n = 1 + step
    while n <= n_limit:
        stats.n_candidates += 1
        if is_prime(n):
            for r in range(2, n):
                if naive_order(r, n) != step:
                    continue
                for cand in range(r, p_limit + 1, n):
                    stats.p_candidates += 1
                    if is_prime(cand):
                        return RingSpec(cand, n), r, stats
        n += step
    return stats


def enumerate_by_sweep(pi: int, n_limit: int, p_limit: int, max_results: int):
    """enumerate_realizations as it was: period_of on every ring in the box."""
    primes = [p for p in range(2, p_limit + 1) if is_prime(p)]
    stats = SearchStats()
    results = []
    for n in range(2, n_limit + 1):
        stats.n_candidates += 1
        for p in primes:
            if n % p == 0:
                continue
            stats.p_candidates += 1
            spec = RingSpec(p, n)
            report = period_of(spec)
            if report.pi != pi:
                continue
            results.append(
                RealizationResult(pi, spec, report, None,
                                  SearchStats(stats.n_candidates, stats.p_candidates))
            )
            if len(results) >= max_results:
                return results
    return results


class TestRealize:
    def test_smallest_constructions(self):
        result = realize(1)
        assert (result.spec.p, result.spec.n) == (2, 3)
        result = realize(2)
        assert (result.spec.p, result.spec.n) == (2, 5)
        assert result.residue_used == 2
        result = realize(3)
        assert (result.spec.p, result.spec.n) == (3, 7)

    def test_construction_invariants(self):
        # the progression construction always lands on the halved branch
        for pi in range(1, 9):
            result = realize(pi)
            spec = result.spec
            assert result.target_pi == pi
            assert result.report.pi == pi
            assert result.report.omega == 2 * pi
            assert result.report.branch is Branch.HALF
            assert is_prime(spec.n)
            assert spec.n % (2 * pi) == 1
            assert result.residue_used is not None
            assert multiplicative_order(result.residue_used, spec.n) == 2 * pi
            assert spec.p % spec.n == result.residue_used
            assert verify_minimal_period(spec, window_multiplier=4)

    def test_search_stats_counted(self):
        result = realize(2)
        assert result.search_stats.n_candidates == 1  # n = 5 examined first
        assert result.search_stats.p_candidates == 1  # p = 2 found immediately

    def test_exhaustion_by_modulus_limit(self):
        with pytest.raises(SearchExhausted) as info:
            realize(7, n_limit=3, p_limit=100)
        exc = info.value
        assert exc.target_pi == 7
        assert exc.n_limit == 3
        assert exc.p_limit == 100
        assert exc.stats.n_candidates == 0
        assert exc.stats.p_candidates == 0
        assert "no realization" in str(exc)

    def test_exhaustion_by_characteristic_limit(self):
        # moduli 7, 13, 19, 25, 31 are scanned, but 2 has order 3, 12, 18, -,
        # 5 modulo them, never 6, so no class of order 6 contains a prime <= 2
        with pytest.raises(SearchExhausted) as info:
            realize(3, n_limit=31, p_limit=2)
        assert info.value.stats.n_candidates == 5
        assert info.value.stats.p_candidates == 0

    def test_matches_naive_scan_reference(self):
        for pi in range(1, 201):
            result = realize(pi)
            spec, residue, stats = realize_by_scan(pi, 10_000, 10_000)
            assert (result.spec, result.residue_used, result.search_stats) == (
                spec,
                residue,
                stats,
            ), pi

    @pytest.mark.parametrize(
        "pi, n_limit, p_limit",
        [(3, 31, 2), (6, 100, 12), (10, 1000, 20), (50, 2000, 50), (2, 5, 2), (12, 400, 30)],
    )
    def test_matches_reference_under_small_limits(self, pi, n_limit, p_limit):
        want = realize_by_scan(pi, n_limit, p_limit)
        if isinstance(want, SearchStats):
            with pytest.raises(SearchExhausted) as info:
                realize(pi, n_limit, p_limit)
            assert info.value.stats == want
        else:
            result = realize(pi, n_limit, p_limit)
            assert (result.spec, result.residue_used, result.search_stats) == want

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            realize(0)
        with pytest.raises(ValueError):
            realize(-1)
        with pytest.raises(ValueError):
            realize(2, n_limit=1)
        with pytest.raises(ValueError):
            realize(2, p_limit=0)

    def test_large_period_builds_no_profile(self):
        # building the 10^7-entry phi_profile took 0.89 s and a 324 MB peak
        result, elapsed, peak = traced(realize, 5 * 10**6, 10**12, 10**12)
        assert elapsed < 0.1
        assert peak < 10**6
        assert result.spec == RingSpec(7, 30000001)
        assert (result.report.omega, result.report.branch) == (10**7, Branch.HALF)

    def test_period_near_word_limit_is_fast(self):
        start = time.perf_counter()
        result = realize(10**15, 2**63 - 1, 2**63 - 1)
        assert time.perf_counter() - start < 0.1
        assert result.spec == RingSpec(84000000000000047, 6000000000000001)
        assert result.report.pi == 10**15


class TestEnumerateRealizations:
    def test_matches_hand_enumeration_for_period_2(self):
        results = enumerate_realizations(2, n_limit=10, p_limit=10, max_results=50)
        pairs = [(r.spec.n, r.spec.p) for r in results]
        assert pairs == [(5, 2), (5, 3), (5, 7), (8, 3), (8, 5), (10, 3), (10, 7)]
        for r in results:
            assert r.report.pi == 2
            assert r.residue_used is None

    def test_finds_full_branch_composite_modulus(self):
        results = enumerate_realizations(2, n_limit=10, p_limit=10, max_results=50)
        by_pair = {(r.spec.p, r.spec.n): r for r in results}
        assert by_pair[(3, 8)].report.branch is Branch.FULL
        assert by_pair[(2, 5)].report.branch is Branch.HALF

    def test_truncates_at_max_results(self):
        results = enumerate_realizations(2, n_limit=10, p_limit=10, max_results=3)
        assert [(r.spec.n, r.spec.p) for r in results] == [(5, 2), (5, 3), (5, 7)]

    def test_stats_snapshots_are_nondecreasing(self):
        results = enumerate_realizations(1, n_limit=8, p_limit=8, max_results=50)
        assert len(results) >= 2
        counts = [
            (r.search_stats.n_candidates, r.search_stats.p_candidates)
            for r in results
        ]
        assert counts == sorted(counts)
        # snapshots must be independent objects, not views of one counter
        assert len(set(counts)) == len(counts)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_realizations(0, 10, 10, 5)
        with pytest.raises(ValueError):
            enumerate_realizations(2, 1, 10, 5)
        with pytest.raises(ValueError):
            enumerate_realizations(2, 10, 1, 5)
        with pytest.raises(ValueError):
            enumerate_realizations(2, 10, 10, 0)

    @pytest.mark.parametrize("p_limit", [10**30, sys.maxsize])
    def test_refuses_a_p_limit_no_sieve_can_index(self, p_limit):
        # refused as bad input before the sieve allocates, not as an
        # OverflowError or MemoryError from its bytearray
        with pytest.raises(ValueError, match=f"p_limit must be below {sys.maxsize}, "
                                             f"got {p_limit}"):
            enumerate_realizations(2, 10, p_limit, 1)

    @pytest.mark.parametrize(
        "pi, n_limit, p_limit",
        [(1, 60, 60), (2, 80, 50), (3, 50, 90), (4, 100, 100), (6, 120, 70), (10, 90, 90)],
    )
    def test_matches_full_sweep_reference(self, pi, n_limit, p_limit):
        full = enumerate_by_sweep(pi, n_limit, p_limit, 10**6)
        assert enumerate_realizations(pi, n_limit, p_limit, 10**6) == full
        for max_results in (1, 3, max(1, len(full) - 1)):
            assert enumerate_realizations(
                pi, n_limit, p_limit, max_results
            ) == enumerate_by_sweep(pi, n_limit, p_limit, max_results)

    def test_large_box_is_fast(self):
        start = time.perf_counter()
        results = enumerate_realizations(6, 300, 300, 10**6)
        assert time.perf_counter() - start < 0.3
        assert results
        assert all(r.report.pi == 6 for r in results)

    @given(
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=2, max_value=80),
        st.integers(min_value=2, max_value=80),
        st.integers(min_value=1, max_value=10**6),
    )
    @example(2**89 - 1, 80, 80, 10**6)  # 2*pi past is_prime's certified range
    @example(10**30, 80, 80, 10**6)  # 2*pi with a large composite cofactor
    @settings(max_examples=50, deadline=None)
    def test_matches_sweep_reference_anywhere(self, pi, n_limit, p_limit, max_results):
        # pi is factored only at a modulus whose lambda(n) it divides, so
        # these two pi, far past every lambda(n) of the box, are never factored
        assert enumerate_realizations(pi, n_limit, p_limit, max_results) == (
            enumerate_by_sweep(pi, n_limit, p_limit, max_results)
        )

    def test_box_classifies_without_period_of(self, monkeypatch):
        # lambda(n) comes from the sieve: no per-ring order or period call,
        # and a RingSpec (one Miller-Rabin on p) only for each result
        def refuse(*args):
            raise AssertionError("called per ring")

        # refused in every hkkit module that holds either name
        patched = set()
        for key, module in list(sys.modules.items()):
            if key.startswith("hkkit."):
                for name in {"period_of", "multiplicative_order"} & set(vars(module)):
                    monkeypatch.setattr(module, name, refuse)
                    patched.add((key, name))
        assert {("hkkit.period", "period_of"), ("hkkit.realize", "period_of"),
                ("hkkit.numtheory", "multiplicative_order")} <= patched
        built = []
        init = RingSpec.__init__

        def counted(spec, p, n):
            init(spec, p, n)
            built.append(spec)

        monkeypatch.setattr(RingSpec, "__init__", counted)
        results = enumerate_realizations(6, 300, 300, 10**6)
        assert len(results) == len(built) == 1017
        assert [r.spec for r in results] == built

    def test_moduli_without_pi_in_gcd_are_skipped(self, monkeypatch):
        # pi | omega | gcd(2*pi, lambda(n)) for any ring of period pi, so an n
        # where pi does not divide that gcd never needs a period test
        realize_module = importlib.import_module("hkkit.realize")
        honest, reached = realize_module._is_period, set()

        def counted(p, n, d):
            reached.add(n)
            return honest(p, n, d)

        monkeypatch.setattr(realize_module, "_is_period", counted)
        pi, box = 24, 300
        results = enumerate_realizations(pi, box, box, 10**6)
        lam = {n: math.lcm(*(multiplicative_order(a, n) for a in range(1, n)
                             if math.gcd(a, n) == 1))
               for n in range(2, box + 1)}
        skipped = {n for n in lam if math.gcd(2 * pi, lam[n]) % pi != 0}
        assert reached and skipped and not reached & skipped
        assert {r.spec.n for r in results} <= reached

    @given(
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=2, max_value=120),
        st.integers(min_value=2, max_value=80),
        st.integers(min_value=1, max_value=10**6),
    )
    @example(2, 120, 80, 10**6)
    @settings(max_examples=50, deadline=None)
    def test_window_edges_change_nothing(self, pi, n_limit, p_limit, max_results):
        # windows of 7 moduli, so a box crosses many window edges
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(importlib.import_module("hkkit.realize"), "_WINDOW", 7)
            got = enumerate_realizations(pi, n_limit, p_limit, max_results)
        assert got == enumerate_by_sweep(pi, n_limit, p_limit, max_results)

    def test_sieve_matches_factoring(self, monkeypatch):
        realize_module = importlib.import_module("hkkit.realize")
        monkeypatch.setattr(realize_module, "_WINDOW", 64)
        swept = list(realize_module._moduli(3000))
        assert [n for n, _, _ in swept] == list(range(2, 3001))
        # the window is read per sweep: the first 64 moduli take the
        # sieving primes up to sqrt(65), tested one integer at a time
        tested = []
        monkeypatch.setattr(realize_module, "is_prime", lambda m: tested.append(m) or is_prime(m))
        next(realize_module._moduli(3000))
        assert tested == list(range(2, 9))
        for n, lam, primes in swept:
            factors = prime_factors(n)
            assert (lam, primes) == (_carmichael(factors)[0], list(factors)), n

    def test_census_count(self):
        assert len(enumerate_realizations(6, 30000, 300, 10**6)) == 8304

    def test_sweep_memory_is_not_linear_in_n_limit(self):
        # one window of 2^14 moduli at a time: about 4.5 MB traced at any
        # n_limit; one window over all 2*10^5 moduli peaks at about 33 MB
        results, _, peak = traced(enumerate_realizations, 6, 2 * 10**5, 3, 10**6)
        assert peak < 8 * 10**6
        assert len(results) == 15

    def test_primes_come_from_a_sieve(self, monkeypatch):
        # the primes up to p_limit are sieved, not tested one integer at a
        # time: is_prime serves only the moduli sieve's primes up to sqrt(11)
        # and the result's RingSpec, not 10^6 candidates
        realize_module = importlib.import_module("hkkit.realize")
        calls = []

        def counted(m):
            calls.append(m)
            return is_prime(m)

        # the sweep reads is_prime from hkkit.realize; the RingSpec uses its own
        monkeypatch.setattr(realize_module, "is_prime", counted)
        results = enumerate_realizations(2, 10, 10**6, 1)
        assert [(r.spec.p, r.spec.n) for r in results] == [(2, 5)]
        assert calls == [2, 3], calls  # the moduli sieve's primes up to sqrt(10)
        assert realize_module._primes_to(10**4) == [p for p in range(2, 10**4 + 1)
                                                   if is_prime(p)]


def test_one_period_test_decides_every_search_and_check(monkeypatch):
    # realize, enumerate_realizations and verify_minimal_period decide a
    # period only through period._is_period: realize asks it whether each
    # pi/l is a period (r^pi == -1 already makes pi one), so answering True
    # there leaves no ring realized; refusing every d leaves no ring
    # enumerated and no period verified
    assert realize(6) and enumerate_realizations(6, 50, 50, 10)
    assert verify_minimal_period(RingSpec(2, 7), 2).ok

    def always(p, n, d):
        return True

    def never(p, n, d):
        return False

    realize_module = importlib.import_module("hkkit.realize")
    monkeypatch.setattr(realize_module, "_is_period", always)
    with pytest.raises(SearchExhausted):
        realize(6)
    monkeypatch.setattr(realize_module, "_is_period", never)
    assert enumerate_realizations(6, 50, 50, 10) == []
    monkeypatch.setattr(importlib.import_module("hkkit.period"), "_is_period", never)
    assert not verify_minimal_period(RingSpec(2, 7), 2).ok


def test_wrong_period_is_a_library_bug(monkeypatch):
    # realize re-checks the period of the ring it built; a wrong one is a
    # fault of this library, which the CLI reports as exit 4
    realize_module = importlib.import_module("hkkit.realize")  # hkkit.realize is the function
    honest = realize_module.period_of

    def off_by_one(spec):
        report = honest(spec)
        return PeriodReport(spec, report.omega, report.pi + 1, report.branch,
                            report.involution_check)

    monkeypatch.setattr(realize_module, "period_of", off_by_one)
    fault = "constructed spec p=2, n=13 has period 7, expected 6: library bug"
    with pytest.raises(RuntimeError) as info:
        realize(6)
    assert str(info.value) == fault
    assert hkkit.cli.run(["realize", "--pi", "6"]) == (4, "", f"error: internal fault: {fault}\n")
