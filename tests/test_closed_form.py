import dataclasses
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hkkit.closed_form import (
    HKRecord,
    InvalidRingError,
    RingSpec,
    hk_table,
    hk_value,
    phi_value,
    residue_b,
)

# (p, n) pairs that satisfy every hypothesis: p prime, n >= 2, p does not divide n
VALID_SPECS = st.sampled_from(
    [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(2, 30) if n % p != 0]
)


class TestRingSpec:
    def test_accepts_valid_input(self):
        spec = RingSpec(2, 5)
        assert spec.p == 2
        assert spec.n == 5
        assert spec.hk_multiplicity == 5

    def test_rejects_small_n(self):
        with pytest.raises(InvalidRingError):
            RingSpec(2, 1)
        with pytest.raises(InvalidRingError):
            RingSpec(2, 0)
        with pytest.raises(InvalidRingError):
            RingSpec(2, -3)

    def test_rejects_composite_characteristic(self):
        with pytest.raises(InvalidRingError):
            RingSpec(4, 5)
        with pytest.raises(InvalidRingError):
            RingSpec(1, 5)
        with pytest.raises(InvalidRingError):
            RingSpec(6, 35)

    def test_rejects_characteristic_dividing_n(self):
        with pytest.raises(InvalidRingError):
            RingSpec(2, 4)
        with pytest.raises(InvalidRingError):
            RingSpec(3, 9)
        with pytest.raises(InvalidRingError):
            RingSpec(5, 10)

    @pytest.mark.parametrize("kind", [float, Decimal, Fraction, str])
    def test_rejects_non_int_types(self, kind):
        # a Decimal p once passed and rounded HK(e) to 28 digits
        for p, n in [(kind(2), 5), (2, kind(5))]:
            with pytest.raises(InvalidRingError, match="must be ints"):
                RingSpec(p, n)

    def test_word_sized_n_boundary(self):
        big = 2**63 - 1
        spec = RingSpec(2, big)
        assert spec.n == big
        with pytest.raises(InvalidRingError):
            RingSpec(2, big + 2)

    def test_is_frozen(self):
        spec = RingSpec(2, 5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.n = 7


class TestResidueAndPhi:
    def test_residue_cycle_p2_n5(self):
        spec = RingSpec(2, 5)
        assert [residue_b(spec, e) for e in range(6)] == [1, 2, 4, 3, 1, 2]

    def test_residue_never_zero(self):
        for p, n in ((2, 5), (3, 7), (7, 10), (13, 15)):
            spec = RingSpec(p, n)
            for e in range(12):
                assert 1 <= residue_b(spec, e) <= n - 1

    def test_phi_profile_p2_n5(self):
        spec = RingSpec(2, 5)
        assert [phi_value(spec, e) for e in range(4)] == [4, 6, 4, 6]

    def test_phi_at_zero_is_n_minus_one(self):
        for p, n in ((2, 5), (3, 8), (11, 12)):
            assert phi_value(RingSpec(p, n), 0) == n - 1

    def test_negative_e_rejected(self):
        spec = RingSpec(2, 5)
        with pytest.raises(ValueError):
            residue_b(spec, -1)
        with pytest.raises(ValueError):
            hk_value(spec, -1)


class TestHKValue:
    def test_two_case_profile_p2_n5(self):
        spec = RingSpec(2, 5)
        for e in range(13):
            deficit = 4 if e % 2 == 0 else 6
            assert hk_value(spec, e) == 5 * 2**e - deficit

    def test_three_case_profile_p2_n7(self):
        spec = RingSpec(2, 7)
        deficits = {0: 6, 1: 10, 2: 12}
        for e in range(13):
            assert hk_value(spec, e) == 7 * 2**e - deficits[e % 3]

    def test_four_case_profile_n15(self):
        deficits = {0: 14, 1: 26, 2: 44, 3: 56}
        for p in (2, 13):
            spec = RingSpec(p, 15)
            for e in range(9):
                assert hk_value(spec, e) == 15 * p**e - deficits[e % 4]

    def test_value_at_zero_is_one(self):
        for p, n in ((2, 5), (3, 1000), (101, 102)):
            assert hk_value(RingSpec(p, n), 0) == 1

    def test_small_q_gives_perfect_square(self):
        spec = RingSpec(3, 10)
        assert hk_value(spec, 0) == 1
        assert hk_value(spec, 1) == 9
        assert hk_value(spec, 2) == 81  # q = 9 still below n = 10

    def test_huge_exponent_stays_exact(self):
        spec = RingSpec(2, 5)
        e = 200
        b = pow(2, e, 5)
        assert hk_value(spec, e) == 5 * 2**200 - b * (5 - b)

    @given(VALID_SPECS, st.integers(min_value=0, max_value=60))
    def test_formula_consistency(self, pn, e):
        p, n = pn
        spec = RingSpec(p, n)
        b = pow(p, e, n)
        assert residue_b(spec, e) == b
        assert phi_value(spec, e) == b * (n - b)
        assert hk_value(spec, e) == n * p**e - b * (n - b)
        assert 1 <= b <= n - 1
        assert n - 1 <= phi_value(spec, e) <= n * n // 4
        assert hk_value(spec, e) >= 1


class TestHKTable:
    def test_rows_match_pointwise_functions(self):
        spec = RingSpec(3, 7)
        records = hk_table(spec, 8)
        assert len(records) == 9
        for e, rec in enumerate(records):
            assert rec == HKRecord(
                e=e,
                q=3**e,
                b=residue_b(spec, e),
                hk=hk_value(spec, e),
                phi=phi_value(spec, e),
            )

    # b = p^e mod n cycles: with period 1 at n = 2, and not within 40 rows at
    # n = 1000003; the case above wraps its period of 6
    @pytest.mark.parametrize("p, n, e_max", [(5, 2, 4), (2, 1000003, 40)])
    def test_rows_match_pointwise_functions_at_any_period(self, p, n, e_max):
        spec = RingSpec(p, n)
        assert hk_table(spec, e_max) == [
            HKRecord(e, p**e, residue_b(spec, e), hk_value(spec, e), phi_value(spec, e))
            for e in range(e_max + 1)
        ]

    def test_every_field_is_an_int(self):
        # the CLI builds its rows with the same walk in exact decimal; the
        # library's stay ints, past Decimal's default 28 digits too
        records = hk_table(RingSpec(2, 7), 200)
        assert len(str(records[-1].hk)) > 28
        assert {type(rec) for rec in records} == {HKRecord}
        assert {type(x) for rec in records for x in rec} == {int}

    def test_zero_emax(self):
        records = hk_table(RingSpec(2, 9), 0)
        assert len(records) == 1
        assert records[0].hk == 1

    def test_negative_emax_rejected(self):
        with pytest.raises(ValueError):
            hk_table(RingSpec(2, 5), -1)
