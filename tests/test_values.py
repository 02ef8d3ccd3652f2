"""Value semantics of hkkit's eight result types.

Each type is built from its fields, positionally or by keyword; two objects
are equal exactly when they are of the same class with equal fields; a frozen
type hashes by its fields and refuses assignment and deletion with
dataclasses.FrozenInstanceError; SearchStats alone is mutable and unhashable;
repr is Class(field=value, ...); copy, deepcopy and pickle round-trip.
"""

import copy
import dataclasses
import pickle

import pytest

from hkkit.cli import _Rows
from hkkit.closed_form import HKRecord, RingSpec, hk_table
from hkkit.groebner import (
    BasisCheck,
    GroebnerBasis,
    buchberger,
    frobenius_power_generators,
    verify_closed_form_basis,
)
from hkkit.period import Branch, PeriodCheck, PeriodReport, period_of, verify_minimal_period
from hkkit.realize import RealizationResult, SearchStats, realize

SPEC = RingSpec(2, 5)
REPORT = period_of(SPEC)
BASIS = buchberger(frobenius_power_generators(SPEC, 3))
CHECK = verify_closed_form_basis(SPEC, 3)

# type -> (its fields in order, the field values of one instance, the values
# of an instance that differs from it in the last field, hashable)
CASES = {
    RingSpec: (("p", "n"), (2, 5), (2, 7), True),
    PeriodReport: (("spec", "omega", "pi", "branch", "involution_check"),
                   (SPEC, 4, 2, Branch.HALF, True), (SPEC, 4, 2, Branch.HALF, False), True),
    PeriodCheck: (("ok", "failing_distance", "divisor_witnesses"),
                  (True, None, {1: 0}), (True, None, {1: 1}), False),
    SearchStats: (("n_candidates", "p_candidates"), (4, 3), (4, 2), False),
    RealizationResult: (("target_pi", "spec", "report", "residue_used", "search_stats"),
                        (2, SPEC, REPORT, 2, SearchStats(2, 1)),
                        (2, SPEC, REPORT, 2, SearchStats(2, 2)), False),
    GroebnerBasis: (("generators", "staircase"), (BASIS.generators, BASIS.staircase),
                    (BASIS.generators, BASIS.staircase[:-1]), False),
    BasisCheck: (("ok", "telescoping_ok", "spoly_ok", "staircase_ok", "expected_staircase",
                  "computed_staircase", "q", "b"),
                 tuple(getattr(CHECK, f) for f in CHECK.__match_args__),
                 (*(getattr(CHECK, f) for f in CHECK.__match_args__[:-1]), 4), True),
    _Rows: (("fields", "records"), (HKRecord._fields, tuple(hk_table(SPEC, 3))),
            (HKRecord._fields, tuple(hk_table(SPEC, 2))), True),
}
FROZEN = [cls for cls in CASES if cls is not SearchStats]
TYPES = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


@TYPES
def test_fields_positional_and_keyword(cls):
    fields, values, _, _ = CASES[cls]
    assert cls.__match_args__ == fields
    by_keyword = cls(**dict(zip(fields, values)))
    for value in (cls(*values), by_keyword):
        assert tuple(getattr(value, f) for f in fields) == values
    assert by_keyword == cls(*values)


def test_defaults():
    check = PeriodCheck(True)
    assert (check.ok, check.failing_distance, check.divisor_witnesses) == (True, None, {})
    assert PeriodCheck(False, 3) == PeriodCheck(ok=False, failing_distance=3,
                                                divisor_witnesses={})
    stats = SearchStats()
    assert (stats.n_candidates, stats.p_candidates) == (0, 0)
    assert SearchStats(5) == SearchStats(n_candidates=5, p_candidates=0)


def test_default_witnesses_are_not_shared():
    first, second = PeriodCheck(True), PeriodCheck(True)
    assert first.divisor_witnesses is not second.divisor_witnesses
    first.divisor_witnesses[2] = 1
    assert second.divisor_witnesses == {}


@TYPES
def test_equality(cls):
    fields, values, other, _ = CASES[cls]
    value = cls(*values)
    assert value == cls(*values) and not value != cls(*values)
    assert value != cls(*other) and not value == cls(*other)

    class Sub(cls):
        pass

    # another class never compares equal, not even a subclass or the fields' tuple
    assert value != Sub(*values) and Sub(*values) != value
    assert value != values and value.__eq__(values) is NotImplemented


@TYPES
def test_hash(cls):
    _, values, _, hashable = CASES[cls]
    if cls is SearchStats:
        assert cls.__hash__ is None
    if hashable:
        assert hash(cls(*values)) == hash(cls(*values)) == hash(values)
        assert len({cls(*values), cls(*values)}) == 1
    else:  # a mutable type, or a field that is unhashable
        with pytest.raises(TypeError):
            hash(cls(*values))


@TYPES
def test_repr(cls):
    fields, values, _, _ = CASES[cls]
    text = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__qualname__}({text})"


def test_repr_text():
    assert repr(SPEC) == "RingSpec(p=2, n=5)"
    assert repr(SearchStats(4, 3)) == "SearchStats(n_candidates=4, p_candidates=3)"
    assert repr(REPORT) == ("PeriodReport(spec=RingSpec(p=2, n=5), omega=4, pi=2, "
                            "branch=<Branch.HALF: 'HALF'>, involution_check=True)")
    assert repr(PeriodCheck(True)) == ("PeriodCheck(ok=True, failing_distance=None, "
                                       "divisor_witnesses={})")


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen(cls):
    fields, values, other, _ = CASES[cls]
    value = cls(*values)
    for name in (fields[0], fields[-1], "unknown"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, other[-1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert value == cls(*values)


def test_search_stats_is_mutable():
    stats = SearchStats()
    stats.n_candidates += 2
    stats.p_candidates = 5
    assert stats == SearchStats(2, 5)


def test_match():
    match realize(2):
        case RealizationResult(2, RingSpec(p, n), PeriodReport(_, omega, 2, Branch.HALF)):
            assert (p, n, omega) == (2, 5, 4)
        case _:
            pytest.fail("realize(2) did not match its fields")
    match verify_minimal_period(SPEC, 2):
        case PeriodCheck(True, None, witnesses):
            assert witnesses == {1: 0}
        case _:
            pytest.fail("the check did not match its fields")


@TYPES
def test_copy_and_pickle(cls):
    value = cls(*CASES[cls][1])
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value)),
                  pickle.loads(pickle.dumps(value, protocol=2))):
        assert type(clone) is cls and clone == value and clone is not value
    if cls is SearchStats:  # a copy is counted on its own
        clone = copy.copy(value)
        clone.n_candidates += 1
        assert value.n_candidates == CASES[cls][1][0]
