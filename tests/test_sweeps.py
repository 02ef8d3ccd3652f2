"""CI's evidence sweeps (sweeps.py) in tier-1: each sweep's first rows, its
full row list's guard count, and the harness's summary and exit codes."""

import math
import sys
from collections import Counter

import pytest

import hkkit
from sweeps import CHECKOUT, INSTALLED, SWEEPS, Sweep, command_row, main, run_sweep

# each sweep's first rows; q = 2^65536, the oracle's first row whose gb text
# is past CPython's int/str limit of 4,300 digits, among them, the realize
# sweep's first exhausted pi and its last pi, and the period
# sweep's largest prime and largest modulus; the installed-
# script sweeps run `python -m hkkit.cli` from src in place of the script, so
# none of startup's, as only the script lists hkkit.cli among its imports
FIRST_ROWS = {"oracle": [*SWEEPS["oracle"].rows[:3], (2, 3, 65536)],
              "definition": SWEEPS["definition"].rows[:1],
              "chains": SWEEPS["chains"].rows[:3],
              "enumerate": SWEEPS["enumerate"].rows[:1],
              "realize": [*SWEEPS["realize"].rows[:3], 16672, 20000],
              "periods": [*SWEEPS["periods"].rows[:3], (3, 2**63 - 25), (2, 2**63 - 1)],
              **{name: sweep.rows[:1] for name, sweep in INSTALLED.items() if name != "startup"},
              "module": SWEEPS["module"].rows[:2], "library": SWEEPS["library"].rows}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int/str digit limit before CPython 3.10.7")
def test_first_rows_pass_and_leave_the_digit_limit(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(CHECKOUT / "src"))
    monkeypatch.setattr("sweeps.HKKIT", (sys.executable, "-m", "hkkit.cli"))
    assert (2, 3, 65536) in SWEEPS["oracle"].rows
    assert {(3, 2**63 - 25), (2, 2**63 - 1)} <= set(SWEEPS["periods"].rows)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    tallies = {name: Counter() for name in FIRST_ROWS}  # one per sweep, as in run_sweep
    try:
        failed = [(name, row) for name, rows in FIRST_ROWS.items() for row in rows
                  if not SWEEPS[name].check(row, tallies[name])]
        assert failed == []
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)


def test_full_row_lists_have_their_guard_counts():
    assert [(len(sweep.rows), sweep.count) for sweep in SWEEPS.values()] == [
        (1512, 1512), (47, 47), (262, 262), (24, 11869), (20000, 20000), (383, 383), (5, 5),
        (20, 20), (3, 3), (7, 7), (1, 1), (3, 3), (5, 5), (3, 3),
        (8, 5)]  # 8 library lines, of them 5 checked
    assert list(SWEEPS["enumerate"].rows) == list(range(1, 25))
    assert list(SWEEPS["realize"].rows) == list(range(1, 20001))


@pytest.mark.parametrize("bad, count, unit, limit, code", [
    ((), 3, "rows", math.inf, 0),
    ((2,), 3, "rows", math.inf, 1),
    ((), 4, "rows", math.inf, 1),  # a changed row count
    ((), 6, "hits", math.inf, 0),  # a count the check keeps in the tally
    ((), 7, "hits", math.inf, 1),
    ((), 3, "rows", -1, 1),  # past the time limit
])
def test_harness_names_failed_rows_and_exits_1_on_any_fault(capsys, bad, count, unit,
                                                             limit, code):
    def check(row, tally):
        tally["hits"] += row
        return row not in bad

    sweep = Sweep("toy sweep: {rows} rows, {tally[hits]} hits, failed {failed}", [1, 2, 3],
                  check, count, unit, limit)
    assert run_sweep(sweep) == code
    assert capsys.readouterr().out.startswith(f"toy sweep: 3 rows, 6 hits, failed {list(bad)}, ")


@pytest.mark.parametrize("argv", [[], ["bogus"], ["oracle", "chains"], ["--help"]])
def test_anything_but_one_sweep_name_exits_2_and_lists_the_names(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "usage: sweeps.py {oracle,definition,chains,enumerate,realize,periods,readme,exits,module,"
        "json,long-table,long-profile,csv,startup,library}\n")


def test_installed_sweeps_refuse_hkkit_from_the_checkout(capsys):
    assert [main([name]) for name in INSTALLED] == [2] * 9
    assert capsys.readouterr().err.count(f"needs hkkit installed, not {hkkit.__file__}\n") == 9


@pytest.mark.parametrize("want", ["JSON round trip", "CSV round trip"])
def test_a_failed_command_fails_its_row_before_its_output_is_parsed(monkeypatch, capsys, want):
    # realize exhausts its search (exit 3) and prints nothing on stdout
    monkeypatch.setenv("PYTHONPATH", str(CHECKOUT / "src"))
    monkeypatch.setattr("sweeps.HKKIT", (sys.executable, "-m", "hkkit.cli"))
    assert not command_row(("hkkit realize --pi 6 --nlimit 3", 0, want), Counter())
    assert "exit 3 (want 0)" in capsys.readouterr().out
