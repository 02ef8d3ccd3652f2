import argparse
import contextlib
import decimal
import io
import json
import math
import re
import resource
import shlex
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hkkit.cli
import hkkit.groebner
from hkkit.cli import main
from hkkit.closed_form import HKRecord, RingSpec
from hkkit.groebner import PairBudgetExceededError
from hkkit.period import Branch, PeriodReport
from measure import child, fresh, peak_rss, traced
from test_cli_bytes import EXAMPLES, lifted_digit_limit

# modules that a call pays to import but that no CLI path needs at start-up:
# dataclasses (with inspect), json and decimal, imported only on the paths
# that use them (a frozen-field error, a JSON document, a long table), and
# hkkit's Groebner oracle, imported by the first gb or verify call or the
# first use of one of its names
NOT_AT_STARTUP = frozenset({"dataclasses", "inspect", "json", "decimal", "hkkit.groebner"})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_plain_output(self, capsys):
        code, out, err = run(capsys, "table", "--p", "2", "--n", "5", "--emax", "3")
        assert code == 0
        assert err == ""
        assert out.splitlines() == [
            "e  q  b  hk  phi",
            "0  1  1   1    4",
            "1  2  2   4    6",
            "2  4  4  16    4",
            "3  8  3  34    6",
        ]

    def test_csv_header_is_pinned(self, capsys):
        code, out, _ = run(
            capsys, "table", "--p", "2", "--n", "5", "--emax", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "e,q,b,hk,phi"
        assert lines[1:] == ["0,1,1,1,4", "1,2,2,4,6", "2,4,4,16,4"]

    def test_json_shape_and_values(self, capsys):
        code, out, _ = run(
            capsys, "table", "--p", "2", "--n", "5", "--emax", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 2
        assert payload["n"] == 5
        assert [row["hk"] for row in payload["rows"]] == [1, 4, 16, 34]

    def test_json_round_trips_byte_identical(self, capsys):
        _, out, _ = run(
            capsys, "table", "--p", "3", "--n", "7", "--emax", "4", "--format", "json"
        )
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out

    def test_single_row_at_emax_zero(self, capsys):
        code, out, _ = run(
            capsys, "table", "--p", "2", "--n", "7", "--emax", "0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["hk"] == 1

    def test_dividing_characteristic_is_invalid_input(self, capsys):
        code, out, err = run(capsys, "table", "--p", "2", "--n", "4", "--emax", "3")
        assert code == 2
        assert out == ""
        assert "divides" in err

    def test_huge_values_render_in_full_decimal(self, capsys):
        # at emax=14300, q = 2^e has 4305 digits: past CPython's default limit of 4300
        for emax in (80, 14300):
            _, out, _ = run(
                capsys, "table", "--p", "2", "--n", "5", "--emax", str(emax),
                "--format", "json",
            )
            # main lifts the limit for its own call only; a consumer lifts it to parse
            with lifted_digit_limit():
                payload = json.loads(out)
                last = payload["rows"][-1]
                assert last["hk"] == 5 * 2**emax - 4
                assert str(last["hk"]) in out  # exact decimal, no float collapse

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("p", [2, 13])
    def test_int_and_decimal_walks_print_the_same_bytes(self, capsys, monkeypatch, p, fmt):
        # table walks ints while q = p^emax has at most _INT_TABLE_BITS bits, and
        # exact Decimals past that: at the emax either side of the crossover,
        # _emit writes the same bytes from int rows and from Decimal rows, and
        # main's table takes the walk its size names and writes them too
        exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                traps=[decimal.Inexact])
        spec, rows, walked = RingSpec(p, 7), hkkit.cli._rows, []
        monkeypatch.setattr(hkkit.cli, "_rows",
                            lambda spec, e_max, q: walked.append(type(q)) or rows(spec, e_max, q))
        last_int = int(hkkit.cli._INT_TABLE_BITS / math.log2(p))
        for emax in (last_int, last_int + 1):
            with decimal.localcontext(exact):
                decimals = rows(spec, emax, decimal.Decimal(1))
            outs = []
            for records in (rows(spec, emax, 1), decimals):
                hkkit.cli._emit(fmt, lambda: {"p": p, "n": 7,
                                              "rows": hkkit.cli._Rows(HKRecord._fields, records)},
                                lambda: [HKRecord._fields, *records])
                outs.append(capsys.readouterr().out)
            code, out, err = run(capsys, "table", "--p", str(p), "--n", "7",
                                 "--emax", str(emax), "--format", fmt)
            assert (code, err) == (0, "")
            assert outs[0] == outs[1] == out
        assert walked == [int, decimal.Decimal]


class TestPeriod:
    def test_plain_report(self, capsys):
        code, out, err = run(capsys, "period", "--p", "2", "--n", "5")
        assert code == 0
        assert err == ""
        lines = dict(line.split(None, 1) for line in out.splitlines())
        assert lines["omega"] == "4"
        assert lines["pi"] == "2"
        assert lines["branch"] == "HALF"
        assert lines["involution"] == "true"
        assert lines["phi_profile"] == "4 6 4 6"

    def test_full_branch_json(self, capsys):
        code, out, _ = run(capsys, "period", "--p", "2", "--n", "15", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["omega"] == 4
        assert payload["pi"] == 4
        assert payload["branch"] == "FULL"
        assert payload["involution"] is False
        assert payload["phi_profile"] == [14, 26, 44, 56]

    def test_trivial_modulus(self, capsys):
        code, out, _ = run(capsys, "period", "--p", "3", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["omega"] == 1
        assert payload["pi"] == 1

    def test_csv_single_row(self, capsys):
        code, out, _ = run(capsys, "period", "--p", "2", "--n", "5", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,n,omega,pi,branch,involution,phi_profile"
        assert lines[1] == "2,5,4,2,HALF,true,4;6;4;6"

    def test_strong_pseudoprime_characteristic_is_invalid_input(self, capsys):
        # 399165290221 * 798330580441 passes Miller-Rabin to the first 12 prime
        # bases (A014233); it must be refused, not treated as prime
        code, out, err = run(capsys, "period", "--p", "318665857834031151167461", "--n", "7")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_composite_characteristic_past_certified_range_is_not_prime(self, capsys):
        # 3 divides this p, one past the certified primality bound: trial
        # division answers it, so it is refused as composite, not as too large
        code, out, err = run(capsys, "period", "--p", "3317044064679887385961983", "--n", "5")
        assert (code, out) == (2, "")
        assert err == "error: p must be prime, got p=3317044064679887385961983\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_large_profile_prints_in_bounded_memory(self, capsys, fmt):
        # omega = 1,000,002 values, 13-18 MB of text; rendered value by value,
        # the traced peak was 117 MB (json) and 126 MB (csv), 55 MB from one
        # rendered cycle, and is 53 MB (json) and 51 MB (csv) with the cycle
        # rendered by one % call
        code, _, peak = traced(main, ["period", "--p", "2", "--n", "1000003", "--format", fmt])
        assert code == 0
        assert peak < 80 * 10**6
        assert len(capsys.readouterr().out) > 10**7


class TestRealize:
    def test_smallest_period(self, capsys):
        code, out, _ = run(capsys, "realize", "--pi", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["spec"] == {"p": 2, "n": 3}
        assert payload["report"]["pi"] == 1

    def test_period_two_lands_on_modulus_five(self, capsys):
        code, out, _ = run(capsys, "realize", "--pi", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["spec"]["n"] == 5
        assert payload["report"]["branch"] == "HALF"

    def test_exhaustion_exits_with_stats(self, capsys):
        code, out, err = run(capsys, "realize", "--pi", "7", "--nlimit", "3")
        assert code == 3
        assert out == ""
        assert "0 moduli" in err
        assert "0 characteristics" in err

    @pytest.mark.parametrize(
        "pi",
        [10**40, 1000000000000037 * 1000000000000091],  # the latter: two primes near 10^15
    )
    def test_huge_period_exhausts_at_once(self, capsys, pi):
        # 2*pi + 1 is already past --nlimit, so pi is never factored
        start = time.perf_counter()
        code, out, err = run(capsys, "realize", "--pi", str(pi))
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err == (
            f"error: no realization of period {pi} within n <= 10000, p <= 10000 "
            "(0 moduli and 0 characteristics examined)\n"
        )

    @pytest.mark.parametrize("pi, nlimit, plimit", [
        # n = 2*pi + 1 fits in 64 bits, n = 4*pi + 1 does not
        (4611686018427387889, 36893488147419103232, 1000),
        # n = 2*pi + 1 is past the certified primality range
        (10**25, 10**30, 10000),
    ])
    def test_moduli_past_word_limit_are_never_searched(self, capsys, pi, nlimit, plimit):
        # both exited 2: the search built a RingSpec or primality-tested past 2^63 - 1
        start = time.perf_counter()
        code, out, err = run(capsys, "realize", "--pi", str(pi), "--nlimit", str(nlimit),
                             "--plimit", str(plimit))
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: no realization of period {pi} within n <= {nlimit}, ")

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    def test_large_period_prints_without_profile(self, capsys, fmt):
        # building the unprinted 10^7-entry phi_profile took about 1 s
        start = time.perf_counter()
        code, out, err = run(capsys, "realize", "--pi", "5000000", "--nlimit",
                             "1000000000000", "--plimit", "1000000000000", "--format", fmt)
        assert time.perf_counter() - start < 0.2
        assert code == 0
        assert err == ""
        assert "30000001" in out
        assert "10000000" in out

    def test_nlimit_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HKKIT_NLIMIT", "3")
        code, _, err = run(capsys, "realize", "--pi", "7")
        assert code == 3
        assert "n <= 3" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HKKIT_NLIMIT", "3")
        code, out, _ = run(capsys, "realize", "--pi", "7", "--nlimit", "10000", "--format", "json")
        assert code == 0
        assert json.loads(out)["spec"]["n"] == 29

    def test_invalid_env_value_is_invalid_input(self, capsys, monkeypatch):
        monkeypatch.setenv("HKKIT_NLIMIT", "many")
        code, _, err = run(capsys, "realize", "--pi", "2")
        assert code == 2
        assert "HKKIT_NLIMIT" in err

    def test_nonpositive_env_value_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("HKKIT_PLIMIT", "0")
        code, _, err = run(capsys, "realize", "--pi", "2")
        assert code == 2
        assert "HKKIT_PLIMIT" in err


class TestVerify:
    def test_all_rows_pass(self, capsys):
        code, out, err = run(capsys, "verify", "--p", "2", "--n", "5", "--emax", "6")
        assert code == 0
        assert err == ""
        rows = out.splitlines()[1:]
        assert len(rows) == 7
        assert all(row.endswith("PASS") for row in rows)

    def test_basis_checks_start_above_n(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--p", "2", "--n", "7", "--emax", "5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        checks = {row["e"]: row["basis_check"] for row in payload["rows"]}
        assert checks == {0: None, 1: None, 2: None, 3: True, 4: True, 5: True}

    def test_failed_basis_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(hkkit.groebner, "_telescopes", lambda relation, q, b: False)
        argv = ["verify", "--p", "2", "--n", "7", "--emax", "5"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        # rows e = 0..2 have q <= n and run no basis check
        cells = [row.split()[-2:] for row in out.splitlines()[1:]]
        assert cells == [["-", "PASS"]] * 3 + [["FAIL", "FAIL"]] * 3
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 1
        cells = [row.split(",")[-2:] for row in out.splitlines()[1:]]
        assert cells == [["na", "PASS"]] * 3 + [["fail", "FAIL"]] * 3
        code, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert code == 1
        assert payload["all_pass"] is False
        assert [(r["basis_check"], r["pass"]) for r in payload["rows"]] == (
            [(None, True)] * 3 + [(False, False)] * 3)

    def test_closed_form_mismatch_exits_1(self, capsys, monkeypatch):
        honest = hkkit.cli.hk_value
        monkeypatch.setattr(hkkit.cli, "hk_value", lambda spec, e: honest(spec, e) + 1)
        code, out, err = run(capsys, "verify", "--p", "2", "--n", "7", "--emax", "5")
        assert (code, err) == (1, "")
        rows = out.splitlines()[1:]
        assert len(rows) == 6
        assert all(row.endswith("FAIL") for row in rows)

    def test_small_grid_instance(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--p", "5", "--n", "3", "--emax", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["closed_form"] for row in payload["rows"]] == [1, 13]
        assert [row["oracle"] for row in payload["rows"]] == [1, 13]

    def test_cap_skips_large_exponents(self, capsys):
        code, out, err = run(
            capsys,
            "verify", "--p", "2", "--n", "5", "--emax", "12",
            "--qcap", "16", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["skipped_e"] == [5, 6, 7, 8, 9, 10, 11, 12]
        assert [row["e"] for row in payload["rows"]] == [0, 1, 2, 3, 4]
        assert "skipped e = 5..12" in err

    def test_skipped_rows_cost_no_powers(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "--p", "2", "--n", "5", "--emax", "20000", "--format", "json"
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(out)["skipped_e"] == list(range(10, 20001))
        assert "skipped e = 10..20000" in err
        # building 2^e for every skipped e took about 0.6 s
        assert elapsed < 0.3

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    def test_skipped_range_is_never_listed_outside_json(self, capsys, fmt):
        # a list of every skipped e would hold 10^9 entries, about 40 GB
        (code, out, err), elapsed, peak = traced(
            run, capsys, "verify", "--p", "2", "--n", "5", "--emax", "1000000000",
            "--format", fmt)
        assert code == 0
        assert peak < 10**6
        assert len(out.splitlines()) == 11  # header and rows e = 0..9
        assert err == ("skipped e = 10..1000000000: "
                       "q = p^e exceeds the oracle cap 512\n")
        assert elapsed < 1.0

    def test_qcap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HKKIT_QCAP", "16")
        code, out, err = run(
            capsys, "verify", "--p", "2", "--n", "5", "--emax", "12", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["skipped_e"] == [5, 6, 7, 8, 9, 10, 11, 12]

    def test_qcap_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HKKIT_QCAP", "16")
        code, out, _ = run(
            capsys,
            "verify", "--p", "2", "--n", "5", "--emax", "9",
            "--qcap", "512", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["skipped_e"] == []

    def test_csv_schema(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--p", "2", "--n", "5", "--emax", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "e,q,closed_form,oracle,basis_check,status"
        assert lines[1] == "0,1,1,1,na,PASS"
        assert lines[4] == "3,8,34,34,pass,PASS"


class TestGb:
    def test_plain_contains_basis_and_count(self, capsys):
        code, out, err = run(capsys, "gb", "--p", "2", "--n", "3", "--e", "2")
        assert code == 0
        assert err == ""
        assert "count      10" in out
        assert "staircase  y^4  x*y^3  x^3" in out
        assert "  x^3 + y^3" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "gb", "--p", "2", "--n", "5", "--e", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == 8
        assert payload["count"] == 34
        assert payload["staircase"] == [[0, 8], [3, 5], [5, 0]]
        assert payload["generators"] == ["y^8", "x^3*y^5", "x^5 + y^5"]

    def test_frobenius_exponent_zero(self, capsys):
        code, out, _ = run(
            capsys, "gb", "--p", "2", "--n", "5", "--e", "0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["staircase"] == [[0, 1], [1, 0]]

    def test_cap_violation_is_invalid_input(self, capsys):
        code, out, err = run(capsys, "gb", "--p", "2", "--n", "5", "--e", "10")
        assert code == 2
        assert out == ""
        assert "512" in err

    def test_huge_exponent_fails_fast_without_building_q(self, capsys):
        # 2^100000000000 would take 12.5 GB
        (code, out, err), elapsed, peak = traced(
            run, capsys, "gb", "--p", "2", "--n", "5", "--e", "100000000000")
        assert elapsed < 1
        assert peak < 10**6
        assert code == 2
        assert out == ""
        assert err == "error: q = 2^100000000000 exceeds the oracle cap 512\n"

    def test_negative_exponent_is_invalid_input(self, capsys):
        code, out, err = run(capsys, "gb", "--p", "2", "--n", "5", "--e", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: e must be nonnegative, got -1\n"

    def test_large_modulus_count_is_fast(self, capsys):
        # q = 2^20 > n = 1000003: counting column by column took about 1.1 s
        start = time.perf_counter()
        code, out, err = run(
            capsys, "gb", "--p", "2", "--n", "1000003", "--e", "20",
            "--qcap", "2097152", "--format", "json",
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert err == ""
        assert json.loads(out)["count"] == 1002365336338  # n*q - b(n-b), b = 48573
        assert elapsed < 0.3

    def test_csv_schema(self, capsys):
        code, out, _ = run(
            capsys, "gb", "--p", "2", "--n", "3", "--e", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "generator,lead_i,lead_j"
        assert lines[1] == "y^4,0,4"
        assert lines[2] == "x*y^3,1,3"
        assert lines[3] == "x^3 + y^3,3,0"


class TestDriver:
    def test_identical_invocations_identical_bytes(self, capsys):
        argv = ["verify", "--p", "2", "--n", "7", "--emax", "5", "--format", "json"]
        code1 = main(argv)
        first = capsys.readouterr().out
        code2 = main(argv)
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["table", "--p", "2", "--n", "5", "--bogus", "1"]) == 2

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_negative_emax_is_invalid_input(self, capsys):
        # zero rows must not let verify report a pass it never checked
        for command in ("table", "verify"):
            code, out, err = run(capsys, command, "--p", "2", "--n", "5", "--emax", "-1")
            assert code == 2, command
            assert out == ""
            assert err == "error: e_max must be nonnegative, got -1\n"

    @pytest.mark.parametrize("fault", [
        RuntimeError("input generator fails to reduce to zero: library bug"),
        PairBudgetExceededError("more than 100000 S-pairs processed"),
    ])
    def test_internal_fault_exits_4(self, capsys, monkeypatch, fault):
        # the oracle's one Buchberger run, which gb and verify both reach
        def broken(gens, pair_budget):
            raise fault

        monkeypatch.setattr(hkkit.groebner, "_binomial_buchberger", broken)
        for argv in ["gb --p 2 --n 3 --e 2", "verify --p 2 --n 3 --emax 2"]:
            code, out, err = run(capsys, *argv.split())
            assert code == 4
            assert out == ""
            assert err == f"error: internal fault: {fault}\n"

    @pytest.mark.parametrize("argv", [
        "gb --p 2 --n 3 --e 2", "verify --p 2 --n 3 --emax 2",
    ])
    def test_staircase_self_check_reaches_every_command(self, capsys, monkeypatch, argv):
        # gb and verify count through the oracle's own path, self-check included
        monkeypatch.setattr(hkkit.groebner, "count_under_staircase", lambda staircase: None)
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (4, "")
        assert err == "error: internal fault: staircase misses a pure power: library bug\n"

    def test_largest_modulus_prints_a_capped_profile(self, capsys):
        # omega = 2^63 - 26: the profile stops at its first 2^20 values, whose
        # walk and text are bounded whatever omega is; it exited 4 (out of
        # memory) when the whole cycle's template was built first
        p, n = 3, 2**63 - 25
        for fmt in ("plain", "csv", "json"):
            start = time.perf_counter()
            code, out, err = run(capsys, "period", "--p", str(p), "--n", str(n), "--format", fmt)
            assert time.perf_counter() - start < 1, fmt
            assert (code, err) == (0, "")
            profile = {"plain": lambda: re.search(r"^phi_profile  (.*)$", out, re.M)[1].split(" "),
                       "csv": lambda: out.splitlines()[1].rpartition(",")[2].split(";"),
                       "json": lambda: json.loads(out)["phi_profile"]}[fmt]()
            assert len(profile) == 2**20
            for e in (0, 1, 4095, 4096, 2**20 - 1):
                b = pow(p, e, n)
                assert int(profile[e]) == b * (n - b)

    def test_a_csv_profile_peaks_as_the_plain_one_does(self):
        # _emit drops the rows, whose one cell is as long as the text, before it
        # writes: the CSV text was held three times at once, 131 MB against 92
        (plain_code, plain), (csv_code, csv) = [
            peak_rss("-m", "hkkit.cli", "period", "--p", "3", "--n", str(2**63 - 25),
                     "--format", fmt) for fmt in ("plain", "csv")]
        assert (plain_code, csv_code) == (0, 0)
        assert csv <= 1.05 * plain, (plain, csv)

    def test_block_templates_stay_one_per_separator(self, monkeypatch):
        # a template cached per block length held one per profile length:
        # search's peak RSS rose by 18%; only the full block's is kept.  The
        # last 100 lengths run traced, and templates kept per length would
        # hold about 1.5 MB of them
        monkeypatch.setattr(hkkit.cli, "_FULL_BLOCK", {})
        spec, seps = RingSpec(2, 1000003), (" ", ";", ",\n    ")
        try:
            for length in range(1, 1001):  # the first length values of the ring's phi
                if length == 901:
                    tracemalloc.start()
                report = PeriodReport(spec, length, length, Branch.FULL, False)
                for sep in seps:
                    assert hkkit.cli._cell(report, sep).count(sep) == length - 1
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert hkkit.cli._FULL_BLOCK == {(sep, 4096): sep.join(["%d"] * 4096) for sep in seps}
        assert kept < 10**5

    def test_skipped_range_past_maxsize_exits_4(self, capsys):
        # JSON lists every skipped e, and len() of a range of 10^20 of them
        # overflows before any template is built: out of memory, not a mismatch
        emax = "100000000000000000000"
        note = f"skipped e = 10..{emax}: q = p^e exceeds the oracle cap 512"
        code, out, err = run(capsys, "verify", "--p", "2", "--n", "5", "--emax", emax,
                             "--format", "json")
        assert (code, out) == (4, "")
        assert err.splitlines() == [note, "error: internal fault: out of memory"]
        # plain and csv print the range's ends only, and pass
        for fmt in ("plain", "csv"):
            code, out, err = run(capsys, "verify", "--p", "2", "--n", "5", "--emax", emax,
                                 "--format", fmt)
            assert (code, err) == (0, note + "\n") and out

    def test_failed_allocation_exits_4(self):
        # JSON lists every skipped e, and a template of 10^12 "%d"s asks
        # malloc for about 8 TB; the child limits its own address space to
        # 1 GiB, so the request fails there whatever this machine's memory
        argv = "verify --p 2 --n 5 --emax 1000000000000 --format json".split()
        limit = resource.getrlimit(resource.RLIMIT_AS)
        code, out, err = child("-m", "hkkit.cli", *argv, address_space=2**30)
        assert resource.getrlimit(resource.RLIMIT_AS) == limit  # this process's is unchanged
        assert (code, out) == (4, "")
        assert err.splitlines() == [
            "skipped e = 10..1000000000000: q = p^e exceeds the oracle cap 512",
            "error: internal fault: out of memory",
        ]

    def test_startup_loads_no_heavy_module(self):
        # every hkkit call pays for what importing the CLI loads: see NOT_AT_STARTUP.
        # The oracle loads with the first gb or verify call (bench/trace.py
        # imports it itself); every other hkkit module loads here
        code, out, err = child("-c", "import sys; before = set(sys.modules); import hkkit.cli; "
                               "hkkit.cli.build_parser(); "
                               "print(*sorted(set(sys.modules) - before))")
        loaded = out.split()
        assert code == 0 and "hkkit.cli" in loaded, err
        assert not NOT_AT_STARTUP & set(loaded), loaded
        assert {f"hkkit.{m}" for m in ("numtheory", "closed_form", "period", "realize",
                                       "cli")} <= set(loaded)

    def test_only_a_table_past_the_crossover_loads_decimal(self):
        # a table whose q has at most _INT_TABLE_BITS bits walks in ints and never
        # imports decimal, in any format; the first table past it does
        out = fresh("import sys\n"
                    "from hkkit.cli import _INT_TABLE_BITS, run\n"
                    "for emax in (20, _INT_TABLE_BITS, _INT_TABLE_BITS + 1):\n"
                    "    for fmt in ('plain', 'csv', 'json'):\n"
                    "        argv = f'table --p 2 --n 7 --emax {emax} --format {fmt}'.split()\n"
                    "        code = run(argv)[0]\n"
                    "        print(emax, fmt, code, 'decimal' in sys.modules)")
        bits = hkkit.cli._INT_TABLE_BITS
        assert out.splitlines() == [
            f"{emax} {fmt} 0 {emax > bits}" for emax in (20, bits, bits + 1)
            for fmt in ("plain", "csv", "json")]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int/str digit limit before CPython 3.10.7")
    def test_digit_limit_is_the_callers_after_every_exit(self, capsys, monkeypatch):
        # main lifts the limit for its own call only: a 4401-digit --qcap and
        # q = 2^14300 (4305 digits) pass, and each way out restores 4300
        def broken(args):
            raise RuntimeError("library bug")

        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            big = f"gb --p 2 --n 3 --e 14300 --qcap 1{'0' * 4400}"
            for command, code in [(big, 0), ("period --p 4 --n 5", 2),
                                  ("realize --pi 1000 --nlimit 10", 3)]:
                assert main(command.split()) == code
                assert sys.get_int_max_str_digits() == 4300, command.split()[0]
            assert re.search(r"^q +\d{4305}$", capsys.readouterr().out, re.M)
            assert main(["gb", "--p", "2"]) == 2
            assert sys.get_int_max_str_digits() == 4300
            monkeypatch.setattr(hkkit.cli, "cmd_period", broken)
            assert main(["period", "--p", "2", "--n", "5"]) == 4
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(before)

    def test_decimal_context_is_the_callers_after_every_exit(self, capsys, monkeypatch):
        # a table past the walks' crossover computes in an exact context of its
        # own: the caller's context, of 5 digits with Inexact untrapped and Rounded
        # raised, rounds nothing main prints, and after each way out it is current
        # again, settings and flags as they were; a shorter table walks in ints
        def broken(spec, e_max, q):
            q * 3  # arithmetic in q's type (a long table's under main's context), then a fault
            raise RuntimeError("library bug")

        def unchanged():
            return decimal.getcontext() is caller and (
                caller.prec, caller.Emax, dict(caller.traps), dict(caller.flags)) == settings

        caller = decimal.Context(prec=5, Emax=999, traps=[decimal.DivisionByZero],
                                 flags=[decimal.Rounded])
        settings = (5, 999, dict(caller.traps), dict(caller.flags))
        before = decimal.getcontext()
        decimal.setcontext(caller)
        try:
            b = pow(2, 200, 7)
            assert main("table --p 2 --n 7 --emax 200 --format csv".split()) == 0
            assert unchanged()
            assert capsys.readouterr().out.endswith(
                f"\n200,{2**200},{b},{7 * 2**200 - b * (7 - b)},{b * (7 - b)}\n")
            long = hkkit.cli._INT_TABLE_BITS + 1  # the first --emax the Decimal walk takes
            b = pow(2, long, 7)
            assert main(f"table --p 2 --n 7 --emax {long} --format csv".split()) == 0
            assert unchanged()
            assert capsys.readouterr().out.endswith(
                f"\n{long},{2**long},{b},{7 * 2**long - b * (7 - b)},{b * (7 - b)}\n")
            assert main("table --p 2 --n 7 --emax -1".split()) == 2
            assert unchanged()
            assert main(["table", "--p", "2"]) == 2
            assert unchanged()
            monkeypatch.setattr(hkkit.cli, "_rows", broken)
            assert main("table --p 2 --n 7 --emax 3".split()) == 4
            assert unchanged()
            assert main(f"table --p 2 --n 7 --emax {long}".split()) == 4
            assert unchanged()
        finally:
            decimal.setcontext(before)

    def test_nonpositive_qcap_flag_rejected(self, capsys):
        code, _, err = run(
            capsys, "gb", "--p", "2", "--n", "5", "--e", "1", "--qcap", "0"
        )
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("argv", [
        ["gb", "--p", "2", "--n", "3", "--e", "1", "--qcap", "0"],
        ["realize", "--pi", "6", "--nlimit", "0"],
        ["realize", "--pi", "6", "--plimit", "0"],
    ])
    def test_nonpositive_limit_flag_names_its_option(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", f"error: {argv[-2]} must be positive, got 0\n")


class TestLimitsPerCommand:
    """Each HKKIT_* variable is read only by the commands that take its flag."""

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("var, value, argv", [
        ("HKKIT_QCAP", "foo", ["period", "--p", "2", "--n", "5"]),
        ("HKKIT_QCAP", "foo", ["realize", "--pi", "6"]),
        ("HKKIT_NLIMIT", "0", ["gb", "--p", "2", "--n", "3", "--e", "2"]),
        ("HKKIT_NLIMIT", "0", ["verify", "--p", "2", "--n", "7", "--emax", "12"]),
    ])
    def test_other_commands_ignore_the_variable(self, capsys, monkeypatch, fmt, var,
                                                 value, argv):
        unset = run(capsys, *argv, "--format", fmt)
        assert unset[0] == 0
        monkeypatch.setenv(var, value)
        assert run(capsys, *argv, "--format", fmt) == unset

    @pytest.mark.parametrize("argv", [
        ["gb", "--p", "2", "--n", "3", "--e", "2"],
        ["verify", "--p", "2", "--n", "7", "--emax", "12"],
    ])
    def test_bad_qcap_still_refused_where_taken(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("HKKIT_QCAP", "foo")
        assert run(capsys, *argv) == (
            2, "", "error: HKKIT_QCAP must be an integer, got 'foo'\n")

    def test_zero_plimit_still_refused_by_realize(self, capsys, monkeypatch):
        monkeypatch.setenv("HKKIT_PLIMIT", "0")
        assert run(capsys, "realize", "--pi", "6") == (
            2, "", "error: HKKIT_PLIMIT must be positive, got 0\n")


class TestParserReuse:
    """main() builds one parser per process and looks up each cmd_* per call."""

    COMMANDS = [
        ["table", "--p", "2", "--n", "5", "--emax", "3"],
        ["period", "--p", "2", "--n", "5"],
        ["realize", "--pi", "6"],
        ["verify", "--p", "2", "--n", "7", "--emax", "5"],
        ["gb", "--p", "2", "--n", "3", "--e", "2"],
    ]

    def test_one_parser_per_process(self, capsys, monkeypatch):
        assert run(capsys, *self.COMMANDS[0])[0] == 0  # well-formed: builds no parser
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in self.COMMANDS:
            for fmt in ("plain", "csv", "json"):
                assert run(capsys, *argv, "--format", fmt)[0] == 0
        assert built == []
        assert hkkit.cli.build_parser() is hkkit.cli.build_parser()

    def test_handler_is_looked_up_per_call(self, capsys, monkeypatch):
        # bench/trace.py rebinds cmd_* between calls; a parser holding the
        # originals would skip its wrappers
        argv = ["period", "--p", "2", "--n", "5"]
        first = run(capsys, *argv)
        original, seen = hkkit.cli.cmd_period, []

        def wrapper(args):
            seen.append(args.command)
            return original(args)

        monkeypatch.setattr(hkkit.cli, "cmd_period", wrapper)
        assert run(capsys, *argv) == first
        assert seen == ["period"]

    def test_reuse_leaves_no_state_behind(self, monkeypatch):
        """Every call of a mixed sequence answers as a fresh `python -m hkkit.cli`."""
        verify = ["verify", "--p", "2", "--n", "7", "--emax", "12"]
        sequence = [
            (None, ["table", "--p", "2", "--n", "5", "--bogus", "1"]),
            (None, ["gb", "--help"]),
            (None, ["--help"]),
            ("foo", verify),
            ("1024", verify),
            (None, verify),
            (None, ["realize", "--pi", "6", "--nlimit", "0"]),
            *((None, shlex.split(command)) for command, _ in EXAMPLES),
        ]
        # help text wraps at the terminal width, and its layout varies by Python
        # version, so it is pinned against the same interpreter, not literal bytes
        monkeypatch.setenv("COLUMNS", "80")
        codes = []
        for qcap, argv in sequence:
            if qcap is None:
                monkeypatch.delenv("HKKIT_QCAP", raising=False)
            else:
                monkeypatch.setenv("HKKIT_QCAP", qcap)
            ran = hkkit.cli.run(argv)
            assert ran == child("-m", "hkkit.cli", *argv), (qcap, argv)
            codes.append(ran[0])
        assert codes == [2, 0, 0, 2, 0, 0, 2, *[0] * len(EXAMPLES)]


class TestParseOnce:
    """An argv is parsed once: off the option table, or else by the
    top-level parser alone, which hands the rest to the command's parser."""

    ARGVS = [
        [],
        ["--help"],
        ["bogus"],
        ["--format", "json", "gb", "--p", "2", "--n", "3", "--e", "1"],
        ["gb", "--p", "2", "--n", "3", "-h"],
        ["gb", "--p", "2", "--n", "3", "--e", "1", "--form", "json"],
        ["realize", "--pi", "6", "--nl", "50"],
        ["gb", "--p=2", "--n", "3", "--e", "1"],
        ["gb", "--p", "2", "--p", "3", "--n", "5", "--e", "1"],
        ["gb", "--p", "2", "--n", "3", "--e", "1", "extra"],
        ["gb", "--p", "2", "--n", "3", "--e", "1", "--bogus"],
        ["gb", "--p", "two", "--n", "3", "--e", "1"],
        ["gb", "--p", "2", "--n", "3", "--e", "1", "--format", "yaml"],
    ]

    @staticmethod
    def parse(argv):
        """argparse's namespace for argv, or its exit code where it prints
        help or refuses argv."""
        try:
            return hkkit.cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code

    @classmethod
    def parsed_twice(cls, argv):
        """main's work through the top-level parser, which hands argv[1:] on."""
        args = cls.parse(argv)
        if isinstance(args, int):
            return args
        hkkit.cli._resolve_limits(args)
        return getattr(hkkit.cli, f"cmd_{args.command}")(args)

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_bytes_as_parsing_twice(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
        once = hkkit.cli.run(argv)
        assert once == (self.parsed_twice(argv), *capsys.readouterr())
        assert once[0] in (0, 2)

    def test_error_cases_read_as_argparse_writes_them(self):
        code, out, err = hkkit.cli.run(self.ARGVS[3])
        assert (code, out) == (2, "")
        assert "invalid choice: 'json'" in err
        code, out, err = hkkit.cli.run(self.ARGVS[9])
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "usage: hkkit [-h] {table,period,realize,verify,gb} ...",
            "hkkit: error: unrecognized arguments: extra",
        ]

    def test_top_level_parser_reads_exactly_the_argvs_the_table_refuses(self, monkeypatch):
        parser, seen = hkkit.cli.build_parser(), []
        parse_known_args = parser.parse_known_args

        def recording(*args, **kwargs):
            seen.append(args[0])
            return parse_known_args(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", recording)
        for argv in self.ARGVS:
            hkkit.cli.run(argv)
        refused = [argv for argv in self.ARGVS if hkkit.cli._parse_table(argv) is None]
        assert seen == refused
        # all but the repeated --p, which the table reads, keeping the last value
        assert len(refused) == len(self.ARGVS) - 1


COMMAND_PARSERS = hkkit.cli.build_parser()._subparsers._group_actions[0].choices
# ints argparse takes and the table refuses (+5, space, underscore, a non-ASCII
# digit), ints both take, and words, a choice among them
ARGV_VALUES = ["2", "-5", "+5", " 7", "1_000", "\u0665", "-1e3", "two", "json", "yaml",
               "0", "007", "-0", "csv", "plain"]


@st.composite
def command_argvs(draw) -> list[str]:
    """A command and its options (each once, in any order, often all of them)
    with values, then up to two repeated options, then up to two stray tokens:
    option strings and their prefixes, `--opt=value` forms, -h or bare values,
    which make the length odd."""
    name = draw(st.sampled_from(sorted(COMMAND_PARSERS)))
    actions = {s: a for a in COMMAND_PARSERS[name]._actions for s in a.option_strings}
    prefixes = sorted({s[:k] for s in actions for k in range(2, len(s))} - set(actions))
    options, values = st.sampled_from(sorted(actions) + prefixes), st.sampled_from(ARGV_VALUES)
    stores = draw(st.permutations([s for s in sorted(actions) if s not in ("-h", "--help")]))
    first = stores[:draw(st.integers(0, len(stores)) | st.just(len(stores)))]
    argv = [name]
    for option in first + draw(st.lists(st.sampled_from(stores), max_size=2)):
        # half the time a value of the option's kind: one of its choices, or an int
        fitting = st.sampled_from(actions[option].choices or ["2", "-5", "0", "007", "-0"])
        argv += [option, draw(fitting | values)]
    return argv + draw(st.lists(options | values | st.builds("{}={}".format, options, values),
                                max_size=2))


@given(st.one_of(command_argvs(), st.sampled_from(TestParseOnce.ARGVS)))
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_returns_every_exit_code(capsys, argv):
    # help and argparse's refusals included: main returns the code that argparse
    # exits with, and run captures what the same call writes
    code = main(argv)
    captured = capsys.readouterr()
    assert hkkit.cli.run(argv) == (code, captured.out, captured.err)
    parsed = TestParseOnce.parse(argv)
    capsys.readouterr()
    if isinstance(parsed, int):
        assert code == parsed


class TestOptionTable:
    """A canonical argv is read off COMMANDS, into the namespace argparse
    builds; argparse reads every other argv."""

    @given(command_argvs())
    @settings(max_examples=500)  # parsing only: about one in eight takes the table
    def test_table_namespace_is_argparses(self, argv):
        command = COMMAND_PARSERS[argv[0]]
        table = hkkit.cli._parse_table(argv)
        if table is None:
            return
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                args, extras = command.parse_known_args(argv[1:],
                                                        argparse.Namespace(command=argv[0]))
        except SystemExit:
            pytest.fail(f"argparse refuses {argv}, which the table reads")
        assert (extras, vars(table)) == ([], vars(args))

    # one argv of each shape bench/workloads.py sends: gb and verify with and
    # without --qcap, period, table, realize with both limits, and a realize
    # that exhausts (exit 3)
    BENCHMARK_ARGVS = [
        "gb --p 3 --n 7 --e 4 --qcap 131072 --format json",
        "verify --p 2 --n 9 --emax 6 --qcap 131072 --format csv",
        "verify --p 5 --n 7 --emax 30 --format plain",
        "period --p 2 --n 101 --format json",
        "table --p 3 --n 10 --emax 40 --format csv",
        "realize --pi 12 --nlimit 100000 --plimit 100000 --format json",
        "realize --pi 1000 --nlimit 10 --format plain",
    ]

    def test_readme_and_benchmark_argvs_skip_argparse(self, capsys, monkeypatch):
        # a table that refused these argvs would lose its fast path silently:
        # every answer stays the same, only slower; nor is a parser built
        def refuse():
            raise AssertionError("a well-formed argv built the parser")

        monkeypatch.setattr(hkkit.cli, "build_parser", refuse)
        for command in [*(command for command, _ in EXAMPLES), *self.BENCHMARK_ARGVS]:
            assert main(shlex.split(command)) == (3 if "--nlimit 10 " in command else 0)
        capsys.readouterr()

    def test_parsers_are_built_from_commands(self):
        """Each command's parser has --format, its required int options and its
        limits, as COMMANDS lists them, and no other option but -h."""
        assert COMMAND_PARSERS.keys() == hkkit.cli.COMMANDS.keys()
        for name, (_, options, limits) in hkkit.cli.COMMANDS.items():
            # by option strings: (nargs, type, choices, required, default)
            expected = {("--format",): (None, None, hkkit.cli.FORMATS, False, "plain")}
            expected.update({(f"--{dest}",): (None, int, None, True, None) for dest in options})
            expected.update({(f"--{dest}",): (None, int, None, False, None) for dest in limits})
            actual = {tuple(a.option_strings): (a.nargs, a.type, a.choices, a.required, a.default)
                      for a in COMMAND_PARSERS[name]._actions
                      if not isinstance(a, argparse._HelpAction)}
            assert actual == expected, name
