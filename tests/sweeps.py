"""CI's evidence sweeps, each run by its name:

    PYTHONPATH=src python tests/sweeps.py oracle|definition|chains|enumerate|realize|periods
    python tests/sweeps.py readme|exits|module|json|long-table|long-profile|csv|startup|library

run_sweep checks each row, prints a summary line that names the failed
rows, and returns 1 on a failed row, a count other than the guard's, or a
run past the time limit, which it stops after the row that passes the limit.  Any argument but one sweep's name exits 2, and so
does one of the last nine, which check the installed script and package,
while hkkit comes from the checkout: run those after `pip install .`.
"""

import csv
import difflib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import NamedTuple

import hkkit
from hkkit import RingSpec, hk_brute, verify_closed_form_basis
from hkkit.cli import _generators
from hkkit.groebner import (PairBudgetExceededError, _binomial_buchberger, _colength,
                            buchberger, frobenius_power_generators)
from hkkit.numtheory import multiplicative_order
from hkkit.period import period_of, verify_minimal_period
from hkkit.realize import SearchExhausted, enumerate_realizations, realize
from test_cli_bytes import EXAMPLES, README, lifted_digit_limit
from test_colength_definition import (basis_faults, chain_rows, colength_by_chains,
                                      colength_by_definition)
from test_groebner import ORACLE_BOX, as_poly
from test_cli import NOT_AT_STARTUP
from test_period import (P47, check_claimed_period_by_pow, check_with_evidence,
                         largest_prime_below)
from test_realize import enumerate_by_sweep


class Sweep(NamedTuple):
    line: str  # the summary less the time; it may name rows, failed and tally
    rows: Sequence
    check: Callable[..., bool]  # check(row, tally); it may count into the Counter tally
    count: int  # the guard: how many rows, or how many of the tally's unit
    unit: str = "rows"
    limit: float = math.inf  # seconds


def run_sweep(sweep: Sweep) -> int:
    """Check the rows in order, and stop after the first that ends past the
    time limit: the summary then counts the rows run so far."""
    start, failed, tally, ran, elapsed = time.perf_counter(), [], Counter(), 0, 0.0
    for row in sweep.rows:
        ran += 1
        if not sweep.check(row, tally):
            failed.append(row)
        elapsed = time.perf_counter() - start
        if elapsed > sweep.limit:
            break
    found = ran if sweep.unit == "rows" else tally[sweep.unit]
    limit = f" (limit {sweep.limit} s)" if sweep.limit < math.inf else ""
    print(sweep.line.format(rows=ran, failed=failed,
                            tally=dict(sorted(tally.items()))) + f", {elapsed:.2f} s{limit}")
    return int(found != sweep.count or bool(failed) or elapsed > sweep.limit)


def returns(run, gens, budget):
    """Whether run(gens, budget) returns, rather than raising at the budget."""
    try:
        run(gens, budget)
    except PairBudgetExceededError:
        return False
    return True


# every ring of the benchmark's oracle box with every q = p^e <= 2^17, then
# two large powers of 2; the colength n*q - b*(n - b), b = q mod n, is
# computed here, never by hk_value, and the basis of the oracle's
# binomial engine, which builds its generators as pairs (lead, tail)
# and returns pairs, must equal, as FpPolys and leads, the basis the
# general buchberger computes from the generator FpPolys; gb's text,
# printed from the pairs, must be str() of buchberger's generators; and
# at the smallest pair budget k at which buchberger returns, the
# binomial engine, which counts a pair of two monomials but does not
# reduce it, must return too, and raise at k - 1 as buchberger does
ORACLE_ROWS = ORACLE_BOX + [(2, n, e) for e in (4096, 65536) for n in range(3, 41, 2)]


def oracle_row(row, budgets) -> bool:
    """Whether the row passes; its smallest pair budget k is counted in budgets."""
    p, n, e = row
    spec, q = RingSpec(p, n), p**e
    b = q % n
    ok = hk_brute(spec, e, q_cap=q) == n * q - b * (n - b)
    if q > n:
        ok = ok and verify_closed_form_basis(spec, e, q_cap=q).ok
    pairs = _colength(spec, q)[0]
    expected = buchberger(frobenius_power_generators(spec, e))
    ok = ok and tuple(as_poly(p, g) for g in pairs) == expected.generators
    ok = ok and tuple(g[0] for g in pairs) == expected.staircase
    # q = 2^65536 prints with 19,729 digits, past CPython's int/str limit
    with lifted_digit_limit():
        ok = ok and _generators(p, pairs) == [str(g) for g in expected.generators]
    gens, k = frobenius_power_generators(spec, e), 0
    while not returns(buchberger, gens, k):
        k += 1
    budgets[k] += 1
    gens = [((q, 0), None), ((0, q), None), ((n, 0), (0, n))]
    ok = ok and returns(_binomial_buchberger, gens, k)
    return ok and not (k and returns(_binomial_buchberger, gens, k - 1))


# tier-1 checks q <= 128 against the union-find over the q^2 monomials;
# here p = 2 with q = 256 and 512, and p = 3 with q = 243, for every
# 2 <= n < 30 coprime to p: the count and the returned basis
DEFINITION_ROWS = [(p, n, q) for p, qs in ((2, (256, 512)), (3, (243,))) for q in qs
                   for n in range(2, 30) if n % p]


def definition_row(row, tally) -> bool:
    p, n, q = row
    basis, count = _colength(RingSpec(p, n), q)
    return count == colength_by_definition(n, q) and not basis_faults(p, n, q, basis)


def chain_row(row, tally) -> bool:
    p, n, q = row
    return _colength(RingSpec(p, n), q)[1] == colength_by_chains(n, q)


# the 300 x 300 box for every pi the benchmark draws: the sieve's
# results, their order and every search_stats snapshot must equal
# the sweep that runs period_of on every ring (well under a minute)
def enumerate_row(pi, tally) -> bool:
    want = enumerate_by_sweep(pi, 300, 300, 10**6)
    tally["rings"] += len(want)
    return enumerate_realizations(pi, 300, 300, 10**6) == want


# realize for every pi up to 100 times tier-1's 200, at n, p <= 10^6: each
# ring's residue has order 2*pi by multiplicative_order (lambda(n), not the
# +-1 test realize applies), p^pi == -1 (mod n), and period_of finds pi; an
# exhausted pi has scanned every n == 1 (mod 2*pi) up to 10^6
REALIZE_LIMIT = 10**6


def realize_row(pi, tally) -> bool:
    try:
        result = realize(pi, REALIZE_LIMIT, REALIZE_LIMIT)
    except SearchExhausted as exhausted:
        tally["exhausted"] += 1
        return exhausted.stats.n_candidates == len(range(1 + 2 * pi, REALIZE_LIMIT + 1, 2 * pi))
    tally["realized"] += 1
    p, n = result.spec.p, result.spec.n
    return (multiplicative_order(result.residue_used, n) == 2 * pi
            and pow(p, pi, n) == n - 1 and period_of(result.spec).pi == pi)


# verify_minimal_period at n up to 2^63 - 1: p = 2 and 3 at the largest prime
# below 2^k, and p = 2, 3 and 5 at 2^k - 1 and 2^k + 1, for k = 2..63; each
# answer against test_period's evidence, which shares only pow with numtheory
# (pi's factors multiplied back and proved prime, p^pi == +-1 and
# p^(pi/r) != +-1 mod n), and where omega <= 2^16 against the reference that
# takes one pow per index of the window too; and p = 2 at the prime
# 14 * 47# + 1, where pi = 47# has 32,768 divisors
PERIOD_ROWS = sorted({(p, n) for k in range(2, 64) for ps, ns in (
    ((2, 3), (largest_prime_below(2**k),)), ((2, 3, 5), (2**k - 1, 2**k + 1)))
    for p in ps for n in ns if n % p and n < 2**63} | {(2, 14 * P47 + 1)},
    key=lambda pn: (pn[1], pn[0]))


def period_row(row, tally) -> bool:
    spec = RingSpec(*row)
    report = period_of(spec)
    tally[report.branch.value] += 1
    ok = check_with_evidence(spec)
    if report.omega <= 2**16:
        tally["by pow"] += 1
        ok = ok and verify_minimal_period(spec, 2) == check_claimed_period_by_pow(
            spec, report.pi, report.omega, 2)
    return ok


# the installed script; tier-1 runs `python -m hkkit.cli` from src in its place
HKKIT = ("hkkit",)
CHECKOUT = Path(__file__).resolve().parent.parent

# each command sweep's rows: (command, the exit code it wants, what else it must do)
README_ROWS = [(f"hkkit {command}", 0, "README's stdout") for command, _ in EXAMPLES]
EXIT_ROWS = [
    # success, invalid input, search exhausted, internal fault: README's exit-code table
    *[(f"hkkit {command}", expected, "error line") for command, expected in [
        ("period --p 2 --n 5", 0),
        ("period --p 4 --n 5", 2),
        # a strong pseudoprime to the 12 prime bases 2..37 (A014233)
        ("period --p 318665857834031151167461 --n 7", 2),
        ("realize --pi 1000 --nlimit 10", 3),
        # valid requests whose scan would pass n = 2^63 - 1
        ("realize --pi 4611686018427387889 --nlimit 36893488147419103232 --plimit 1000", 3),
        ("realize --pi 10000000000000000000000000 --nlimit 1000000000000000000000000000000", 3),
        # cap exceeded, refused from bit lengths before p^e is built
        ("gb --p 2 --n 5 --e 100000000000", 2),
        # a phi cycle of 4.6 * 10^18 values, printed as its first 2^20 (long-profile)
        ("period --p 3 --n 9223372036854775783", 0),
    ]],
    # more skipped e than sys.maxsize, listed in JSON: out of memory too, after
    # verify's note on the skipped range
    ("hkkit verify --p 2 --n 5 --emax 100000000000000000000 --format json", 4, "note"),
    # argparse rejections: exit 2 too, with a usage line before the error line;
    # the script calls main with argv=None, so it parses sys.argv itself
    *[(f"hkkit {command}", 2, "usage") for command in [
        "", "gb --p 2", "table --p 2 --n 5 --emax 1 --bogus 1",
        "--format json gb --p 2 --n 3 --e 1"]],
    # an argument left over by the command's parser is reported by the top-level one
    ("hkkit gb --p 2 --n 3 --e 1 extra", 2, "top-level usage"),
    # help, which main returns as exit 0 from argparse's exit
    *[(f"hkkit {command}", 0, "help") for command in ["--help", "gb --help"]],
    # `=` forms and an abbreviated option, read by the command's parser alone
    ("hkkit gb --p=2 --n=3 --e=1 --form json", 0, "nothing"),
    # the canonical argv is read off the option table, its `=` and abbreviated
    # forms by argparse: the same stdout on this Python's argparse
    *[(f"hkkit {command}", 0, "same stdout") for command in [
        "gb --p 2 --n 3 --e 1 --format json",
        "gb --p=2 --n=3 --e=1 --format=json",
        "gb --p 2 --n 3 --e 1 --form json"]],
]
# the module entry point, `python -m hkkit.cli`, runs the same main as the script
MODULE_ROWS = [("hkkit period --p 2 --n 5", 0, "same stdout"),
               ("python -m hkkit.cli period --p 2 --n 5", 0, "same stdout"),
               ("python -m hkkit.cli period --p 4 --n 5", 2, "error line")]
# README's round-trip promise, on documents whose phi_profile, table rows
# or skipped_e are filled in whole, and on ones of strings and nested lists;
# the p = 10007 table has values of 4601 digits, so parse with the limit lifted
JSON_ROWS = [(f"hkkit {command}", 0, "JSON round trip") for command in [
    "period --p 2 --n 100003 --format json", "realize --pi 6 --format json",
    "table --p 2 --n 7 --emax 300 --format json",
    "table --p 10007 --n 7 --emax 1150 --format json",
    "verify --p 3 --n 7 --emax 5 --format json",
    "gb --p 13 --n 5 --e 2 --format json",
    "verify --p 2 --n 7 --emax 3000 --format json"]]
# verify notes the e past the q cap on stderr, and lists them in skipped_e
JSON_NOTES = {"hkkit verify --p 2 --n 7 --emax 3000 --format json":
              "skipped e = 10..3000: q = p^e exceeds the oracle cap 512\n"}
# table prints q and HK(e) from an exact decimal walk, in linear time per
# row, so 14,301 rows of up to 4306 digits take under 2 s on every Python
# here; printed as ints, quadratic in their digits, they took 3.3-3.9 s
LONG_TABLE_ROWS = [("hkkit table --p 2 --n 7 --emax 14300", 0, "nothing")]
# a profile prints at most 2^20 values, so a cycle of 4.6 * 10^18 prints at
# once: each format's row must print 2^20 values (every 4093rd checked) within
# the long-table limit, 2 s; the walk and the text took 0.3-0.4 s
LONG_PROFILE_ROWS = [(f"hkkit period --p 3 --n 9223372036854775783 --format {fmt}", 0,
                      "2^20 values") for fmt in ("plain", "csv", "json")]
LONG_PROFILE_LIMIT = 2  # seconds, per row
# no CSV cell needs quoting: csv.writer, under this version's rules,
# writes back the rows it reads from each output byte for byte, and
# every row has the header's width (no cell holds a comma)
CSV_ROWS = [(f"hkkit {command} --format csv", 0, "CSV round trip") for command in [
    "period --p 2 --n 100003", "gb --p 13 --n 5 --e 2",
    "verify --p 3 --n 7 --emax 5", "table --p 2 --n 5 --emax 3", "realize --pi 6"]]


def command_row(row, tally) -> bool:
    """Whether the command, `hkkit` as HKKIT and `python` as this interpreter,
    exits as wanted and does what want names; the tally keeps the first "same stdout"."""
    command, expected, want = row
    program, *args = shlex.split(command)
    argv = [*HKKIT, *args] if program == "hkkit" else [sys.executable, *args]
    start = time.perf_counter()
    run = subprocess.run(argv, stdout=subprocess.DEVNULL if want == "nothing" else subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    lines = run.stderr.splitlines()
    print(f"{command}: exit {run.returncode} (want {expected}), stderr {run.stderr!r}, "
          f"{elapsed:.2f} s")
    if run.returncode != expected:  # before any output is parsed
        return False
    if want == "README's stdout":
        readme = dict(EXAMPLES)[command.removeprefix("hkkit ")]
        diff = list(difflib.unified_diff(
            readme.splitlines(True), run.stdout.splitlines(True), "README", command))
        sys.stdout.writelines(diff)
        clean = not (bool(diff) or run.stderr != "")
    elif want == "error line":
        # nothing on success, else a single `error:` line and no traceback
        clean = not lines if expected == 0 else (
            len(lines) == 1 and lines[0].startswith("error: "))
    elif want == "note":
        clean = run.stdout == "" and run.stderr.splitlines() == [
            "skipped e = 10..100000000000000000000: q = p^e exceeds the oracle cap 512",
            "error: internal fault: out of memory"]
    elif want == "usage":
        clean = bool(lines) and "error:" in lines[-1] and "Traceback" not in run.stderr
    elif want == "help":
        clean = run.stderr == "" and run.stdout.startswith("usage: hkkit")
    elif want == "top-level usage":
        clean = lines[:1] == ["usage: hkkit [-h] {table,period,realize,verify,gb} ..."]
    elif want == "JSON round trip":
        with lifted_digit_limit():
            again = json.dumps(json.loads(run.stdout), sort_keys=True, indent=2) + "\n"
        clean = not (run.stderr != JSON_NOTES.get(command, "") or run.stdout != again)
    elif want == "CSV round trip":
        limit = csv.field_size_limit(sys.maxsize)  # period's profile is one long cell
        try:
            rows, out = list(csv.reader(io.StringIO(run.stdout))), io.StringIO()
        finally:
            csv.field_size_limit(limit)
        csv.writer(out, lineterminator="\n").writerows(rows)
        same = run.stdout == out.getvalue() and {len(r) for r in rows} == {len(rows[0])}
        clean = not (run.stderr != "" or not same)
    elif want == "2^20 values":
        # the profile: the plain line's, the CSV row's last cell, or the JSON list
        profile = {"plain": lambda: re.search(r"^phi_profile  (.*)$", run.stdout, re.M)[1].split(),
                   "csv": lambda: run.stdout.splitlines()[1].rpartition(",")[2].split(";"),
                   "json": lambda: json.loads(run.stdout)["phi_profile"],
                   }[args[-1]]()
        p, n = (int(args[args.index(option) + 1]) for option in ("--p", "--n"))
        clean = not (run.stderr != "" or len(profile) != 2**20 or elapsed > LONG_PROFILE_LIMIT
                     or any(int(profile[e]) != pow(p, e, n) * (n - pow(p, e, n))
                            for e in range(0, 2**20, 4093)))
    else:
        clean = run.stderr == "" and (
            want == "nothing" or tally.setdefault("stdout", run.stdout) == run.stdout)
    return clean


# start-up: the installed script imports none of the modules hkkit loads only
# where it needs them, NOT_AT_STARTUP, nor argparse, which only a refused argv
# needs; of them, the oracle, hkkit.groebner, loads for gb alone (the import
# list is what -X importtime writes to stderr, site's imports included).  realize runs
# in plain format, since --format json loads json, which NOT_AT_STARTUP lists
STARTUP_ROWS = [("period --p 2 --n 5", ()), ("realize --pi 6", ()),
                ("gb --p 2 --n 5 --e 3", ("hkkit.groebner",))]


def startup_row(row, tally) -> bool:
    command, wanted = row
    run = subprocess.run([*HKKIT, *command.split()], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPROFILEIMPORTTIME": "1"})
    loaded = set(re.findall(r"^import time:.*\|\s*(\S+)$", run.stderr, re.M))
    heavy = sorted((NOT_AT_STARTUP | {"argparse"}) - set(wanted) & loaded)
    missing = sorted({"hkkit.cli", *wanted} - loaded)
    print(f"PYTHONPROFILEIMPORTTIME=1 hkkit {command}: exit {run.returncode}, "
          f"{len(loaded)} modules imported, of them {heavy or 'none'} unwanted, "
          f"{missing or 'none'} missing")
    return not (run.returncode != 0 or missing or heavy)


# README's library example against the installed package, which catches a
# module that package discovery leaves out: each `expr  # value` line must
# evaluate to a value whose repr the comment starts with (up to a comma or
# its end); the lines before it run in the scope the tally keeps
LIBRARY_ROWS = re.search(r"## Library use\n\n```python\n(.*?)```",
                         README.read_text(), re.S)[1].splitlines()


def library_row(line, tally) -> bool:
    scope = tally.setdefault("scope", {})
    code, _, comment = line.partition("  # ")
    if not comment:
        exec(code, scope)
        return True
    got = repr(eval(code, scope))
    comment = comment.strip()
    print(f"{code.strip()} -> {got}")
    tally["checked"] += 1
    return comment == got or comment.startswith(got + ",")


INSTALLED = {
    "readme": Sweep("README sweep: {rows} examples, failed {failed}", README_ROWS, command_row, 5),
    "exits": Sweep("exit-code sweep: {rows} commands, failed {failed}", EXIT_ROWS, command_row, 20),
    "module": Sweep("module sweep: {rows} commands, failed {failed}", MODULE_ROWS, command_row, 3),
    "json": Sweep("JSON sweep: {rows} commands, failed {failed}", JSON_ROWS, command_row, 7),
    "long-table": Sweep("long-table sweep: {rows} command, failed {failed}",
                        LONG_TABLE_ROWS, command_row, 1, limit=2),
    "long-profile": Sweep("long-profile sweep: {rows} commands, failed {failed}",
                          LONG_PROFILE_ROWS, command_row, 3),
    "csv": Sweep("CSV sweep: {rows} commands, failed {failed}", CSV_ROWS, command_row, 5),
    "startup": Sweep("start-up sweep: {rows} commands, failed {failed}",
                     STARTUP_ROWS, startup_row, 3),
    "library": Sweep("library sweep: {tally[checked]} README lines checked, failed {failed}",
                     LIBRARY_ROWS, library_row, 5, "checked"),
}

SWEEPS = {
    "oracle": Sweep("oracle sweep: {rows} rows, failed {failed}, "
                    "rows per smallest budget {tally}", ORACLE_ROWS, oracle_row, 1512),
    "definition": Sweep("definition sweep: {rows} rows, failed {failed}",
                        DEFINITION_ROWS, definition_row, 47),
    # the union-find stops at q = 512; the chain count, checked against it in
    # tier-1, counts the same components in O(q*n): every q = p^e past 128 up
    # to 2^14, 3^9 and 5^6, for every 2 <= n < 30 coprime to p
    "chains": Sweep("chain-count sweep: {rows} rows, failed {failed}",
                    chain_rows(((2, 14), (3, 9), (5, 6))), chain_row, 262),
    "enumerate": Sweep("enumerate sweep: pi = 1..24, {tally[rings]} rings, failed {failed}",
                       range(1, 25), enumerate_row, 11869, "rings", 60),
    "realize": Sweep("realize sweep: pi = 1..20000, n, p <= 10^6, failed {failed}, "
                     "pi per outcome {tally}", range(1, 20001), realize_row, 20000, limit=60),
    "periods": Sweep("period sweep: {rows} rings, failed {failed}, rings per kind {tally}",
                     PERIOD_ROWS, period_row, 384, limit=60),
    **INSTALLED,
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in SWEEPS:
        print(f"usage: sweeps.py {{{','.join(SWEEPS)}}}", file=sys.stderr)
        return 2
    if argv[0] in INSTALLED and Path(hkkit.__file__).resolve().is_relative_to(CHECKOUT):
        print(f"sweeps.py: {argv[0]} needs hkkit installed, not {hkkit.__file__}", file=sys.stderr)
        return 2
    return run_sweep(SWEEPS[argv[0]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
