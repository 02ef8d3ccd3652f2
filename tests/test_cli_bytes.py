"""Byte-for-byte pins of the CLI's stdout.

test_cli.py samples lines and fields; these tests compare whole outputs, so
any change to spacing, key order, quoting or line endings fails here.  The
README examples are read from README.md itself, so the documentation cannot
drift from the program either.
"""

import contextlib
import csv
import hashlib
import io
import json
import re
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hkkit.cli
import hkkit.period
from hkkit.cli import _json, _Rows, main, run
from hkkit.closed_form import HKRecord, RingSpec, hk_table, hk_value
from hkkit.groebner import Q_CAP_DEFAULT
from hkkit.period import period_of
from hkkit.realize import realize

README = Path(__file__).resolve().parent.parent / "README.md"


@contextlib.contextmanager
def lifted_digit_limit():
    """CPython's int/str digit limit lifted, as README tells JSON consumers to do."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def readme_examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for each `$ hkkit ...` in README's CLI block."""
    text = README.read_text().split("## CLI", 1)[1]
    block = text.split("```\n", 2)[1]
    examples = []
    for chunk in block.split("\n\n"):
        command, *output = chunk.strip("\n").splitlines()
        examples.append((command.removeprefix("$ hkkit "), "\n".join(output) + "\n"))
    return examples


EXAMPLES = readme_examples()


def stdout_of(capsys, command: str) -> str:
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    return captured.out


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_readme_has_all_five_commands():
    commands = [command.split()[0] for command, _ in EXAMPLES]
    assert commands == ["table", "period", "realize", "verify", "gb"]


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_reproduces(capsys, command, expected):
    assert stdout_of(capsys, command) == expected


PROFILE_13 = [12, 22, 36, 40, 30, 42] * 2


def test_realize_csv(capsys):
    assert stdout_of(capsys, "realize --pi 6 --format csv") == (
        "target_pi,p,n,omega,pi,branch,residue_used,n_candidates,p_candidates\n"
        "6,2,13,12,6,HALF,2,1,1\n"
    )


def test_realize_json(capsys):
    assert stdout_of(capsys, "realize --pi 6 --format json") == canonical(
        {
            "target_pi": 6,
            "spec": {"p": 2, "n": 13},
            "report": {
                "omega": 12,
                "pi": 6,
                "branch": "HALF",
                "involution": True,
                "phi_profile": PROFILE_13,
            },
            "residue_used": 2,
            "search_stats": {"n_candidates": 1, "p_candidates": 1},
        }
    )


def test_period_json(capsys):
    assert stdout_of(capsys, "period --p 2 --n 5 --format json") == canonical(
        {
            "p": 2,
            "n": 5,
            "omega": 4,
            "pi": 2,
            "branch": "HALF",
            "involution": True,
            "phi_profile": [4, 6, 4, 6],
        }
    )


def test_verify_json(capsys):
    rows = [
        (0, 1, 1, None),
        (1, 2, 4, None),
        (2, 4, 16, None),
        (3, 8, 50, True),
        (4, 16, 102, True),
        (5, 32, 212, True),
    ]
    assert stdout_of(capsys, "verify --p 2 --n 7 --emax 5 --format json") == canonical(
        {
            "p": 2,
            "n": 7,
            "q_cap": 512,
            "rows": [
                {
                    "e": e,
                    "q": q,
                    "closed_form": hk,
                    "oracle": hk,
                    "basis_check": basis,
                    "pass": True,
                }
                for e, q, hk, basis in rows
            ],
            "skipped_e": [],
            "all_pass": True,
        }
    )


def test_gb_json(capsys):
    assert stdout_of(capsys, "gb --p 2 --n 3 --e 2 --format json") == canonical(
        {
            "p": 2,
            "n": 3,
            "e": 2,
            "q": 4,
            "generators": ["y^4", "x*y^3", "x^3 + y^3"],
            "staircase": [[0, 4], [1, 3], [3, 0]],
            "count": 10,
        }
    )


def test_canonical_json_layout(capsys):
    """The helper above renders what the CLI prints, byte for byte."""
    assert stdout_of(capsys, "period --p 3 --n 2 --format json") == (
        "{\n"
        '  "branch": "FULL",\n'
        '  "involution": false,\n'
        '  "n": 2,\n'
        '  "omega": 1,\n'
        '  "p": 3,\n'
        '  "phi_profile": [\n'
        "    1\n"
        "  ],\n"
        '  "pi": 1\n'
        "}\n"
    )


def csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


# Whole outputs at scale, rendered here from report.phi_profile with the
# standard library's own writers: HALF, FULL with omega 300054, and a
# composite modulus (3 * 100003).
@pytest.mark.parametrize("p, n", [(2, 100003), (3, 700133), (2, 300009)])
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_period_at_scale(capsys, fmt, p, n):
    r = period_of(RingSpec(p, n))
    fields = {"p": p, "n": n, "omega": r.omega, "pi": r.pi, "branch": r.branch.value,
              "involution": r.involution_check, "phi_profile": list(r.phi_profile)}
    if fmt == "json":
        expected = canonical(fields)
    else:
        sep = ";" if fmt == "csv" else " "
        cells = {**fields, "involution": str(r.involution_check).lower(),
                 "phi_profile": sep.join(map(str, r.phi_profile))}
        expected = (csv_text([list(cells), cells.values()]) if fmt == "csv" else
                    "".join(f"{k:<11}  {v}\n" for k, v in cells.items()))
    assert stdout_of(capsys, f"period --p {p} --n {n} --format {fmt}") == expected


def aligned(rows) -> str:
    """Plain text: right-aligned columns, two spaces apart."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n"
                   for row in cells)


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_table_at_scale(capsys, fmt):
    # q = 3^300 has 144 digits; every column is right-aligned to its widest cell
    header = ["e", "q", "b", "hk", "phi"]
    rows = [[r.e, r.q, r.b, r.hk, r.phi] for r in hk_table(RingSpec(3, 1000003), 300)]
    expected = {
        "plain": lambda: aligned([header, *rows]),
        "csv": lambda: csv_text([header, *rows]),
        "json": lambda: canonical(
            {"p": 3, "n": 1000003, "rows": [dict(zip(header, row)) for row in rows]}),
    }[fmt]()
    assert stdout_of(capsys, f"table --p 3 --n 1000003 --emax 300 --format {fmt}") == expected


# The largest tables: q = 10007^1150 has 4601 digits, past CPython's 4300-digit
# int/str limit, and p = 2 takes 4001 rows to reach 1205 digits.  The expected
# text is rendered here from hk_table's ints with the limit lifted.
@pytest.mark.parametrize("p, emax", [(10007, 1150), (2, 4000)])
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_table_past_the_digit_limit(capsys, fmt, p, emax):
    header = ["e", "q", "b", "hk", "phi"]
    rows = [list(r) for r in hk_table(RingSpec(p, 7), emax)]
    with lifted_digit_limit():
        expected = {
            "plain": lambda: aligned([header, *rows]),
            "csv": lambda: csv_text([header, *rows]),
            "json": lambda: canonical(
                {"p": p, "n": 7, "rows": [dict(zip(header, row)) for row in rows]}),
        }[fmt]()
    assert stdout_of(capsys, f"table --p {p} --n 7 --emax {emax} --format {fmt}") == expected


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_verify_with_skipped_rows(capsys, fmt):
    # 2^16 <= 100000 < 2^17: rows e = 0..16, the basis check from q = 8 > n on
    spec = RingSpec(2, 7)
    rows = [(e, 2**e, hk_value(spec, e), 2**e > 7) for e in range(17)]
    if fmt == "json":
        expected = canonical({
            "p": 2, "n": 7, "q_cap": 100000, "all_pass": True,
            "skipped_e": list(range(17, 41)),
            "rows": [{"e": e, "q": q, "closed_form": hk, "oracle": hk,
                      "basis_check": True if basis else None, "pass": True}
                     for e, q, hk, basis in rows],
        })
    else:
        name, cell = (("basis_check", ["na", "pass"]) if fmt == "csv" else
                      ("basis", ["-", "ok"]))
        table = [["e", "q", "closed_form", "oracle", name, "status"]]
        table += ([e, q, hk, hk, cell[basis], "PASS"] for e, q, hk, basis in rows)
        expected = csv_text(table) if fmt == "csv" else aligned(table)
    code = main(shlex.split(f"verify --p 2 --n 7 --emax 40 --qcap 100000 --format {fmt}"))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == expected
    assert captured.err == "skipped e = 17..40: q = p^e exceeds the oracle cap 100000\n"


def test_realize_json_at_scale(capsys):
    # the profile sits one level deeper than in period's document
    result = realize(4999, 100000, 100000)
    r = result.report
    expected = canonical({
        "target_pi": 4999,
        "spec": {"p": result.spec.p, "n": result.spec.n},
        "report": {"omega": r.omega, "pi": r.pi, "branch": r.branch.value,
                   "involution": r.involution_check, "phi_profile": list(r.phi_profile)},
        "residue_used": result.residue_used,
        "search_stats": {"n_candidates": result.search_stats.n_candidates,
                         "p_candidates": result.search_stats.p_candidates},
    })
    assert r.omega == 9998
    assert stdout_of(
        capsys, "realize --pi 4999 --nlimit 100000 --plimit 100000 --format json"
    ) == expected


@st.composite
def csv_commands(draw) -> str:
    """A valid CLI invocation in --format csv; verify and gb stay under the q cap."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))  # p = 13 makes gb print 12*y^5
    ring = f"--p {p} --n {draw(st.integers(2, 300).filter(lambda n: n % p))}"
    under_cap = st.integers(0, max(e for e in range(10) if p**e <= Q_CAP_DEFAULT))
    command = draw(st.sampled_from([
        f"table {ring} --emax {draw(st.integers(0, 40))}",
        f"period {ring}",
        f"realize --pi {draw(st.integers(1, 60))}",
        f"verify {ring} --emax {draw(under_cap)}",
        f"gb {ring} --e {draw(under_cap)}",
    ]))
    return command + " --format csv"


@given(csv_commands())
@example("gb --p 13 --n 5 --e 2 --format csv")
def test_csv_output_is_what_csv_writer_writes(command):
    # no cell needs quoting: csv.writer, on any version, writes the rows it reads back
    # byte for byte, each row has the header's width (no stray comma), and every cell
    # is letters, digits, spaces and _^*+;
    code, out, err = run(shlex.split(command))
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert csv_text(rows) == out
    assert {len(row) for row in rows} == {len(rows[0])}
    assert all(re.fullmatch(r"[A-Za-z0-9 _^*+;]+", cell) for row in rows for cell in row)


def test_json_splices_every_profile_and_refuses_other_types():
    half, full = period_of(RingSpec(2, 5)), period_of(RingSpec(3, 7))
    assert _json({"a": half, "b": [full, {"c": half}], "d": 1}) == canonical(
        {"a": list(half.phi_profile), "d": 1,
         "b": [list(full.phi_profile), {"c": list(half.phi_profile)}]})
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        _json({"a": half, "x": Fraction(1, 2)})
    with pytest.raises(TypeError, match="tuple is not JSON serializable"):
        _json({"a": half, "x": (1, 2)})


def plain_json(doc):
    """doc with each range as its list, the form json.dumps takes."""
    if isinstance(doc, dict):
        return {key: plain_json(value) for key, value in doc.items()}
    if isinstance(doc, (list, range)):
        return [plain_json(item) for item in doc]
    return doc


# non-ASCII, control characters, quotes, backslashes and a lone surrogate, which
# json escapes as \uXXXX, next to Hypothesis's own text
json_strings = st.text() | st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€\u2028\U0001f600\ud800'))
json_ints = st.integers() | st.builds(  # past CPython's 4300-digit int/str limit
    lambda digits, sign: sign * (10**digits + 12345), st.integers(4300, 4600),
    st.sampled_from([1, -1]))
json_ranges = st.builds(range, st.integers(-20, 20), st.integers(-20, 20),
                        st.integers(1, 4) | st.integers(-4, -1))
json_documents = st.recursive(
    st.none() | st.booleans() | json_ints | json_strings | json_ranges,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(json_strings, children,
                                                                      max_size=5),
    max_leaves=30)


@given(json_documents)
@example({})
@example({"a": [], "b": {}, "c": range(0), "d": [[], {}]})
def test_json_is_what_json_dumps_writes(doc):
    with lifted_digit_limit():
        assert _json(doc) == json.dumps(plain_json(doc), sort_keys=True, indent=2) + "\n"


def stdlib_rendering(command: str) -> str:
    """The stdout of a table, verify or period command, rendered from plain
    arithmetic and the library's values by aligned, csv_text and canonical."""
    kind, *options = shlex.split(command)
    opts = dict(zip(options[::2], options[1::2]))
    p, n, fmt = int(opts["--p"]), int(opts["--n"]), opts["--format"]
    spec = RingSpec(p, n)
    if kind == "period":
        r = period_of(spec)
        fields = {"p": p, "n": n, "omega": r.omega, "pi": r.pi, "branch": r.branch.value,
                  "involution": r.involution_check, "phi_profile": list(r.phi_profile)}
        if fmt == "json":
            return canonical(fields)
        sep = ";" if fmt == "csv" else " "
        cells = {**fields, "involution": str(r.involution_check).lower(),
                 "phi_profile": sep.join(map(str, r.phi_profile))}
        if fmt == "csv":
            return csv_text([list(cells), cells.values()])
        return "".join(f"{k:<11}  {v}\n" for k, v in cells.items())
    emax = int(opts["--emax"])
    if kind == "table":
        header = ["e", "q", "b", "hk", "phi"]
        rows = [[e, p**e, b, n * p**e - b * (n - b), b * (n - b)]
                for e, b in ((e, pow(p, e, n)) for e in range(emax + 1))]
        if fmt == "json":
            return canonical({"p": p, "n": n, "rows": [dict(zip(header, r)) for r in rows]})
        return (csv_text if fmt == "csv" else aligned)([header, *rows])
    # verify under the default cap: every row passes, the basis is checked once q > n
    rows = [(e, p**e, hk_value(spec, e), p**e > n)
            for e in range(emax + 1) if p**e <= Q_CAP_DEFAULT]
    if fmt == "json":
        return canonical({
            "p": p, "n": n, "q_cap": Q_CAP_DEFAULT, "all_pass": True,
            "skipped_e": list(range(len(rows), emax + 1)),
            "rows": [{"e": e, "q": q, "closed_form": hk, "oracle": hk,
                      "basis_check": True if basis else None, "pass": True}
                     for e, q, hk, basis in rows],
        })
    name, cell = ("basis_check", ["na", "pass"]) if fmt == "csv" else ("basis", ["-", "ok"])
    table = [["e", "q", "closed_form", "oracle", name, "status"]]
    table += ([e, q, hk, hk, cell[basis], "PASS"] for e, q, hk, basis in rows)
    return csv_text(table) if fmt == "csv" else aligned(table)


@st.composite
def rendered_commands(draw) -> str:
    """A table, verify or period invocation with p <= 13, n < 10^6, emax <= 60."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.one_of(st.integers(2, 999), st.integers(1000, 10**6 - 1)).filter(
        lambda n: n % p))
    kind = draw(st.sampled_from(["table", "verify", "period"]))
    emax = "" if kind == "period" else f" --emax {draw(st.integers(0, 60))}"
    fmt = draw(st.sampled_from(["plain", "csv", "json"]))
    return f"{kind} --p {p} --n {n}{emax} --format {fmt}"


@given(rendered_commands())
@settings(deadline=None)
@example("table --p 2 --n 7 --emax 0 --format plain")  # one row, the header wider than every value
@example("period --p 3 --n 2 --format plain")  # omega = 1
@example("period --p 3 --n 2 --format csv")
# b and phi have 3 and 6 digits from e = 5 to 9 (b = 243, phi = 183951 at e = 5),
# but 2 and 5 in the last row (b = 49, phi = 46599)
@example("table --p 3 --n 1000 --emax 10 --format plain")
def test_stdout_is_the_stdlib_rendering(command):
    code, out, err = run(shlex.split(command))
    assert code == 0, err
    assert out == stdlib_rendering(command)


def test_json_splices_table_rows_and_profiles_alike():
    # both marks, at two depths, rendered by the one splice loop
    report, records = period_of(RingSpec(3, 7)), hk_table(RingSpec(3, 1000), 10)
    fields = HKRecord._fields
    doc = {"rows": _Rows(fields, records),
           "z": [{"profile": report, "rows": _Rows(fields, records[:1])}, _Rows(fields, [])]}
    assert _json(doc) == canonical({
        "rows": [r._asdict() for r in records],
        "z": [{"profile": list(report.phi_profile), "rows": [records[0]._asdict()]}, []],
    })


# Profiles printed at most 2^20 values long: the rings' phi(0), ..., phi(m - 1),
# m = min(omega, 2^20), from b = pow(p, e, n), in each format's writer; the
# rings as (p, n, omega, pi)
PROFILE_CAP = 2**20
CAPPED_RINGS = [
    (2, 1048589, 1048588, 524294),  # HALF, pi < 2^20 < omega: cut inside the second copy
    (2, 2097983, 1048991, 1048991),  # FULL: cut inside the cycle
    (5, 7340033, 1048576, 524288),  # omega = 2^20: nothing cut
]


def phi_prefix(p: int, n: int, omega: int) -> list[int]:
    return [b * (n - b) for b in (pow(p, e, n) for e in range(min(omega, PROFILE_CAP)))]


@pytest.mark.parametrize("p, n, omega, pi", CAPPED_RINGS)
def test_profile_is_capped_in_every_format(capsys, p, n, omega, pi):
    r = period_of(RingSpec(p, n))
    assert (r.omega, r.pi) == (omega, pi)
    fields = {"p": p, "n": n, "omega": omega, "pi": pi, "branch": r.branch.value,
              "involution": r.involution_check, "phi_profile": phi_prefix(p, n, omega)}
    assert len(fields["phi_profile"]) == min(omega, PROFILE_CAP)
    for fmt in ("plain", "csv", "json"):
        if fmt == "json":
            expected = canonical(fields)
        else:
            sep = ";" if fmt == "csv" else " "
            cells = {**fields, "involution": str(r.involution_check).lower(),
                     "phi_profile": sep.join(map(str, fields["phi_profile"]))}
            expected = (csv_text([list(cells), cells.values()]) if fmt == "csv" else
                        "".join(f"{k:<11}  {v}\n" for k, v in cells.items()))
        assert stdout_of(capsys, f"period --p {p} --n {n} --format {fmt}") == expected, fmt


def test_realize_json_profile_is_capped(capsys):
    # omega = 2 * 600000 > 2^20: the second copy of the cycle is cut
    result = realize(600000, 2400001, 2)
    r = result.report
    assert (result.spec.p, result.spec.n, r.omega, r.pi) == (2, 2400001, 1200000, 600000)
    expected = canonical({
        "target_pi": 600000,
        "spec": {"p": 2, "n": 2400001},
        "report": {"omega": r.omega, "pi": r.pi, "branch": r.branch.value,
                   "involution": r.involution_check,
                   "phi_profile": phi_prefix(2, 2400001, r.omega)},
        "residue_used": result.residue_used,
        "search_stats": {"n_candidates": result.search_stats.n_candidates,
                         "p_candidates": result.search_stats.p_candidates},
    })
    assert stdout_of(
        capsys, "realize --pi 600000 --nlimit 2400001 --plimit 2 --format json") == expected


def test_block_edges_change_no_capped_profile(capsys, monkeypatch):
    # one % call per block, the cut inside a block or on its edge: the same
    # bytes at every block size, the cycle's blocks of 1 and 3 values included
    argvs = [f"period --p 2 --n 1048589 --format {fmt}" for fmt in ("plain", "csv", "json")]
    argvs += ["period --p 2 --n 2097983 --format json", "period --p 5 --n 7340033 --format csv"]
    digests = {argv: set() for argv in argvs}
    for size in (1, 3, 4096):
        monkeypatch.setattr(hkkit.period, "_BLOCK", size)
        for argv in argvs:
            digests[argv].add(hashlib.sha256(stdout_of(capsys, argv).encode()).digest())
    assert {argv: len(found) for argv, found in digests.items()} == dict.fromkeys(argvs, 1)
