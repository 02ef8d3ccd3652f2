"""Command-line front end.

Subcommands: table (Hilbert-Kunz values), period (period report), realize
(search for a ring with a prescribed period), verify (closed form against the
Groebner oracle), gb (display a reduced basis).  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 verification failure,
2 invalid input, 3 search exhausted, 4 internal fault (a library
self-check failed, or memory ran out).

All output is deterministic and integer-exact; JSON is written canonically,
by one walk, as json.dumps(doc, sort_keys=True, indent=2) writes it, so
identical invocations are byte-identical and parse/re-render round-trips.
"""

import functools
import os
import sys
from collections.abc import Sequence
from itertools import chain
from math import log2
from operator import itemgetter
from types import SimpleNamespace

import hkkit  # its first read of groebner loads the oracle: gb and verify alone
from .closed_form import Q_CAP_DEFAULT, HKRecord, RingSpec, _rows, _Value, hk_value
from . import period
from .period import PeriodReport, period_of
from .realize import SEARCH_LIMIT_DEFAULT, SearchExhausted, SearchStats, realize

# Limit options: dest -> (env variable, default, help); flag > env > default.
LIMITS = {
    "qcap": ("HKKIT_QCAP", Q_CAP_DEFAULT, "oracle cap on q = p^e"),
    "nlimit": ("HKKIT_NLIMIT", SEARCH_LIMIT_DEFAULT, "modulus search bound"),
    "plimit": ("HKKIT_PLIMIT", SEARCH_LIMIT_DEFAULT, "characteristic search bound"),
}

# Subcommands: name -> (help, required int options as {dest: help}, LIMITS dests);
# every command also takes --format, one of FORMATS
_RING = {"p": "characteristic (prime)", "n": "exponent n in x^n - y^n"}
COMMANDS = {
    "table": ("tabulate e, q, b, HK(e), phi(e)",
              {**_RING, "emax": "largest e to tabulate"}, ()),
    "period": ("order, period, and branch report", _RING, ()),
    "realize": ("find a ring with a prescribed period",
                {"pi": "target period"}, ("nlimit", "plimit")),
    "verify": ("closed form vs. Groebner oracle, row per e",
               {**_RING, "emax": "largest e to check"}, ("qcap",)),
    "gb": ("reduced Groebner basis of (x^q, y^q, x^n - y^n)",
           {**_RING, "e": "Frobenius exponent"}, ("qcap",)),
}
FORMATS = ("plain", "csv", "json")
# a command's arguments: _parse_table's namespace, or argparse's for other argvs
# (a string: argparse is imported by build_parser, which a well-formed argv never runs)
_Args = "SimpleNamespace | argparse.Namespace"
_quote = None  # json.encoder's C string escaper, imported by the first _json call
_EXACT = None  # table's exact decimal context, built by its first long table
# table's measured crossover, q = 2^830 (250 digits): below it the int walk is
# the faster in every format, above it the exact Decimal walk (CHANGES.md)
_INT_TABLE_BITS = 830
# a profile prints phi(0), ..., phi(m - 1), m = min(omega, _PROFILE_CAP): the
# smallest power of two above every omega the tests and the benchmark print
_PROFILE_CAP = 1 << 20
_FULL_BLOCK = {}  # separator -> the template of one full block of period._phi_blocks
_LITERALS = {None: "null", True: "true", False: "false"}  # as JSON writes them


def _cell(value, sep: str) -> str:
    """The text of one record value: a bool as JSON writes it, a report as its
    phi_profile's first _PROFILE_CAP values joined by sep, the rest by str.
    _json writes a report's list through it, sep being a comma and the list's
    indent."""
    if isinstance(value, bool):
        return _LITERALS[value]
    if isinstance(value, PeriodReport):
        # one % call per block of the cycle, then its text repeated while the
        # copies fit, and then the prefix that reaches the cap
        count = min(value.omega, _PROFILE_CAP)
        walked, size = min(value.pi, count), period._BLOCK
        full = _FULL_BLOCK.get(sep) or _FULL_BLOCK.setdefault(sep, sep.join(["%d"] * size))
        texts = [(full if len(block) == size else sep.join(["%d"] * len(block))) % tuple(block)
                 for block in period._phi_blocks(value.spec, walked)]
        blocks, rest = divmod(count % walked, size)
        cut = [sep.join(texts[blocks].split(sep, rest)[:rest])] if rest else []
        return sep.join(texts * (count // walked) + texts[:blocks] + cut)
    return str(value)


class _Rows(_Value):
    """Records, tuples whose cells fields names in order, which _json writes as
    a list of sorted-key objects: one row template, filled over all rows by
    one % call.  Cells are ints, integral Decimals, and JSON literals given as
    their text."""

    __match_args__ = ("fields", "records")

    def __init__(self, fields: Sequence[str], records: Sequence[tuple]) -> None:
        self.__dict__["fields"], self.__dict__["records"] = fields, records


def _json(doc) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) and a newline, each report as its
    phi_profile list (cut as _cell cuts it), each _Rows as its list of objects
    and each range as its list, written by one walk into one list of pieces
    that is joined once.
    Keys are str and values str, int, bool, None, dict, list, range,
    PeriodReport or _Rows; others (a tuple too) raise json's TypeError."""
    global _quote
    if _quote is None:
        from json.encoder import encode_basestring_ascii as _quote
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, pad: str, out: list) -> None:
    """Append obj's canonical text to out; pad is a newline and the indent of
    the line obj starts on, and its items go on lines two spaces further in."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append(_LITERALS[None])
    elif isinstance(obj, int):
        out.append(_LITERALS[obj] if isinstance(obj, bool) else int.__repr__(obj))
    elif isinstance(obj, dict):
        inner = pad + "  "
        out.append("{")
        for key in sorted(obj):
            out += (inner, _quote(key), ": ")
            _write(obj[key], inner, out)
            out.append(",")
        out[-1] = pad + "}" if obj else "{}"  # the last comma, or the opening brace
    elif isinstance(obj, list):
        inner = pad + "  "
        out.append("[")
        for item in obj:
            out.append(inner)
            _write(item, inner, out)
            out.append(",")
        out[-1] = pad + "]" if obj else "[]"
    else:  # a flat list, rendered whole
        inner = pad + "  "
        if isinstance(obj, range):
            # the template's size is checked before anything is built: a range
            # too long to list fails at once, with no memory taken
            text = ("," + inner).join(["%d"] * len(obj)) % tuple(obj)
        elif isinstance(obj, PeriodReport):
            text = _cell(obj, "," + inner)
        elif isinstance(obj, _Rows):
            fields = obj.fields
            keys = sorted(fields)
            row = "{" + ",".join([f"{inner}  {_quote(k)}: %s" for k in keys]) + inner + "}"
            values = chain.from_iterable(map(itemgetter(*map(fields.index, keys)), obj.records))
            text = ("," + inner).join([row] * len(obj.records)) % tuple(values)
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        out += ("[", inner, text, pad, "]") if text else ("[]",)


@functools.cache
def _template(keys: tuple) -> str:
    """One `key  %s` line per key, keys left-aligned: a record's plain view."""
    width = max(map(len, keys))
    return "".join([f"{k:<{width}}  %s\n" for k in keys])


def _emit(fmt: str, doc, table, plain=None) -> None:
    """Write one result to stdout as fmt, building only that format's view.

    doc() gives the JSON document, table() the header row and rows for CSV,
    and plain() the plain text, written in one call (by default the table in
    right-aligned columns, two spaces apart).  Table cells are ints, integral
    Decimals and str, never bool: each view fills one row template, repeated
    over all rows, with one % call.
    Each CSV row is its cells joined by commas, unquoted: every cell the CLI
    prints is letters, digits, spaces and `_^*+;`, which csv.writer never quotes.
    """
    if fmt == "json":
        sys.stdout.write(_json(doc()))
    elif fmt == "plain" and plain:
        sys.stdout.write(plain())
    else:
        rows = list(table())
        width, cells = len(rows[0]), tuple(chain.from_iterable(rows))
        if fmt == "csv":
            line = ",".join(["%s"] * width)
        else:  # each column right-aligned to its widest cell
            cells = tuple(map(str, cells))
            line = "  ".join([f"%{max(map(len, cells[k::width]))}s" for k in range(width)])
        text = (line + "\n") * len(rows) % cells
        # a profile's cell is as long as the text: drop it before the text is encoded
        del rows, cells
        sys.stdout.write(text)


def _emit_record(fmt: str, fields: dict, doc=None) -> None:
    """One record: a CSV row, `key  value` plain lines, doc() or fields as JSON."""
    _emit(fmt, doc or (lambda: fields),
          lambda: [list(fields), [_cell(v, ";") for v in fields.values()]],
          lambda: _template(tuple(fields)) % tuple([_cell(v, " ") for v in fields.values()]))


def _report(r: PeriodReport) -> dict:  # a view that prints the profile adds r itself
    return {"omega": r.omega, "pi": r.pi, "branch": r.branch.value,
            "involution": r.involution_check}


def cmd_table(args: _Args) -> int:
    global _EXACT
    spec = RingSpec(args.p, args.n)
    # the last q = p^emax has emax * log2(p) bits: up to _INT_TABLE_BITS, q and
    # HK(e) walk as ints; past it, as Decimals in a context where every integer is
    # exact (any rounding would raise Inexact): a row costs one multiplication by
    # p, and its text is linear in its digits, where int-to-str is quadratic
    if args.emax <= _INT_TABLE_BITS / log2(spec.p):  # emax is never made a float
        records = _rows(spec, args.emax, 1)
    else:
        import decimal  # only a long table needs it
        if _EXACT is None:
            _EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                     traps=[decimal.Inexact])
        with decimal.localcontext(_EXACT):
            records = _rows(spec, args.emax, decimal.Decimal(1))
    doc = {"p": spec.p, "n": spec.n}
    _emit(args.format, lambda: {**doc, "rows": _Rows(HKRecord._fields, records)},
          lambda: [HKRecord._fields, *records])
    return 0


def cmd_period(args: _Args) -> int:
    r = period_of(RingSpec(args.p, args.n))
    _emit_record(args.format, {"p": r.spec.p, "n": r.spec.n, **_report(r),
                               "phi_profile": r})
    return 0


def cmd_realize(args: _Args) -> int:
    result = realize(args.pi, args.nlimit, args.plimit)
    spec = {"p": result.spec.p, "n": result.spec.n}
    report = _report(result.report)
    stats = {k: getattr(result.search_stats, k) for k in SearchStats.__match_args__}
    doc = {"target_pi": result.target_pi, "spec": spec,
           "residue_used": result.residue_used, "search_stats": stats}
    brief = {k: report[k] for k in ("omega", "pi", "branch")}
    fields = {"target_pi": result.target_pi, **spec, **brief,
              "residue_used": result.residue_used, **stats}
    # only the JSON view prints the profile, rendering the cycle's text once
    _emit_record(args.format, fields,
                 lambda: {**doc, "report": {**report, "phi_profile": result.report}})
    return 0


# a verify row's fields: a tuple, as no namedtuple field can be `pass`
_VERIFY_FIELDS = ("e", "q", "closed_form", "oracle", "basis_check", "pass")
# verify by format: the basis column's name, its cells, and the status cells
_STATUS = {True: "PASS", False: "FAIL"}
_VERIFY_CELLS = {"plain": ("basis", {None: "-", True: "ok", False: "FAIL"}, _STATUS),
                 "csv": ("basis_check", {None: "na", True: "pass", False: "fail"}, _STATUS),
                 "json": ("basis_check", _LITERALS, _LITERALS)}


def cmd_verify(args: _Args) -> int:
    spec = RingSpec(args.p, args.n)
    if args.emax < 0:
        # zero rows would report all_pass: a check that checked nothing
        raise ValueError(f"e_max must be nonnegative, got {args.emax}")
    name, basis_cell, status_cell = _VERIFY_CELLS[args.format]
    groebner = hkkit.groebner
    rows, all_pass = [], True
    for e in range(args.emax + 1):
        try:
            q = groebner.capped_q(spec.p, e, args.qcap)
        except groebner.QCapExceededError:
            break  # q only grows with e: every later row is past the cap too
        closed = hk_value(spec, e)
        # one Buchberger run serves both the oracle count and the basis check
        basis, oracle = groebner._colength(spec, q)
        basis_ok = all(groebner._check_basis(spec, q, basis)) if q > spec.n else None
        ok = closed == oracle and basis_ok is not False
        all_pass &= ok
        rows.append((e, q, closed, oracle, basis_cell[basis_ok], status_cell[ok]))
    skipped = range(len(rows), args.emax + 1)
    if skipped:
        print(f"skipped e = {skipped[0]}..{skipped[-1]}: "
              f"q = p^e exceeds the oracle cap {args.qcap}", file=sys.stderr)
    # only JSON lists every skipped e; plain and csv print the range's ends
    _emit(args.format, lambda: {"p": spec.p, "n": spec.n, "q_cap": args.qcap,
                                "all_pass": all_pass, "skipped_e": skipped,
                                "rows": _Rows(_VERIFY_FIELDS, rows)},
          lambda: [(*_VERIFY_FIELDS[:4], name, "status"), *rows])
    return 0 if all_pass else 1


def _generators(p: int, basis: Sequence[tuple]) -> list[str]:
    """Each pair (lead, tail) as str(FpPoly) gives lead - tail over F_p, by
    Monomial.__str__: lead, or lead + (p-1)*tail, 1 left out, a constant tail as p - 1."""
    unit, text = "" if p == 2 else f"{p - 1}*", hkkit.groebner.Monomial.__str__
    return [text(lead) if tail is None else f"{text(lead)} + {p - 1}" if tail == (0, 0)
            else f"{text(lead)} + {unit}{text(tail)}" for lead, tail in basis]


def cmd_gb(args: _Args) -> int:
    """The basis _colength computes, printed from its pairs (_generators)."""
    spec = RingSpec(args.p, args.n)
    groebner = hkkit.groebner
    q = groebner.capped_q(spec.p, args.e, args.qcap)
    basis, count = groebner._colength(spec, q)
    gens = _generators(spec.p, basis)
    head = {"p": spec.p, "n": spec.n, "e": args.e, "q": q, "count": count}

    def plain():
        # a generator's text starts with its lead's, up to the first space
        staircase = "  ".join([g.partition(" ")[0] for g in gens])
        text = _template((*head, "staircase")) + "basis:\n" + "  %s\n" * len(gens)
        return text % (*head.values(), staircase, *gens)

    _emit(args.format,
          lambda: {**head, "generators": gens, "staircase": [[*lead] for lead, _ in basis]},
          lambda: [("generator", "lead_i", "lead_j"), *[(g, *m) for g, (m, _) in zip(gens, basis)]],
          plain)
    return 0


def _resolve_limits(args: _Args) -> None:
    """Set each LIMITS dest the command takes: flag, else environment, else default."""
    for dest in COMMANDS[args.command][2]:
        var, value, _ = LIMITS[dest]
        raw = os.environ.get(var)
        if raw is not None:
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(f"{var} must be an integer, got {raw!r}") from None
            if value < 1:
                raise ValueError(f"{var} must be positive, got {value}")
        flag = getattr(args, dest)
        if flag is not None and flag < 1:
            raise ValueError(f"--{dest} must be positive, got {flag}")
        setattr(args, dest, value if flag is None else flag)


@functools.cache
def build_parser() -> "argparse.ArgumentParser":
    """The process's shared parser, one subparser per COMMANDS entry, built for
    the first argv that _parse_table refuses; callers must not mutate it."""
    import argparse  # with gettext: only an argv that _parse_table refuses needs it

    parser = argparse.ArgumentParser(
        prog="hkkit",
        description=(
            "Hilbert-Kunz functions of k[[x,y]]/(x^n - y^n): exact tables, "
            "period analysis, period realization, and a Groebner-basis oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options, limits) in COMMANDS.items():
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("--format", choices=FORMATS, default="plain",
                         help="output format (default plain)")
        for dest, text in options.items():
            cmd.add_argument(f"--{dest}", type=int, required=True, help=text)
        for dest in limits:
            _, default, text = LIMITS[dest]
            cmd.add_argument(f"--{dest}", type=int, help=f"{text} (default {default})")
    return parser


def _parse_table(argv: Sequence[str]) -> SimpleNamespace | None:
    """argparse's namespace for argv, read off COMMANDS into a SimpleNamespace
    (its __init__ is C, argparse's Python), when argv is a command and then
    (OPTION VALUE) pairs in their canonical form: exact option strings, ints
    written as ASCII -?[0-9]+, listed formats, and every required option
    given (a repeated one keeps its last value).  Else None, and argparse
    reads argv."""
    if len(argv) % 2 == 0 or argv[0] not in COMMANDS:
        return None
    _, options, limits = COMMANDS[argv[0]]
    values = {"format": "plain", **dict.fromkeys(limits)}
    for option, text in zip(argv[1::2], argv[2::2]):
        dest = option[2:]
        if option[:2] == "--" and (dest in options or dest in limits):
            digits = text[1:] if text[:1] == "-" else text
            if not (digits.isascii() and digits.isdigit()):
                return None
            values[dest] = int(text)
        elif option == "--format" and text in FORMATS:
            values["format"] = text
        else:  # not an option of the command, or not a listed format
            return None
    if not options.keys() <= values.keys():
        return None
    return SimpleNamespace(command=argv[0], **values)


def main(argv: Sequence[str] | None = None) -> int:
    # print huge ints in full: lift CPython's int/str digit limit for this call only
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else argv
        if (args := _parse_table(argv)) is None:
            # argparse reads every other argv; its exit (help, a refusal) is the code
            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:
                return exc.code
        _resolve_limits(args)
        # looked up per call, not bound in the shared parser, so a rebound cmd_* runs
        return globals()[f"cmd_{args.command}"](args)
    except (SearchExhausted, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SearchExhausted) else 2
    except RuntimeError as exc:
        # a library self-check failed: not the caller's input, nor a mismatch
        print(f"error: internal fault: {exc}", file=sys.stderr)
        return 4
    except (MemoryError, OverflowError):  # a size past memory or sys.maxsize: exit 4, not 1
        print("error: internal fault: out of memory", file=sys.stderr)
        return 4
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def run(argv: Sequence[str]) -> tuple[int, str, str]:
    """main(argv) with stdout and stderr captured: (exit code, stdout, stderr)."""
    import contextlib, io  # here, so that a call of main alone imports neither

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    sys.exit(main())
