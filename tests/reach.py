"""Line reach of the library: a pytest plugin, loaded by name, that pytest
does not collect (its name does not start with test_):

    PYTHONPATH=src:tests python -m pytest -q -p reach

From the moment pytest loads it, it records, with sys.settrace and
threading.settrace, each line of src/hkkit that runs in this process.  At
the end it compiles each module of src/hkkit afresh and takes the lines of
every function body from its code objects' line tables (a lambda is a
function too, and so is a comprehension before Python 3.12).  Module and
class top-level lines run at import and are out of scope, and so are lines
that run only in a child process, such as cli.py's __main__ line or the
CLI subprocesses of the tests: the tracer lives in this process alone.  A
function whose lines have all run is traced no further.

It compares the unreached lines with tests/unreached.txt, one line each:

    module:qualname <TAB> the line's text, stripped <TAB> the reason

Entries name code, not line numbers, so an edit elsewhere moves none.  Lines
starting with # and blank lines are skipped.  The run fails, whatever the
tests did, on an unreached line that is not listed or a listed line that
was reached.  Branch reach is not measured.
"""

import inspect
import os
import sys
import threading
from collections import defaultdict
from collections.abc import Mapping
from pathlib import Path

TESTS = Path(__file__).resolve().parent
LIBRARY = TESTS.parent / "src" / "hkkit"
ALLOWED = TESTS / "unreached.txt"


def _lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


class Reach:
    """The lines of src/hkkit run since install(), and the gate's report."""

    def __init__(self) -> None:
        self.in_library: dict[str, bool] = {}  # co_filename -> whether it lies in LIBRARY
        self.left: dict = {}  # live code object -> its lines not yet run
        self.reached: defaultdict[str, set[int]] = defaultdict(set)  # real path -> lines run
        self.outcome: list[str] = []  # the gate's report rows; empty when it passes

    def install(self) -> None:
        sys.settrace(self.trace_call)
        threading.settrace(self.trace_call)

    def trace_call(self, frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        inside = self.in_library.get(name)
        if inside is None:
            inside = self.in_library[name] = Path(os.path.realpath(name)).is_relative_to(LIBRARY)
        if not inside:
            return None
        left = self.left.get(code)
        if left is None:
            left = self.left[code] = _lines(code)
        # the call itself runs the first line, which may get no line event
        if code.co_firstlineno in left:
            left.discard(code.co_firstlineno)
            self.reached[os.path.realpath(name)].add(code.co_firstlineno)
        return self.trace_line if left else None

    def trace_line(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            left = self.left[code]
            if frame.f_lineno in left:
                left.discard(frame.f_lineno)
                self.reached[os.path.realpath(code.co_filename)].add(frame.f_lineno)
                if not left:
                    frame.f_trace_lines = False
        return self.trace_line

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        threading.settrace(None)
        self.outcome = faults(unreached(self.reached), allowed())
        if self.outcome and session.exitstatus == 0:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.section("library line reach")
        lines = sum(len(_function_lines(path)) for path in LIBRARY.glob("*.py"))
        terminalreporter.write_line(f"{lines} function-body lines in src/hkkit; "
                                    f"{len(self.outcome)} gate fault(s)")
        for row in self.outcome:
            terminalreporter.write_line(row)


def _function_lines(path: Path) -> dict[int, str]:
    """Each line of a function body in the module at path -> the qualname of
    the innermost function holding it."""
    module = compile(path.read_text(), str(path), "exec")
    owner: dict[int, str] = {}
    stack = [module]
    while stack:
        code = stack.pop()
        if code is not module and code.co_flags & inspect.CO_OPTIMIZED:
            name = getattr(code, "co_qualname", code.co_name)  # co_qualname: 3.11+
            for line in _lines(code):
                if owner.get(line, "").count(".") <= name.count("."):
                    owner[line] = name
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
    return owner


def unreached(reached: Mapping[str, set[int]]) -> set[tuple[str, str]]:
    """(module:qualname, stripped text) of each function-body line whose
    number reached does not hold under its module's real path."""
    found = set()
    for path in sorted(LIBRARY.glob("*.py")):
        text = path.read_text().splitlines()
        module = f"hkkit.{path.stem}" if path.stem != "__init__" else "hkkit"
        ran = reached.get(str(path.resolve()), set())
        for line, name in _function_lines(path).items():
            if line not in ran:
                found.add((f"{module}:{name}", text[line - 1].strip()))
    return found


def allowed() -> set[tuple[str, str]]:
    entries = set()
    for row in ALLOWED.read_text().splitlines():
        if row.strip() and not row.startswith("#"):
            where, text, _reason = row.split("\t")
            entries.add((where, text))
    return entries


def faults(missing: set[tuple[str, str]], listed: set[tuple[str, str]]) -> list[str]:
    """The gate's report, one row per unreached line that is not listed and
    per listed line that was reached; empty when the gate passes."""
    return [f"{label}: {where}: {text}"
            for label, rows in (("unreached and not listed", missing - listed),
                                ("listed but reached", listed - missing))
            for where, text in sorted(rows)]


def pytest_configure(config):
    reach = Reach()
    config.pluginmanager.register(reach, "reach-tracer")
    reach.install()
