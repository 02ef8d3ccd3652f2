"""Import contracts: which modules a call loads, and where each name lives.

Library-only code (the general Buchberger engine, verify_minimal_period,
enumerate_realizations) lives in modules that hkkit, hkkit.groebner,
hkkit.period and hkkit.realize import on the first use of one of their names
(PEP 562), so importing the CLI never compiles it.  These tests pin that the
CLI path stays clear of them, that every import path still reaches every
name, and that bench/trace.py, which this file reads but never edits, still
finds and restores everything it wraps.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import hkkit
import hkkit.cli
from test_cli import NOT_AT_STARTUP

SRC = Path(hkkit.__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parents[1] / "bench"
LAZY = {name for name in NOT_AT_STARTUP if name.startswith("hkkit.")}


def fresh(code: str, *argv: str) -> str:
    """stdout of code run in a new interpreter with hkkit from the checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    return done.stdout


def traced_pairs() -> list[tuple[str, str]]:
    """bench/trace.py's TRACED as (module, attribute) pairs, read from its source."""
    tree = ast.parse((BENCH / "trace.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("no TRACED list in bench/trace.py")


def test_the_oracle_never_loads_the_general_engine():
    # import hkkit.groebner alone, the oracle's library calls and gb and
    # verify load no library-only module; the first FpPoly does
    out = fresh(
        "import contextlib, io, sys\n"
        "import hkkit.groebner\n"
        "from hkkit import RingSpec, hk_brute, verify_closed_form_basis\n"
        "from hkkit.cli import main\n"
        "lazy = sorted(m for m in sys.modules if m in sys.argv[1:])\n"
        "hk_brute(RingSpec(3, 5), 4)\n"
        "verify_closed_form_basis(RingSpec(2, 7), 5)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['gb', '--p', '3', '--n', '5', '--e', '4']),\n"
        "             main(['verify', '--p', '2', '--n', '7', '--emax', '6'])]\n"
        "after = sorted(m for m in sys.modules if m in sys.argv[1:])\n"
        "hkkit.groebner.FpPoly\n"
        "print(lazy, codes, after, sorted(m for m in sys.modules if m in sys.argv[1:]))\n",
        *sorted(LAZY))
    assert out == "[] [0, 0] [] ['hkkit.groebner_general']\n"


def test_every_traced_name_resolves_after_the_cli_import():
    # bench/trace.py reads each module from sys.modules and each name by
    # getattr, and patches hkkit.groebner.FpPoly
    pairs = traced_pairs()
    out = fresh(
        "import json, sys\n"
        "import hkkit, hkkit.cli, hkkit.groebner\n"
        "pairs = json.loads(sys.argv[1])\n"
        "loaded = {k.removeprefix('hkkit.') for k in sys.modules}\n"
        "missing = sorted({m for m, _ in pairs} - loaded)\n"
        "found = [callable(getattr(sys.modules['hkkit.' + m], a)) for m, a in pairs]\n"
        "print(missing, all(found), hkkit.groebner.FpPoly.__name__)\n",
        json.dumps(pairs))
    assert {m for m, _ in pairs} == {"numtheory", "closed_form", "period", "realize",
                                     "groebner", "cli"}
    assert out == "[] True FpPoly\n"


def test_the_tracer_leaves_no_wrapper_behind():
    # Tracer.install() loads the library-only modules while it is rebinding
    # names; uninstall() must still leave every hkkit module as it found it
    out = fresh(
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import hkkit, hkkit.cli\n"
        "import trace\n"
        "def wrappers():\n"
        "    return sorted(f'{k}.{a}' for k, m in list(sys.modules.items())\n"
        "                  if k.startswith('hkkit') for a, v in vars(m).items()\n"
        "                  if getattr(getattr(v, '__code__', None), 'co_filename', '')\n"
        "                  == trace.__file__)\n"
        "tracer = trace.Tracer()\n"
        "tracer.install()\n"
        "during = len(wrappers())\n"
        "tracer.uninstall()\n"
        "init = hkkit.groebner.FpPoly.__init__\n"
        "print(during > 0, wrappers(), init.__code__.co_filename == trace.__file__)\n",
        str(BENCH))
    assert out == "True [] False\n"


def test_every_public_name_is_one_object_on_every_path():
    # from hkkit, from the module that serves it, and from the module that
    # defines it, whether that module was imported eagerly or on first use
    owners = {name: sys.modules[f"hkkit.{name}"]
              for name in ("closed_form", "numtheory", "period", "realize", "groebner")}
    for name in hkkit.__all__:
        obj = getattr(hkkit, name)
        serving = [module for module in owners.values() if hasattr(module, name)]
        assert serving, name
        assert all(getattr(module, name) is obj for module in serving), name
        home = getattr(obj, "__module__", None)
        if home and home.startswith("hkkit."):
            assert getattr(sys.modules[home], name) is obj, name


def test_realize_stays_the_function():
    # the package attribute hkkit.realize is the function, not its module,
    # after the module is imported by name and after the census is loaded
    out = fresh(
        "import hkkit.realize, hkkit.cli\n"
        "import hkkit\n"
        "hkkit.enumerate_realizations(2, 10, 10, 1)\n"
        "import hkkit.realize\n"
        "print(type(hkkit.realize).__name__, hkkit.realize(5).spec)\n")
    assert out == "function RingSpec(p=2, n=11)\n"


def test_no_module_is_named_after_a_public_name():
    # such a module would shadow the name on the package once imported; the
    # one there is, realize, is ROADMAP item 6 (bench/trace.py reads it by name)
    def key(name):
        return name.replace("_", "").lower()

    public = {key(name) for name in hkkit.__all__}
    modules = {path.stem for path in (SRC / "hkkit").glob("*.py")}
    assert LAZY < {f"hkkit.{stem}" for stem in modules}
    assert {stem for stem in modules if key(stem) in public} == {"realize"}
