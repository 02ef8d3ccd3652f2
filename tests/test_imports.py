"""Import contracts: which modules a call loads, and where each name lives.

The oracle, hkkit.groebner, with the general Buchberger engine that no
command runs, loads with the first gb or verify call or the first use of it or
of one of its names on hkkit: hkkit's module __getattr__ (PEP 562) is the one
hook that loads it, so importing the CLI never compiles it.
verify_minimal_period and enumerate_realizations live in hkkit.period and
hkkit.realize, which load with the CLI, and argparse loads with the first argv
that the CLI's own reader refuses.  These tests pin that the CLI path stays
clear of them, that every import path still reaches every name, and that
bench/trace.py, which this file reads but never edits, still finds and
restores everything it wraps.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

import hkkit
import hkkit.cli
from measure import fresh
from test_cli import NOT_AT_STARTUP

SRC = Path(hkkit.__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parents[1] / "bench"
LAZY = {name for name in NOT_AT_STARTUP if name.startswith("hkkit.")}


def traced_pairs() -> list[tuple[str, str]]:
    """bench/trace.py's TRACED as (module, attribute) pairs, read from its source."""
    tree = ast.parse((BENCH / "trace.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("no TRACED list in bench/trace.py")


def test_neither_the_cli_import_nor_an_unknown_name_loads_the_oracle():
    out = fresh(
        "import sys\n"
        "import hkkit.cli\n"
        "print('hkkit.groebner' in sys.modules, 'groebner' in vars(hkkit))\n"
        "try:\n"
        "    hkkit.nonexistent\n"
        "except AttributeError as exc:\n"
        "    print(exc, 'hkkit.groebner' in sys.modules)\n")
    assert out == "False False\nmodule 'hkkit' has no attribute 'nonexistent' False\n"


@pytest.mark.parametrize("use", ["from hkkit import groebner", "groebner = hkkit.groebner"])
def test_the_hook_serves_the_oracle_module_and_caches_no_name(use):
    # `from hkkit import groebner` asks the hook through hasattr first: a hook
    # that imported the module by `from . import groebner` would recurse
    out = fresh(
        "import sys\n"
        "import hkkit\n"
        f"{use}\n"
        "print(groebner is sys.modules['hkkit.groebner'],\n"
        "      hkkit.buchberger is hkkit.groebner.buchberger, 'buchberger' in vars(hkkit))\n")
    assert out == "True True False\n"


@pytest.mark.parametrize("argv, code, loaded", [
    ("table --p 2 --n 5 --emax 3", 0, []),
    ("period --p 2 --n 11", 0, []),
    ("period --p 2 --n 11 --format csv", 0, []),
    ("realize --pi 6 --format json", 0, []),
    ("gb --p 3 --n 5 --e 4", 0, ["hkkit.groebner"]),
    ("verify --p 2 --n 7 --emax 6 --format json", 0, ["hkkit.groebner"]),
    ("period --p x --n 11", 2, ["argparse"]),  # refused: argparse reads it
])
def test_each_call_loads_the_oracle_and_argparse_only_where_it_runs_them(argv, code, loaded):
    # import hkkit.cli loads neither; a call loads what it runs, in a new interpreter
    out = fresh(
        "import sys\n"
        "import hkkit.cli\n"
        "watched = ['hkkit.groebner', 'argparse']\n"
        "before = [m for m in watched if m in sys.modules]\n"
        "code = hkkit.cli.run(sys.argv[1:])[0]\n"
        "print(before, code, [m for m in watched if m in sys.modules])\n",
        *argv.split())
    assert out == f"[] {code} {loaded}\n"


@pytest.mark.parametrize("use", ["hkkit.hk_brute", "from hkkit import Monomial"])
def test_an_oracle_name_on_hkkit_loads_the_oracle(use):
    out = fresh(
        "import sys\n"
        "import hkkit\n"
        "before = 'hkkit.groebner' in sys.modules\n"
        f"{use}\n"
        "after = 'hkkit.groebner' in sys.modules\n"
        "import hkkit.groebner as oracle\n"
        "names = [n for n in hkkit.__all__ if n in vars(oracle)]\n"
        "print(before, after, names, all(getattr(hkkit, n) is vars(oracle)[n] for n in names))\n")
    assert out == ("False True ['BasisCheck', 'CharacteristicMismatchError', 'FpPoly', "
                   "'GroebnerBasis', 'Monomial', 'PairBudgetExceededError', 'Q_CAP_DEFAULT', "
                   "'QCapExceededError', 'RingSpec', 'buchberger', 'count_under_staircase', "
                   "'frobenius_power_generators', 'hk_brute', 'is_prime', 's_polynomial', "
                   "'verify_closed_form_basis'] True\n")


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
    # Tracer.install() imports hkkit.groebner before it wraps anything, and
    # then loads no module, so no module can load while names are rebound;
    # uninstall() must leave every hkkit module as it found it.  The period
    # check and the census are defined, with no PEP 562 hook, in the modules
    # whose period_of and is_prime they call, and the general engine's
    # checking constructor reads the is_prime that groebner binds, so the
    # tracer wraps those calls and puts the originals back
    out = fresh(
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import hkkit, hkkit.cli, hkkit.groebner\n"
        "import trace\n"
        "period, realize = hkkit.period, sys.modules['hkkit.realize']\n"
        "groebner = hkkit.groebner\n"
        "print(sorted({'PeriodCheck', 'verify_minimal_period'} & vars(period).keys()),\n"
        "      'enumerate_realizations' in vars(realize),\n"
        "      [hasattr(m, '__getattr__') for m in (period, realize, groebner)])\n"
        "originals = (period.period_of, realize.is_prime, groebner.is_prime,\n"
        "             groebner.buchberger, groebner.FpPoly.__init__)\n"
        "def modules():\n"
        "    return sorted(k for k in sys.modules if k.startswith('hkkit'))\n"
        "def wrappers():\n"
        "    return sorted(f'{k}.{a}' for k, m in list(sys.modules.items())\n"
        "                  if k.startswith('hkkit') for a, v in vars(m).items()\n"
        "                  if getattr(getattr(v, '__code__', None), 'co_filename', '')\n"
        "                  == trace.__file__)\n"
        "before = modules()\n"
        "tracer = trace.Tracer()\n"
        "tracer.install()\n"
        "during, loaded = wrappers(), modules()\n"
        "tracer.uninstall()\n"
        "init = groebner.FpPoly.__init__\n"
        "now = (period.period_of, realize.is_prime, groebner.is_prime,\n"
        "       groebner.buchberger, init)\n"
        "print(loaded == before,\n"
        "      {'hkkit.period.period_of', 'hkkit.realize.is_prime',\n"
        "       'hkkit.groebner.is_prime', 'hkkit.groebner.buchberger'} <= set(during),\n"
        "      wrappers(), init.__code__.co_filename == trace.__file__,\n"
        "      [f is g for f, g in zip(now, originals)])\n",
        str(BENCH))
    assert out == ("['PeriodCheck', 'verify_minimal_period'] True [False, False, False]\n"
                   "True True [] False [True, True, True, True, True]\n")


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
    # after the module is imported by name and after the census runs
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
