"""tests/reach.py's parts that need no tracer: the function-body lines of a
module, the allowlist's format and the gate's two kinds of fault."""

import reach

SAMPLE = '''\
TOP = 1
def f(a):
    g = lambda: a
    return g()
class C:
    y = 2
    def m(self):
        return 3
'''


def test_function_lines_are_the_bodies_named_by_the_innermost_function(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    owner = reach._function_lines(path)
    assert owner[3].endswith("<lambda>")  # also a line of f, named by the lambda
    assert (owner[4], owner[8]) == ("f", "C.m")
    assert not {1, 5, 6} & set(owner)  # module and class top-level lines


def test_allowlist_rows_name_code_and_skip_comments(tmp_path, monkeypatch):
    listed = tmp_path / "unreached.txt"
    listed.write_text("# a comment\n\nhkkit.cli:main\treturn 0\tonly in a child\n")
    monkeypatch.setattr(reach, "ALLOWED", listed)
    assert reach.allowed() == {("hkkit.cli:main", "return 0")}


def test_the_committed_allowlist_is_empty():
    assert reach.allowed() == set()


def test_faults_name_both_directions():
    seen, listed = ("hkkit.a:f", "x = 1"), ("hkkit.b:g", "return y")
    assert reach.faults({seen, listed}, {listed}) == ["unreached and not listed: hkkit.a:f: x = 1"]
    assert reach.faults(set(), {listed}) == ["listed but reached: hkkit.b:g: return y"]
    assert reach.faults({seen}, {seen}) == []


def test_unreached_reads_the_lines_run_under_each_module_path():
    every = {str(path.resolve()): set(reach._function_lines(path))
             for path in reach.LIBRARY.glob("*.py")}
    assert reach.unreached(every) == set()
    path = reach.LIBRARY / "period.py"
    line = path.read_text().splitlines().index("    return pow(p, d, n) in (1, n - 1)") + 1
    period = str(path.resolve())
    missing = reach.unreached({**every, period: every[period] - {line}})
    assert missing == {("hkkit.period:_is_period", "return pow(p, d, n) in (1, n - 1)")}
