"""Spans around the calls into hkkit's public functions, recorded from outside.

Tracer.install() wraps each function in TRACED and rebinds every module-level
name in hkkit that refers to it, because period, realize, groebner and cli
import functions by name (`from .numtheory import multiplicative_order`), so
patching only the defining module would miss their calls.  uninstall() puts
the originals back, so untraced rounds run unwrapped code.

A span is (id, parent id, name, start ns, end ns, op id).  Spans of one op
share its op id; they stay in memory (the first SPAN_CAP of a run) and are
written out when the run ends.  Self time is a span's duration minus the time
its child spans cover; calls are strictly nested in one thread, so that is
the duration minus the sum of the children's durations, computed as each span
closes.  Every call counts towards calls and self time, also past SPAN_CAP.
"""

import functools
import sys
import time
from collections import Counter

SPAN_CAP = 200_000

# (module, attribute, span name).  Every cmd_* handler is one span name, so
# cli.handler's self time is rendering plus option handling.
TRACED = [
    ("numtheory", "multiplicative_order", "numtheory.multiplicative_order"),
    ("numtheory", "is_prime", "numtheory.is_prime"),
    ("numtheory", "find_prime_in_class", "numtheory.find_prime_in_class"),
    ("closed_form", "hk_table", "closed_form.hk_table"),
    ("closed_form", "hk_value", "closed_form.hk_value"),
    ("closed_form", "phi_value", "closed_form.phi_value"),
    ("period", "period_of", "period.period_of"),
    ("period", "verify_minimal_period", "period.verify_minimal_period"),
    ("realize", "realize", "realize.realize"),
    ("realize", "enumerate_realizations", "realize.enumerate_realizations"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "reduce", "groebner.reduce"),
    ("groebner", "s_polynomial", "groebner.s_polynomial"),
    ("groebner", "hk_brute", "groebner.hk_brute"),
    ("groebner", "verify_closed_form_basis", "groebner.verify_closed_form_basis"),
    ("groebner", "count_under_staircase", "groebner.count_under_staircase"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "cmd_table", "cli.handler"),
    ("cli", "cmd_period", "cli.handler"),
    ("cli", "cmd_realize", "cli.handler"),
    ("cli", "cmd_verify", "cli.handler"),
    ("cli", "cmd_gb", "cli.handler"),
]


def _reduce_result(c, result):
    c["groebner.reduce.zero"] += result.is_zero()


def _realize_stats(c, stats):
    c["realize.n_candidates"] += stats.n_candidates
    c["realize.p_candidates"] += stats.p_candidates


# Counters read off return values at the layer boundary, by span name.
ON_RESULT = {
    "closed_form.hk_table": lambda c, r: c.update({"closed_form.hk_table.rows": len(r)}),
    "period.period_of": lambda c, r: c.update({"period.profile_len": len(r.phi_profile)}),
    "groebner.reduce": _reduce_result,
    "realize.realize": lambda c, r: _realize_stats(c, r.search_stats),
    "realize.enumerate_realizations": lambda c, r: c.update(
        {"realize.enumerate.hits": len(r)}
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.spans_dropped = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.op_id = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        on_result = ON_RESULT.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # SearchExhausted carries the SearchStats of the failed search
                if name == "realize.realize" and hasattr(exc, "stats"):
                    _realize_stats(counters, exc.stats)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, name, start, end, self.op_id))
                else:
                    self.spans_dropped += 1
            if on_result is not None:
                on_result(counters, result)
            return result

        return wrapper

    def _rebind(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hkkit" and not mod_name.startswith("hkkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import hkkit.groebner

        for module, attr, name in TRACED:
            original = getattr(sys.modules[f"hkkit.{module}"], attr)
            self._rebind(original, self._wrap(name, original))

        fppoly = hkkit.groebner.FpPoly
        init = fppoly.__init__
        counters = self.counters

        @functools.wraps(init)
        def counting_init(poly, *args, **kwargs):
            counters["groebner.fppoly.constructed"] += 1
            init(poly, *args, **kwargs)

        self._undo.append((fppoly, "__init__", init))
        fppoly.__init__ = counting_init

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def dump(self) -> dict:
        return {
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "op"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
