"""Names, units and intent of every metric the benchmark prints.

BENCHMARK.json lists the same names and units (smoke.py checks that they
agree) and adds the bounds.  `moves` says which end-to-end metric, on which
workload, a change in the layer metric should show up in, written down
before any optimisation is measured.
"""

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# fail_ratio is printed and stored with every run but is not an end-to-end
# metric of BENCHMARK.json: it is 0 on oracle and search, and a bound that is
# a share of the baseline's median needs a metric that never reads 0.  Failed
# ops also reach the result line as `failed` and `correct`.
FAIL_RATIO = ("fail_ratio", "ratio", "lower")

# (name, unit, better, moves).  Per-op values are totals over the traced ops
# divided by their number.
PER_LAYER = [
    ("numtheory.multiplicative_order.calls", "calls/op", "lower",
     "formula latency_p90_ms and ops_per_s; search ops_per_s"),
    ("numtheory.multiplicative_order.self_ms", "ms/op", "lower",
     "formula latency_p90_ms and ops_per_s; search ops_per_s"),
    ("numtheory.is_prime.calls", "calls/op", "lower",
     "oracle ops_per_s (through FpPoly.__init__); search ops_per_s"),
    ("numtheory.is_prime.self_ms", "ms/op", "lower",
     "oracle ops_per_s (through FpPoly.__init__); search ops_per_s"),
    ("numtheory.find_prime_in_class.calls", "calls/op", "lower", "search ops_per_s"),
    ("numtheory.find_prime_in_class.self_ms", "ms/op", "lower", "search ops_per_s"),
    ("closed_form.hk_table.rows", "rows/op", "lower", "formula ops_per_s"),
    ("closed_form.hk_table.self_ms", "ms/op", "lower", "formula ops_per_s"),
    ("closed_form.phi_value.calls", "calls/op", "lower", "formula ops_per_s"),
    ("closed_form.phi_value.self_ms", "ms/op", "lower", "formula ops_per_s"),
    ("period.period_of.calls", "calls/op", "lower",
     "formula ops_per_s and peak_rss_mb; search ops_per_s"),
    ("period.period_of.self_ms", "ms/op", "lower",
     "formula ops_per_s and peak_rss_mb; search ops_per_s"),
    ("period.profile_len", "entries/op", "lower",
     "formula ops_per_s and peak_rss_mb; search ops_per_s"),
    ("period.verify_minimal_period.calls", "calls/op", "lower", "formula ops_per_s"),
    ("period.verify_minimal_period.self_ms", "ms/op", "lower", "formula ops_per_s"),
    ("realize.realize.self_ms", "ms/op", "lower", "search ops_per_s"),
    ("realize.n_candidates", "moduli/op", "lower", "search ops_per_s"),
    ("realize.p_candidates", "candidates/op", "lower", "search ops_per_s"),
    ("realize.enumerate_realizations.self_ms", "ms/op", "lower", "search ops_per_s"),
    ("realize.enumerate.rings_examined", "rings/op", "lower", "search ops_per_s"),
    ("realize.enumerate.hit_ratio", "ratio", "higher", "search ops_per_s"),
    ("groebner.buchberger.calls", "calls/op", "lower",
     "oracle ops_per_s and latency_p90_ms"),
    ("groebner.buchberger.self_ms", "ms/op", "lower",
     "oracle ops_per_s and latency_p90_ms"),
    ("groebner.reduce.calls", "calls/op", "lower", "oracle ops_per_s and latency_p90_ms"),
    ("groebner.reduce.self_ms", "ms/op", "lower", "oracle ops_per_s and latency_p90_ms"),
    ("groebner.reduce.zero_ratio", "ratio", "lower", "oracle ops_per_s and latency_p90_ms"),
    ("groebner.s_polynomial.calls", "calls/op", "lower", "oracle ops_per_s and latency_p90_ms"),
    ("groebner.fppoly.constructed", "polys/op", "lower", "oracle ops_per_s and latency_p90_ms"),
    ("groebner.hk_brute.self_ms", "ms/op", "lower", "oracle ops_per_s and latency_p90_ms"),
    ("groebner.verify_closed_form_basis.self_ms", "ms/op", "lower",
     "oracle ops_per_s and latency_p90_ms"),
    ("groebner.count_under_staircase.self_ms", "ms/op", "lower",
     "oracle ops_per_s and latency_p90_ms"),
    ("cli.build_parser.self_ms", "ms/op", "lower", "latency_p50_ms on every workload"),
    ("cli.handler.self_ms", "ms/op", "lower", "formula latency_p90_ms"),
    ("cli.stdout_bytes", "bytes/op", "lower", "formula latency_p90_ms"),
    ("share.numtheory", "ratio", "lower", "every workload: this layer's share of op time"),
    ("share.closed_form", "ratio", "lower", "every workload: this layer's share of op time"),
    ("share.period", "ratio", "lower", "every workload: this layer's share of op time"),
    ("share.realize", "ratio", "lower", "every workload: this layer's share of op time"),
    ("share.groebner", "ratio", "lower", "every workload: this layer's share of op time"),
    ("share.cli", "ratio", "lower", "every workload: this layer's share of op time"),
    ("share.outside", "ratio", "lower",
     "every workload: op time in no traced span (argument parsing, output capture)"),
    ("trace.op_ms", "ms/op", "lower", "none: traced op time, the base of the shares"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: traced over untraced time of the same ops"),
]

LAYERS = ("numtheory", "closed_form", "period", "realize", "groebner", "cli")
