"""Run one workload of the hkkit benchmark and print its metrics.

    python3 bench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

One fresh process per run, so no state survives from one run to the next.
It drives hkkit the way its users do: hkkit.cli.main(argv) called in-process
with stdout and stderr captured, or a public library function, one op at a
time: a closed loop with a single client and no threads.  Calling in-process
keeps interpreter start-up (tens of ms, with ms of jitter) out of op latency;
start-up is measured on its own, as setup_s, by spawning fresh interpreters.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs each
op twice, untraced and traced (alternating which goes first), and prints the
per-layer metrics and the tracing overhead.  Times are reported at a
reference speed, rescaled by a fixed pure-Python probe run between ops, so
that the drift of a shared machine cancels out; the measured values go to
the result file.  Every op's output is checked against the benchmark's own
arithmetic.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A result file with the
environment, per-kind latencies and, when traced, the spans, is written under
bench/results/ (or --out).
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics as M
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 15
FAIL_NAME = M.FAIL_RATIO[0]
# Shared machines change speed by tens of percent over minutes.  A fixed
# pure-Python probe, run between ops after every PROBE_EVERY_NS of op time,
# tracks that speed, and time metrics are reported at the reference speed:
# measured time * PROBE_REF_NS / (median probe time of the run).
PROBE_EVERY_NS = 100_000_000
PROBE_REF_NS = 5_000_000
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import hkkit.cli; "
    "hkkit.cli.build_parser(); sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def probe() -> int:
    """ns for a fixed mix of interpreter work like hkkit's: small-integer
    arithmetic, then building a dict of short strings."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    strings = {i: str(i) for i in range(10_000)}
    del strings
    return time.perf_counter_ns() - start


def measure_setup(probes: list[int]) -> list[float]:
    """Seconds from spawning an interpreter until hkkit.cli is imported and
    build_parser() has returned.  One unrecorded spawn first fills the
    bytecode cache, which users pay once, not per invocation."""
    samples = []
    for _ in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line != b"ready\n":
            raise RuntimeError(f"set-up spawn exited {proc.returncode}")
        samples.append(elapsed)
        probes.append(probe())
    return samples[1:]


def run_op(op: workloads.Op, hkkit) -> tuple[workloads.Outcome, int]:
    """Execute one op; returns its outcome and wall time in ns."""
    outcome = workloads.Outcome()
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                outcome.rc = hkkit.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            outcome.rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped fault is a failed op, not a crash
            outcome.error = repr(exc)
        elapsed = time.perf_counter_ns() - start
        outcome.out, outcome.err = out.getvalue(), err.getvalue()
        return outcome, elapsed
    func = getattr(hkkit, op.func)  # looked up per call, so trace wrappers apply
    start = time.perf_counter_ns()
    try:
        spec = (hkkit.RingSpec(*op.spec),) if op.spec else ()
        outcome.value = func(*spec, *op.args)
    except Exception as exc:
        outcome.error = repr(exc)
    return outcome, time.perf_counter_ns() - start


def classify(op: workloads.Op, o: workloads.Outcome) -> str:
    """ok, known_defect (a documented defect reproduced) or failed."""
    if o.error is not None:
        return "failed"
    if op.known_defect and o.rc == 2 and op.known_defect in o.err:
        return "known_defect"
    if op.argv is not None and o.rc != op.expect_rc:
        return "failed"
    try:
        return "ok" if op.check(o) else "failed"
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return "failed"  # output that does not parse is a wrong answer


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
        "commit": commit,
        "seed": seed,
    }


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, traced: bool, tiny: bool, hkkit,
            probes: list[int]):
    """The closed loop: whole rounds until `seconds` have passed.

    Traced runs execute every op twice, untraced and traced, and alternate
    which goes first so neither copy always meets a warm cache.  Latencies and
    statuses come from the untraced copies; a traced copy that disagrees
    marks the op failed.
    """
    import trace

    tracer = trace.Tracer() if traced else None
    records = []  # (kind, status, ns) of the untraced executions
    traced_ns = untraced_ns = stdout_chars = 0

    def run_traced(op):
        tracer.op_id = len(records)
        tracer.install()
        try:
            return run_op(op, hkkit)
        finally:
            tracer.uninstall()

    since_probe = PROBE_EVERY_NS
    deadline = time.perf_counter() + seconds
    for ops in workloads.rounds(workload, seed, tiny):
        for op in ops:
            if since_probe >= PROBE_EVERY_NS:
                probes.append(probe())
                since_probe = 0
            traced_first = tracer is not None and len(records) % 2 == 1
            if traced_first:
                t_outcome, t_ns = run_traced(op)
            outcome, ns = run_op(op, hkkit)
            if tracer is not None and not traced_first:
                t_outcome, t_ns = run_traced(op)
            status = classify(op, outcome)
            if tracer is not None:
                if classify(op, t_outcome) != status:
                    status = "failed"
                tracer.counters.update(t_outcome.counters)
                stdout_chars += len(t_outcome.out)
                traced_ns += t_ns
                untraced_ns += ns
            records.append((op.kind, status, ns))
            since_probe += ns
        if time.perf_counter() >= deadline:
            break
    return records, tracer, (traced_ns, untraced_ns, stdout_chars)


def per_layer(tracer, traced_ns: int, untraced_ns: int, stdout_chars: int, n_ops: int,
              scale: float) -> dict:
    """Per traced op, except ratios; times at the reference speed (scale).  A
    counter named like its metric (closed_form.hk_table.rows, ...) is divided
    by the op count."""
    c, calls, self_ns = tracer.counters, tracer.calls, tracer.self_ns

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "realize.enumerate.hit_ratio": ratio(
            c["realize.enumerate.hits"], c["realize.enumerate.rings_examined"]
        ),
        "groebner.reduce.zero_ratio": ratio(c["groebner.reduce.zero"], calls["groebner.reduce"]),
        "cli.stdout_bytes": stdout_chars / n_ops,  # output is ASCII: chars = bytes
        "trace.op_ms": traced_ns * scale / 1e6 / n_ops,
        "trace.overhead_ratio": traced_ns / untraced_ns,
    }
    for layer in M.LAYERS:
        ns = sum(v for k, v in self_ns.items() if k.startswith(layer + "."))
        values[f"share.{layer}"] = ns / traced_ns
    values["share.outside"] = 1 - sum(values[f"share.{layer}"] for layer in M.LAYERS)
    for name, *_ in M.PER_LAYER:
        span, _, stat = name.rpartition(".")
        if name not in values:
            total = {"calls": calls[span], "self_ms": self_ns[span] * scale / 1e6}.get(
                stat, c[name]
            )
            values[name] = total / n_ops
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "results",
                        help="directory for the result file")
    args = parser.parse_args(argv)

    if not (SRC / "hkkit" / "cli.py").is_file():
        print(f"error: hkkit sources not found under {SRC}", file=sys.stderr)
        return 2
    for name in ("HKKIT_QCAP", "HKKIT_NLIMIT", "HKKIT_PLIMIT"):
        os.environ.pop(name, None)  # the workloads pass every limit explicitly
    env = environment(args.seed)
    setup_probes: list[int] = []
    setup = measure_setup(setup_probes)
    sys.path.insert(0, str(SRC))
    import hkkit
    import hkkit.cli

    probes: list[int] = []
    records, tracer, (traced_ns, untraced_ns, stdout_chars) = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, hkkit, probes
    )
    scale = PROBE_REF_NS / statistics.median(probes)
    setup_scale = PROBE_REF_NS / statistics.median(setup_probes)
    attempted = len(records)
    if not attempted:
        raise RuntimeError("no op could be drawn")
    status = [s for _, s, _ in records]
    failed, defects = status.count("failed"), status.count("known_defect")
    lat_ms = sorted(ns / 1e6 for _, _, ns in records)
    op_s = sum(ns for _, _, ns in records) / 1e9
    measured = {
        "setup_s": statistics.median(setup),
        "ops_per_s": status.count("ok") / op_s,
        "latency_p50_ms": quantile(lat_ms, 50),
        "latency_p90_ms": quantile(lat_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    e2e = dict(measured)  # at the reference speed
    e2e["setup_s"] *= setup_scale
    e2e["latency_p50_ms"] *= scale
    e2e["latency_p90_ms"] *= scale
    e2e["ops_per_s"] /= scale
    fail_ratio = (failed + defects) / attempted
    kinds = {}
    for kind in sorted({k for k, _, _ in records}):
        ms = [ns / 1e6 for k, _, ns in records if k == kind]
        kinds[kind] = {
            "ops": len(ms),
            "median_ms": statistics.median(ms),
            "total_ms": sum(ms),
            **{s: sum(1 for k, st, _ in records if k == kind and st == s)
               for s in ("failed", "known_defect")},
        }

    if args.trace:
        values = per_layer(tracer, traced_ns, untraced_ns, stdout_chars, attempted, scale)
        shown = {name: (values[name], unit) for name, unit, _, _ in M.PER_LAYER}
    else:
        shown = {name: (e2e[name], unit) for name, unit, _ in M.END_TO_END}

    beyond = sum(1 for v in lat_ms if v > measured["latency_p90_ms"])
    print(f"hkkit benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {env['python']}, nproc {env['nproc']}, {env['cpu']}, "
          f"load {env['loadavg_start'][0]:.2f}, commit {env['commit'][:12]}")
    print(f"ops: {attempted} attempted, {status.count('ok')} correct, {failed} failed, "
          f"{defects} known defect (int/str digit limit, ROADMAP item 4)")
    print(f"speed: median probe {statistics.median(probes) / 1e6:.4f} ms over {len(probes)} "
          f"probes; reference {PROBE_REF_NS / 1e6:.4f} ms, so times below are scaled by "
          f"{scale:.4f}, set-up by {setup_scale:.4f} (measured values in brackets)")
    notes = {
        "setup_s": f"median of {len(setup)} spawns",
        "latency_p50_ms": f"n={attempted}",
        "latency_p90_ms": f"n={attempted}, {beyond} beyond"
        + ("" if beyond >= 10 else ": fewer than 10, unreliable"),
    }
    for name, unit, _ in M.END_TO_END:
        note = f"; {notes[name]}" if name in notes else ""
        print(f"  {name:<16} {e2e[name]:.4f} {unit} [{measured[name]:.4f}{note}]")
    print(f"  {FAIL_NAME:<16} {fail_ratio:.4f} ratio [{failed + defects} of {attempted}]")
    if args.trace:
        for name, (v, unit) in shown.items():
            print(f"  {name:<42} {v:.6g} {unit}")

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "known_defects": defects,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
        "end_to_end": e2e,
        "end_to_end_measured": measured,
        "probe": {"median_ns": statistics.median(probes), "count": len(probes),
                  "reference_ns": PROBE_REF_NS, "scale": scale,
                  "setup_median_ns": statistics.median(setup_probes),
                  "setup_scale": setup_scale},
        FAIL_NAME: fail_ratio,
        "latency_samples": attempted,
        "latency_beyond_p90": beyond,
        "setup_samples_s": setup,
        "kinds": kinds,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        (args.out / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
