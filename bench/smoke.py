"""Smoke test of the benchmark itself: tiny inputs, seconds of run time.

    python3 bench/smoke.py

Checks that BENCHMARK.json has the required keys, names, units and bounds
and agrees with metrics.py; that every workload, untraced and traced, prints a last line
with exactly the declared metric names and units and no failed op; that the
traced per-layer self times add up to no more than the traced op time; and
that run.py fails without printing a result when the hkkit sources are
missing.  Exits 1 on the first failed check.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import metrics as M
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "results" / "smoke"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_spec() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        fail(f"BENCHMARK.json keys {sorted(bench)}")
    if not 2 <= len(bench["workloads"]) <= 8:
        fail("2 to 8 workloads")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            fail(f"workload entry {w}")
    names = [w["name"] for w in bench["workloads"]]
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in bench[group]:
            if set(m) != keys or m["better"] not in ("lower", "higher"):
                fail(f"{group} entry {m}")
            if not UNIT.fullmatch(m["unit"]):
                fail(f"unit {m['unit']!r}")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail(f"bound of {m['name']}")
        names += [m["name"] for m in bench[group]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    if bad or len(names) != len(set(names)):
        fail(f"names invalid or repeated: {bad}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be declared in s, lower is better")
    if setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must have the largest bound")
    declared = {(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]}
    if declared != set(M.END_TO_END):
        fail("end_to_end of BENCHMARK.json and metrics.END_TO_END differ")
    declared = {(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]}
    if declared != {(n, u, b) for n, u, b, _ in M.PER_LAYER}:
        fail("per_layer of BENCHMARK.json and metrics.PER_LAYER differ")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(workloads.WORKLOADS):
        fail("workload names of BENCHMARK.json and workloads.py differ")
    return bench


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--tiny", "--out", str(OUT)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(bench: dict, workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(last)}")
    if last["correct"] is not True or last["failed"] != 0 or last["attempted"] < 1:
        fail(f"{workload} trace {trace}: {last['failed']} of {last['attempted']} ops failed")
    group = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    if got != want:
        fail(f"{workload} trace {trace}: printed metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ set(want))}")
    return {name: m["value"] for name, m in last["metrics"].items()}


def main() -> int:
    bench = check_spec()
    print("ok   BENCHMARK.json shape, names and units")
    for workload in (w["name"] for w in bench["workloads"]):
        check_run(bench, workload, 0)
        values = check_run(bench, workload, 1)
        self_ms = sum(v for k, v in values.items() if k.endswith(".self_ms"))
        if self_ms > values["trace.op_ms"] * (1 + 1e-9):
            fail(f"{workload}: per-layer self times {self_ms} ms/op exceed op time "
                 f"{values['trace.op_ms']} ms/op")
        print(f"ok   {workload}: metrics match, no failed op, self times "
              f"{self_ms:.3f} <= op time {values['trace.op_ms']:.3f} ms/op")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("run.py succeeded without the hkkit sources")
    print("ok   without the hkkit sources run.py exits", proc.returncode, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
