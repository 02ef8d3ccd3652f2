"""Summarise result sets and compare a parent's with a change's.

    python3 bench/compare.py summary DIR [--write FILE]
    python3 bench/compare.py compare PARENT_DIR CHANGE_DIR

A result set is a directory of run.py result files, one per (workload, seed,
trace) run.  summary prints, per workload and metric, the median, the
quartiles and the run-to-run spread (quartile distance over median), next to
the bound BENCHMARK.json fixes; --write stores the same as a baseline file.

compare pairs the runs of the two sets by seed and prints one row per
(workload, metric) with one of these verdicts:

  improved    the change won at least 9 of 10 pairs, and its median beats the
              parent's by more than the parent's quartile distance
  worse       the change's median is worse than the parent's by more than
              the bound (per-layer metrics, which have no bound: by the
              improved rule with the direction reversed)
  unresolved  the parent's own spread is wider than the bound, and not every
              change run beats every parent run
  no worse    otherwise
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def results(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*-trace[01].json"))]


def load(directory: Path) -> dict:
    """{(workload, metric): {seed: value}}"""
    values: dict = {}
    for result in results(directory):
        seed = result["environment"]["seed"]
        for name, m in result["metrics"].items():
            values.setdefault((result["workload"], name), {})[seed] = m["value"]
    return values


def spec() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """median, first and third quartile, spread = (q3 - q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summary(directory: Path, write: Path | None) -> None:
    metrics = spec()
    rows = {}
    print(f"{'workload':9} {'metric':42} {'runs':>4} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for (workload, name), by_seed in sorted(load(directory).items()):
        med, q1, q3, spread = stats(list(by_seed.values()))
        bound = metrics.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "near")
        print(f"{workload:9} {name:42} {len(by_seed):4} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:7.4f} {bound if bound is not None else '':>6} {flag}")
        rows.setdefault(workload, {})[name] = {
            "runs": len(by_seed), "seeds": sorted(by_seed), "median": med, "q1": q1,
            "q3": q3, "spread": spread,
        }
    if write:
        env = {}
        for result in results(directory):
            for key in ("python", "nproc", "cpu", "commit"):
                env.setdefault(key, set()).add(result["environment"][key])
        rows = {"environment": {k: sorted(v) for k, v in env.items()}, "workloads": rows}
        write.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")


def verdict(parent: list[float], change: list[float], better: str, bound) -> tuple[str, float]:
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    p_med, p_q1, p_q3, p_spread = stats(parent)
    c_med = statistics.median(change)
    gap = sign * (c_med - p_med)
    if wins >= 0.9 * len(pairs) and gap > p_q3 - p_q1:
        return "improved", wins / len(pairs)
    if bound is None:
        if losses >= 0.9 * len(pairs) and -gap > p_q3 - p_q1:
            return "worse", wins / len(pairs)
        return "no change", wins / len(pairs)
    if -gap > bound * abs(p_med):
        return "worse", wins / len(pairs)
    if p_spread > bound and not min(sign * v for v in change) > max(sign * v for v in parent):
        return "unresolved", wins / len(pairs)
    return "no worse", wins / len(pairs)


def compare(parent_dir: Path, change_dir: Path) -> int:
    metrics = spec()
    parent, change = load(parent_dir), load(change_dir)
    worse = 0
    print(f"{'workload':9} {'metric':42} {'pairs':>5} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>5}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        if seeds:
            p = [parent[key][s] for s in seeds]
            c = [change[key][s] for s in seeds]
        else:  # different seeds: pair by order
            p, c = list(parent[key].values()), list(change[key].values())
            n = min(len(p), len(c))
            p, c = p[:n], c[:n]
        if not p:
            continue
        m = metrics.get(name, {"better": "lower"})
        word, won = verdict(p, c, m["better"], m.get("bound"))
        worse += word == "worse"
        pm, pq1, pq3, _ = stats(p)
        cm, cq1, cq3, _ = stats(c)
        print(f"{workload:9} {name:42} {len(p):5} {pm:12.6g} [{pq1:9.6g}, {pq3:9.6g}] "
              f"{cm:12.6g} [{cq1:9.6g}, {cq3:9.6g}] {won:5.0%}  {word}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("summary")
    s.add_argument("directory", type=Path)
    s.add_argument("--write", type=Path)
    c = sub.add_parser("compare")
    c.add_argument("parent", type=Path)
    c.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "summary":
        summary(args.directory, args.write)
        return 0
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
