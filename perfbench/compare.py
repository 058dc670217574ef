"""Summarise one set of benchmark results, or compare two.

    python3 perfbench/compare.py results.jsonl
    python3 perfbench/compare.py parent.jsonl change.jsonl

Inputs are the JSON lines files ``sweep.py`` writes.  With one file it
prints, per workload and metric, the run count, median, quartiles and
spread (interquartile distance over the median) next to the bound from
``BENCHMARK.json``.  With two it prints each side's median and quartiles
and a verdict, under the rule for measuring on a small shared machine:

* improved: the change wins at least nine tenths of the pairs (runs with
  the same workload and seed; ties count for neither side) and the
  medians differ by more than the parent's interquartile distance;
* worse: the change's median is worse than the parent's by more than the
  metric's bound (for metrics without a bound: the parent wins nine
  tenths of the pairs and the medians differ by more than its spread);
* unresolved: not worse, but a side's spread is wider than the bound,
  unless every run of the change reads better than every run of the
  parent;
* unchanged: everything else.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """{(workload, trace): {seed: metrics}} from a JSON lines file."""
    runs: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
            runs.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = metrics
    return runs


def _spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(values: list[float]) -> float:
    q1, q2, q3 = _quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def summarize(runs: dict) -> None:
    spec = _spec()
    for (workload, trace), by_seed in sorted(runs.items()):
        print(f"{workload} (trace {trace}, {len(by_seed)} runs)")
        names = next(iter(by_seed.values())).keys()
        for name in names:
            values = [m[name] for m in by_seed.values()]
            q1, q2, q3 = _quartiles(values)
            bound = spec.get(name, {}).get("bound")
            spread = _spread(values)
            note = ""
            if bound is not None and name != "setup_s":
                note = "ok" if spread <= bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
            print(f"  {name:<32} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.4f}  bound {bound if bound is not None else '-':<5} {note}")


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> str:
    """Verdict for paired runs (same order in both lists)."""
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0 means the change is better
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = _quartiles(parent)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pairs = len(parent)
    if wins >= 0.9 * pairs and sign * (pm - cm) > q3 - q1:
        return "improved"
    if bound is None:
        return "worse" if losses >= 0.9 * pairs and sign * (cm - pm) > q3 - q1 else "unchanged"
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    if max(_spread(parent), _spread(change)) > bound:
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        return "unchanged" if all_better else "unresolved"
    return "unchanged"


def compare(parent_runs: dict, change_runs: dict) -> None:
    spec = _spec()
    for key in sorted(parent_runs):
        if key not in change_runs:
            print(f"{key[0]} (trace {key[1]}): missing from the change's results")
            continue
        workload, trace = key
        seeds = sorted(set(parent_runs[key]) & set(change_runs[key]))
        print(f"{workload} (trace {trace}, {len(seeds)} paired runs)")
        for name in parent_runs[key][seeds[0]]:
            parent = [parent_runs[key][s][name] for s in seeds]
            change = [change_runs[key][s][name] for s in seeds]
            meta = spec.get(name, {})
            result = verdict(parent, change, meta.get("better", "lower"), meta.get("bound"))
            pq, cq = _quartiles(parent), _quartiles(change)
            print(f"  {name:<32} parent {pq[1]:<12.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:<12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {result}")


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        summarize(load(argv[0]))
    elif len(argv) == 2:
        compare(load(argv[0]), load(argv[1]))
    else:
        print(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
