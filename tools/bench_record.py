"""Write the ``BENCH_<n>.json`` record of a change from its benchmark runs.

    python3 tools/bench_record.py --number 9 --parent parent.jsonl --change change.jsonl \\
        --traced-parent traced_parent.jsonl --traced-change traced_change.jsonl \\
        --claim eval-multi:wall_s --note "what the change does"

The inputs are JSON lines files that ``perfbench/sweep.py`` wrote in a
checkout of the parent commit and of the change: untraced runs
(``--trace 0``), paired by workload and seed, and optionally one traced
run (``--trace 1``) per workload on each side.  Run the pairs seed by
seed, alternating which side goes first.  For every workload and
end-to-end metric the record holds each side's quartiles, the pairs the
change wins and the verdict of ``perfbench/compare.py``; for the traced
runs, each per-layer metric on both sides.  It adds the ``src/`` line
counts and ``src/`` hashes the runs report and the ``tools/cli_digest.py``
digest of this checkout, and is written to ``BENCH_<n>.json`` at the repository root.
Each ``--extra KEY=JSON`` adds a measurement made outside the sweeps, such
as call counts from ``tools/resolve_calls.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(HERE)]

from cli_digest import digest  # noqa: E402
from compare import _quartiles, load, verdict  # noqa: E402


def _records(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _rounded(value):
    return round(value, 6) if isinstance(value, float) else value


def _pairs(parent: dict, change: dict, spec: dict) -> dict:
    """Quartiles, change wins and verdict per untraced workload and end-to-end metric."""
    out = {}
    for workload, trace in sorted(parent):
        if trace != 0 or (workload, 0) not in change:
            continue
        by_parent, by_change = parent[workload, 0], change[workload, 0]
        seeds = sorted(set(by_parent) & set(by_change))
        metrics = {}
        for name, meta in spec["end_to_end"].items():
            p = [by_parent[s][name] for s in seeds]
            c = [by_change[s][name] for s in seeds]
            sign = 1 if meta["better"] == "lower" else -1
            metrics[name] = {
                side: dict(zip(("q1", "median", "q3"), map(_rounded, _quartiles(values))))
                for side, values in (("parent", p), ("change", c))
            }
            metrics[name]["change_wins"] = sum(sign * (a - b) > 0 for a, b in zip(p, c))
            metrics[name]["bound"] = meta["bound"]
            metrics[name]["verdict"] = verdict(p, c, meta["better"], meta["bound"])
        out[workload] = {"seeds": seeds, "pairs": len(seeds), "metrics": metrics}
    return out


def _traced(parent: list[dict], change: list[dict], spec: dict) -> tuple[str, dict]:
    """(record key, per-layer metrics of both sides) for the least seed traced on both."""
    seeds = {r["seed"] for r in parent} & {r["seed"] for r in change}
    if not seeds:
        return "", {}
    seed = min(seeds)
    pick = lambda records: {r["workload"]: r["result"] for r in records if r["seed"] == seed}
    by_parent, by_change = pick(parent), pick(change)
    out = {}
    for workload in by_parent:
        if workload not in by_change:
            continue
        p, c = by_parent[workload], by_change[workload]
        out[workload] = {
            "correct": {"parent": p["correct"], "change": c["correct"]},
            "metrics": {
                name: {
                    "parent": _rounded(p["metrics"][name]["value"]),
                    "change": _rounded(c["metrics"][name]["value"]),
                }
                for name in spec["per_layer"]
                if name in p["metrics"] and name in c["metrics"]
            },
        }
    return f"traced_seed_{seed}", out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write BENCH_<n>.json from benchmark runs.")
    parser.add_argument("--number", type=int, required=True, help="n in BENCH_<n>.json")
    parser.add_argument("--parent", required=True, help="untraced sweep.py runs of the parent")
    parser.add_argument("--change", required=True, help="untraced sweep.py runs of the change")
    parser.add_argument("--traced-parent", help="traced sweep.py runs of the parent")
    parser.add_argument("--traced-change", help="traced sweep.py runs of the change")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--note", required=True, help="one line on what the change does")
    parser.add_argument("--extra", action="append", default=[], metavar="KEY=JSON",
                        help="a measurement made outside the sweeps, stored under KEY")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {
        group: {m["name"]: m for m in benchmark[group]} for group in ("end_to_end", "per_layer")
    }
    parent_records, change_records = _records(args.parent), _records(args.change)
    pairs = _pairs(load(args.parent), load(args.change), spec)
    context = parent_records[0]["context"]
    record = {
        "change": args.note,
        "parent_commit": context.get("commit", "unknown"),
        "machine": f"{context['nproc']}-core {platform.machine()}, Python {context['python']}",
        "method": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {benchmark['run_seconds']}"
            " --trace 0 on the parent and the change, alternating which side runs first;"
            " verdicts by perfbench/compare.py (improved: the change wins at least 9 in 10 pairs"
            " and the medians differ by more than the parent's interquartile distance)"
        ),
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if metric not in pairs.get(workload, {}).get("metrics", {}):
            parser.error(f"--claim {args.claim}: no paired untraced runs of that metric")
        judged = pairs[workload]["metrics"][metric]
        record["claim"] = {
            "workload": workload,
            "metric": metric,
            "pairs": pairs[workload]["pairs"],
            "change_wins": judged["change_wins"],
            "verdict": judged["verdict"],
        }
    record["pairs"] = pairs
    if args.traced_parent and args.traced_change:
        name, traced = _traced(_records(args.traced_parent), _records(args.traced_change), spec)
        if traced:
            record[name] = traced
    # The hash names the measured code also where a checkout without .git has no commit.
    for key in ("src_lines", "src_sha256"):
        record[key] = {"parent": context[key], "change": change_records[0]["context"][key]}
    for extra in args.extra:
        key, _, value = extra.partition("=")
        record[key] = json.loads(value)
    runs, sha256 = digest()
    record["cli_digest"] = {"runs": runs, "sha256": sha256}

    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    for workload, entry in pairs.items():
        verdicts = ", ".join(f"{name} {m['verdict']}" for name, m in entry["metrics"].items())
        print(f"  {workload} ({entry['pairs']} pairs): {verdicts}")
    if args.claim:
        print(f"  claim {args.claim}: {record['claim']['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
