"""Run workloads over several seeds and collect the results.

    python3 perfbench/sweep.py --seeds 1-10 --out parent.jsonl
    python3 perfbench/sweep.py --workloads eval-cr1,mult --seeds 3,7 --trace 1 --out traced.jsonl

Each (workload, seed) runs ``run.py`` in its own process, one after the
other, for the ``run_seconds`` fixed in ``BENCHMARK.json``.  Each result
is appended to ``--out`` as one JSON line holding the workload, the seed,
the context line and the final result, and a summary is printed with
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from compare import load, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description="Run workloads over several seeds.")
    parser.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated names")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 3,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON lines file to append to")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            context = next((json.loads(l[9:]) for l in lines if l.startswith("context: ")), {})
            record = {"workload": workload, "seed": seed, "trace": args.trace, "context": context,
                      "result": json.loads(lines[-1])}
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: correct={record['result']['correct']}", flush=True)
    summarize(load(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
