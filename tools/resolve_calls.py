"""Count the ``resolve_once`` calls of one pass of a benchmark workload.

    python3 tools/resolve_calls.py --workload multcr --seed 1
    python3 tools/resolve_calls.py --workload multcr --seed 1 --src ../parent/src

Imports ``crosskont`` from ``--src`` (this checkout's ``src/`` by
default), generates the workload's items with ``perfbench/workloads.py``
into a temporary directory and answers each once through
``crosskont.cli.main``, with ``crosskont.resolution.resolve_once``
wrapped.  Prints one JSON line: the calls, and how many of them were on
a profile equal, up to an order-preserving relabelling of its slots, to
one met earlier in the same item.  The benchmark's tracer cannot show
this: it measures the resolver through ``total_resolutions``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, generate  # noqa: E402


def relabelled_key(profile) -> tuple:
    """The profile's cross-ratio slot sets, each slot replaced by its rank among the slots."""
    rank = {slot: i for i, slot in enumerate(sorted(profile.slots))}
    sets = sorted(tuple(sorted(map(rank.get, table.values()))) for table in profile.routes.values())
    return len(rank), tuple(sets)


def count_calls(workload: str, seed: int, src: Path) -> dict:
    sys.path.insert(0, str(src))
    from crosskont import cli, resolution

    real = resolution.resolve_once
    calls = repeats = 0
    seen: set[tuple] = set()

    def counted(profile, target, pairing):
        nonlocal calls, repeats
        key = relabelled_key(profile)
        calls += 1
        repeats += key in seen
        seen.add(key)
        return real(profile, target, pairing)

    resolution.resolve_once = counted
    try:
        with tempfile.TemporaryDirectory() as work:
            for item in generate(workload, seed, Path(work)):
                seen.clear()
                jobs = ["--jobs", "1"] if item.command == "eval" else []
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main([item.command, item.path, *jobs])
    finally:
        resolution.resolve_once = real
    return {"workload": workload, "seed": seed, "resolve_once_calls": calls, "repeats": repeats}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Count resolve_once calls per workload pass.")
    parser.add_argument("--workload", choices=WORKLOADS, default="multcr")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory above crosskont/")
    args = parser.parse_args(argv)
    print(json.dumps(count_calls(args.workload, args.seed, args.src.resolve())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
