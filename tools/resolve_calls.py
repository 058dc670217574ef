"""Count the vertex resolver's work in one pass of a benchmark workload.

    python3 tools/resolve_calls.py --workload multcr --seed 1
    python3 tools/resolve_calls.py --workload multcr --seed 1 --src ../parent/src

Imports ``crosskont`` from ``--src`` (this checkout's ``src/`` by
default), generates the workload's items with ``perfbench/workloads.py``
into a temporary directory and answers each once through
``crosskont.cli.main``.  Prints one JSON line: the calls to the partition
kernel ``resolution._sides``, the partitions it kept (the sum of the lengths
of its results), the calls to ``resolution.resolve_once`` and the
``VertexProfile`` constructions; a count is ``null`` where the package
has no such function, so the tool also runs against older checkouts.
The benchmark's tracer cannot show this: it measures the resolver
through ``total_resolutions``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, generate  # noqa: E402


def _tallied(func, sizes: list[int]):
    """``func``, appending the length of each of its results to ``sizes``."""
    def call(*args, **kwargs):
        result = func(*args, **kwargs)
        sizes.append(len(result))
        return result
    return call


def count_calls(workload: str, seed: int, src: Path) -> dict:
    sys.path.insert(0, str(src))
    from crosskont import cli, resolution

    wrapped = {"kernel_calls": (resolution, "_sides"),
               "resolve_once_calls": (resolution, "resolve_once"),
               "profiles_built": (resolution.VertexProfile, "__post_init__")}
    spies, kept = {}, []
    with contextlib.ExitStack() as stack, tempfile.TemporaryDirectory() as work:
        for key, (owner, name) in wrapped.items():
            if hasattr(owner, name):
                real = getattr(owner, name)
                effect = _tallied(real, kept) if key == "kernel_calls" else real
                spies[key] = stack.enter_context(
                    mock.patch.object(owner, name, autospec=True, side_effect=effect))
        for item in generate(workload, seed, Path(work)):
            jobs = ["--jobs", "1"] if item.command == "eval" else []
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([item.command, item.path, *jobs])
    counts = {key: spies[key].call_count if key in spies else None for key in wrapped}
    counts["partitions_kept"] = sum(kept) if "kernel_calls" in spies else None
    return {"workload": workload, "seed": seed, **counts}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Count resolver calls per workload pass.")
    parser.add_argument("--workload", choices=WORKLOADS, default="multcr")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory above crosskont/")
    args = parser.parse_args(argv)
    print(json.dumps(count_calls(args.workload, args.seed, args.src.resolve())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
