"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload eval-cr1 --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program under test is the package in
``src/``, imported in this process and driven through its command line
entry ``crosskont.cli.main([...])`` with stdout captured, one call per
item, single-threaded (``eval`` gets ``--jobs 1``).  The input files are
generated from ``--seed`` into ``perfbench/_work/``.

One pass answers every item of the workload once.  Before each pass,
outside the timer, the package is imported afresh, so that no module
state carries over from one pass to the next.  After an untimed warm-up
pass, passes repeat until ``--seconds`` have been spent.

A shared machine changes speed as neighbours come and go: on a shared
2-core machine a fixed loop took 2.5 or 4.4 ms, switching within
seconds, and whole runs went 1.6 times slower for a minute.  So a fixed
pure-Python calibration loop runs between items, outside the timer, and
each item's time is scaled to the reference speed by the mean of the
two calibrations next to it.  An item's time is the median of its scaled
times over the passes; set-up is scaled the same way.  Per-layer span
times are not scaled.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` traced and untraced passes alternate and it reports
the per-layer metrics.  Every answer of every pass is checked against an
oracle that shares no code with the package (see ``oracles.py``).  Lines
before the last one give context (Python, CPUs, commit, ``src/`` size)
and, when tracing, the per-layer self-time table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 3
# Seconds the calibration loop takes at the reference speed, about the
# fastest that a shared 2-core x86-64 machine ran it.  Item and set-up
# times are reported as seconds at this speed.
CAL_REFERENCE_S = 0.0025
# Time in ``cli.main`` outside parsing and the command's entry function
# (``Engine.evaluate``, ``cross_ratio_multiplicity`` or ``multiplicity``)
# stays below this share of a traced pass; more means the work no longer
# goes through the wrapped entry points and the layer metrics miss it.
UNCOVERED_LIMIT = 0.5


def _import_package():
    """Import ``crosskont`` afresh from ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "crosskont" or n.startswith("crosskont.")]:
        del sys.modules[name]
    return importlib.import_module("crosskont.cli")


def _calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed."""
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(20_000):
        table[i & 255] = table.get(i & 255, 0) + i * i
    return perf_counter() - start


def _scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, by the mean of the calibrations next to it."""
    return seconds * 2 * CAL_REFERENCE_S / (before + after)


def _setup(workload: str, seed: int, workdir: Path):
    """Import the package and write the inputs, SETUP_REPEATS times; median seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = _calibrate()
        start = perf_counter()
        _import_package()
        items = generate(workload, seed, workdir)
        elapsed = perf_counter() - start
        times.append(_scaled(elapsed, before, _calibrate()))
    return items, statistics.median(times)


def _argv(item) -> list[str]:
    return [item.command, item.path] + (["--jobs", "1"] if item.command == "eval" else [])


def _run_pass(items, tracer: Tracer | None = None) -> tuple[list[float], list[str]]:
    """Answer every item once: (scaled seconds per item, last stdout line or error per item)."""
    cli = _import_package()
    gc.collect()  # start every pass from the same heap, not from the last pass's garbage
    if tracer is not None:
        tracer.install()
    times, answers = [], []
    before = _calibrate()
    try:
        for item in items:
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.item = item.name
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = perf_counter()
                try:
                    code = cli.main(_argv(item))
                except Exception as exc:  # a crash counts as a failed item
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = perf_counter() - start
            after = _calibrate()
            times.append(_scaled(elapsed, before, after))
            before = after
            lines = out.getvalue().splitlines()
            if code == 0 and lines:
                answers.append(lines[-1])
            else:
                answers.append(f"exit {code}: {err.getvalue().strip()}")
    finally:
        if tracer is not None:
            tracer.remove()
    return times, answers


def _expected(item) -> str:
    if "golden" in item.meta:
        return str(item.meta["golden"])
    if item.command == "eval":
        return str(oracles.cr1_closed_form(item.meta["d"], item.meta["wa"], item.meta["wb"]))
    return str(oracles.map_multiplicity_oracle(item.doc))


def _tree_problems(items) -> list[str]:
    """Check the trees behind every ``multcr`` answer (untimed)."""
    cli = sys.modules["crosskont.cli"]
    resolution = sys.modules["crosskont.resolution"]
    problems = []
    for item in items:
        trees = resolution.total_resolutions(cli.profile_from_dict(item.doc))
        plain = [(tree.splits, tree.edge_of) for tree in trees]
        found = oracles.check_resolution_trees(item.doc["slots"], item.doc["crossratios"], plain)
        problems += [f"{item.name}: {p}" for p in found]
    return problems


def _context() -> dict:
    """Where the numbers come from; reported, never gated."""
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one crosskont benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "crosskont" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'crosskont'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}"
    items, setup_s = _setup(args.workload, args.seed, workdir)
    package = Path(sys.modules["crosskont"].__file__).resolve()
    if SRC.resolve() not in package.parents:
        print(f"error: imported crosskont from {package}, not from {SRC}", file=sys.stderr)
        return 2
    print("context: " + json.dumps(_context()))

    answered = [_run_pass(items)[1]]  # warm-up, untimed
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    layer_runs: list[dict] = []
    tracer = None
    deadline = perf_counter() + args.seconds
    while len(plain) < MIN_PASSES or perf_counter() < deadline:
        times, answers = _run_pass(items)
        plain.append(times)
        answered.append(answers)
        if args.trace:
            tracer = Tracer()
            times, answers = _run_pass(items, tracer)
            traced.append(times)
            answered.append(answers)
            layer_runs.append(tracer.metrics())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = [_expected(item) for item in items]
    wrong = [
        (item.name, got, want)
        for answers in answered
        for item, got, want in zip(items, answers, expected)
        if got != want
    ]
    attempted = len(items) * len(answered)
    problems = [f"{name}: got {got!r}, expected {want}" for name, got, want in wrong[:10]]
    if args.workload == "multcr":
        problems += _tree_problems(items)

    typical = [statistics.median(times) for times in zip(*plain)]
    if args.trace:
        own = tracer.layer_self()
        in_main = sum(own.values())
        print(f"per-layer self time of the last traced pass ({in_main:.4f} s in cli.main):")
        for layer in LAYERS:
            print(f"  {layer:<11} {own[layer]:.4f} s")
        uncovered = tracer.uncovered()
        print(f"cli.main outside parsing and the entry functions: {uncovered:.4f} s")
        if uncovered > UNCOVERED_LIMIT * in_main:
            problems.append(f"{uncovered:.4f} s of {in_main:.4f} s in cli.main is outside the entry functions")
        if tracer.missing:
            problems.append("not traced, attribute gone: " + ", ".join(tracer.missing))
        tracer.write(workdir / "spans.jsonl")
        metrics = {}
        for name in layer_runs[-1]:
            values = [run[name] for run in layer_runs]
            value = min(values) if name.endswith("_s") else values[-1]
            metrics[name] = {"value": value, "unit": _unit(name)}
        ratio = sum(statistics.median(times) for times in zip(*traced)) / sum(typical)
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": sum(typical), "unit": "s"},
            "largest_item_s": {"value": max(typical), "unit": "s"},
            "item_p50_ms": {"value": 1000 * statistics.median(typical), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "answered_share": {"value": (attempted - len(wrong)) / attempted, "unit": "ratio"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    for problem in problems:
        print("check failed: " + problem)
    print(f"{len(items)} items x {len(answered)} passes ({len(plain)} timed), {len(wrong)} wrong")
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": len(wrong), "metrics": metrics}
        )
    )
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_max"):
        return "rows"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
