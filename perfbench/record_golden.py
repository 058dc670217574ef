"""Record the golden pools behind the ``eval-multi`` and ``multcr`` workloads.

Run once, from the repository root, at the commit whose answers become
the reference:

    python3 perfbench/record_golden.py eval-multi
    python3 perfbench/record_golden.py multcr
    python3 perfbench/record_golden.py mult

Candidate shapes come from a fixed seed.  Each is timed on this machine
(best of three) and the first one near each rung of a cost ladder is
kept, so a pool covers cheap to frontier items.  Each recorded answer is
cross-checked before it is written:

* ``eval-multi``: ``evaluate_invariance_battery`` must agree under every
  admissible root resolution;
* ``multcr``: the count must not depend on the resolution order, and the
  returned trees must pass ``oracles.check_resolution_trees``.

Zero answers are skipped, since a broken program that prints 0 would
pass them.  For ``mult`` nothing is timed or answered: the pool is the
list of draw numbers for which ``workloads.draw_map`` gives a rigid map,
and the answers come from the determinant oracle at run time.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import crosskont  # noqa: E402
from oracles import check_resolution_trees  # noqa: E402
from workloads import draw_map  # noqa: E402

# Target seconds per shape (and r for profiles); the last rung is the frontier item.
LADDERS = {
    "eval-multi": [0.01, 0.015, 0.02, 0.025, 0.03, 0.04, 0.05, 0.06, 0.08, 0.1, 0.12, 0.15,
                   0.2, 0.25, 0.3, 0.6],
    "multcr": [(8, 0.003), (8, 0.005), (9, 0.006), (9, 0.01), (10, 0.015), (10, 0.025),
               (11, 0.03), (11, 0.05), (12, 0.06), (12, 0.09), (13, 0.12), (13, 0.18),
               (14, 0.25), (14, 0.4)],
}
TARGET_TOLERANCE = 0.2  # a kept shape costs within this share of its rung's target
CAP_SECONDS = 1.2  # a candidate slower than this is skipped
SEARCH_SECONDS = 1800.0  # a pool search that runs longer than this gives up
CHECK_CAP_SECONDS = 30.0  # a cross-check slower than this drops the candidate
MAPS_PER_DEGREE = {4: 10, 5: 10, 6: 15, 7: 15, 8: 20}  # the mult batch, besides the fixtures


class _Slow(Exception):
    pass


def _alarm(*_):
    raise _Slow


def _capped(fn, seconds: float):
    """``fn()``, or None when it runs longer than ``seconds``."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    except _Slow:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _cost(fn) -> tuple[int | None, float]:
    """(answer, best of three seconds), or (None, inf) past the cap."""
    best, value = float("inf"), None
    for _ in range(3):
        start = time.perf_counter()
        value = _capped(fn, CAP_SECONDS)
        if value is None:
            return None, float("inf")
        best = min(best, time.perf_counter() - start)
    return value, best


def _multi_candidate(rng: random.Random) -> dict:
    while True:
        d = rng.choice([3, 4, 5])
        r, nl, nf = rng.randint(2, 4), rng.randint(0, 3), rng.randint(0, 2)
        npts = 3 * d - 1 - r + nf
        labels = list(range(1, npts + nl + nf + 1))
        if math.comb(len(labels), 4) >= r:
            break
    crs: list[list[int]] = []
    while len(crs) < r:
        cr = sorted(rng.sample(labels, 4))
        if cr not in crs:
            crs.append(cr)
    return {
        "degree": d,
        "points": labels[:npts],
        "lines": [[x, rng.randint(1, 3)] for x in labels[npts:npts + nl]],
        "free": labels[npts + nl:],
        "crossratios": crs,
    }


def _multi_instance(shape: dict):
    return crosskont.Instance.build(
        shape["degree"], points=shape["points"], lines=[tuple(x) for x in shape["lines"]],
        free=shape["free"], crossratios=shape["crossratios"],
    )


def _multi_measure(shape: dict):
    inst = _multi_instance(shape)
    return _cost(lambda: crosskont.Engine().evaluate(inst))


def _multi_crosscheck(shape: dict) -> bool:
    report = crosskont.evaluate_invariance_battery(_multi_instance(shape))
    return report.ok and report.value == shape["count"]


def _profile_candidate(rng: random.Random, r: int) -> dict:
    slots = list(range(1, r + 4))
    kind = rng.choice(["random", "chain", "fan"])
    if kind == "chain":
        crs = [[i, i + 1, i + 2, i + 3] for i in range(1, r + 1)]
    else:
        crs = []
        while len(crs) < r:
            picked = rng.sample(slots, 4) if kind == "random" else [1, 2] + rng.sample(slots[2:], 2)
            if sorted(picked) not in crs:
                crs.append(sorted(picked))
    rng.shuffle(crs)
    return {"kind": kind, "slots": slots, "crossratios": crs}


def _profile_measure(shape: dict):
    profile = crosskont.VertexProfile.of(shape["slots"], shape["crossratios"])
    return _cost(lambda: crosskont.cross_ratio_multiplicity(profile))


def _profile_crosscheck(shape: dict) -> bool:
    profile = crosskont.VertexProfile.of(shape["slots"], shape["crossratios"])
    r = len(shape["crossratios"])
    trees = crosskont.total_resolutions(profile)
    reverse = crosskont.total_resolutions(profile, order=list(range(r))[::-1])
    plain = [(t.splits, t.edge_of) for t in trees]
    return (
        len(trees) == len(reverse) == shape["count"]
        and not check_resolution_trees(shape["slots"], shape["crossratios"], plain)
    )


def record(workload: str) -> dict:
    rng = random.Random(f"{workload}/golden")
    ladder = LADDERS[workload]
    shapes: list[dict | None] = [None] * len(ladder)
    deadline = time.time() + SEARCH_SECONDS
    serial = 0
    while None in shapes:
        if time.time() > deadline:
            raise SystemExit(f"ran out of time with rungs {[i for i, s in enumerate(shapes) if s is None]} open")
        open_rungs = [i for i, s in enumerate(shapes) if s is None]
        if workload == "eval-multi":
            shape = _multi_candidate(rng)
            value, seconds = _multi_measure(shape)
            targets = {i: ladder[i] for i in open_rungs}
        else:
            r = ladder[rng.choice(open_rungs)][0]
            shape = _profile_candidate(rng, r)
            value, seconds = _profile_measure(shape)
            targets = {i: ladder[i][1] for i in open_rungs if ladder[i][0] == r}
        serial += 1
        if not value:
            continue
        rung = next((i for i, t in targets.items() if abs(seconds - t) <= TARGET_TOLERANCE * t), None)
        if rung is None:
            continue
        shape.update(count=value, seconds=round(seconds, 5), id=f"{workload}-{serial}")
        check = _multi_crosscheck if workload == "eval-multi" else _profile_crosscheck
        if _capped(lambda: check(shape), CHECK_CAP_SECONDS):
            shapes[rung] = shape
            print(f"rung {rung}: {shape['id']} {seconds:.4f} s", flush=True)
    return {
        "workload": workload,
        "recorded": (
            f"crosskont {crosskont.__version__}, Python {sys.version.split()[0]}; "
            "seconds are best of three on the recording machine"
        ),
        "crosscheck": "evaluate_invariance_battery" if workload == "eval-multi"
        else "reverse resolution order and check_resolution_trees",
        "shapes": shapes,
    }


def record_maps() -> dict:
    draws = {}
    for d, count in MAPS_PER_DEGREE.items():
        found, draw = [], 0
        while len(found) < count:
            if draw_map(d, draw) is not None:
                found.append(draw)
            draw += 1
        draws[str(d)] = found
    return {"workload": "mult", "draws": draws}


def write_pool(pool: dict, path: Path) -> None:
    """Write a pool as JSON with one shape (or one degree's draws) per line."""
    fields = []
    for key, value in pool.items():
        if isinstance(value, list):
            body = ",\n".join("  " + json.dumps(v) for v in value)
            fields.append(f" {json.dumps(key)}: [\n{body}\n ]")
        elif isinstance(value, dict):
            body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            fields.append(f" {json.dumps(key)}: {{\n{body}\n }}")
        else:
            fields.append(f" {json.dumps(key)}: {json.dumps(value)}")
    path.write_text("{\n" + ",\n".join(fields) + "\n}\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(LADDERS) + ["mult"])
    args = parser.parse_args()
    if args.workload == "mult":
        pool, name = record_maps(), "maps"
    else:
        pool, name = record(args.workload), args.workload.replace("-", "_")
    out = HERE / "golden" / f"{name}.json"
    write_pool(pool, out)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
