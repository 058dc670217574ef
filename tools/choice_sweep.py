"""Check that counts do not depend on the resolution, on four weight-1 shapes.

For each shape below, every class up to relabelling (weight-1 lines,
distinct cross-ratios) is counted three ways: by default, under every
root choice of ``evaluate_invariance_battery``, and with every node
taking the last of its choices instead of the first.  Prints one line
per shape, A to D: its name, the number of classes, how many have a
root choice that disagrees, how many change in reverse order, and the
seconds taken::

    python3 tools/choice_sweep.py

D takes about 25 s; the tests sweep A, B and C.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import resolved_in_reverse, weight_one_classes  # noqa: E402
from crosskont import evaluate, evaluate_invariance_battery  # noqa: E402

# name: (degree, points, lines, cross-ratios, free ends)
SHAPES = {
    "A": (1, 0, 5, 3, 1),
    "B": (1, 0, 6, 3, 1),
    "C": (2, 1, 6, 4, 0),
    "D": (2, 2, 4, 4, 1),
}


def sweep(name: str) -> str:
    start = time.perf_counter()
    found = weight_one_classes(*SHAPES[name])
    root = sum(not evaluate_invariance_battery(inst).ok for inst in found)
    counts = [evaluate(inst) for inst in found]
    with resolved_in_reverse():
        reverse = sum(evaluate(inst) != count for inst, count in zip(found, counts))
    seconds = time.perf_counter() - start
    return f"{name}: {len(found)} classes, root {root}, reverse {reverse} ({seconds:.1f} s)"


def main() -> int:
    for name in SHAPES:
        print(sweep(name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
