"""Time the evaluation on four frontier shapes of many cross-ratios over two lines.

For ``multi(8, 4)``, ``multi(9, 5)``, ``multi(7, 6)`` and ``multi(8, 7)``
(see ``tests/corpus.py``) prints one line each: the count, the classes the
engine valued (``Engine._nodes``), the orbit terms it summed
(``Engine._terms``), the classes the free-end rule valued 0 at their
node (``Engine._hall_zeros``) and the best of three runs in seconds,
each run on a fresh engine::

    python3 tools/frontier.py

The four shapes take about 15 s in all, ``multi(8, 7)`` about 10 s of them.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import multi  # noqa: E402
from crosskont.engine import Engine  # noqa: E402

SHAPES = [(8, 4), (9, 5), (7, 6), (8, 7)]
REPEATS = 3


def measure(degree: int, r: int) -> str:
    inst = multi(degree, r)
    best = float("inf")
    for _ in range(REPEATS):
        engine = Engine()
        start = time.perf_counter()
        count = engine.evaluate(inst)
        best = min(best, time.perf_counter() - start)
    return (
        f"multi({degree}, {r}): count {count}, nodes {engine._nodes}, "
        f"terms {engine._terms}, hall zeros {engine._hall_zeros}, best of {REPEATS} {best:.3f} s"
    )


def main() -> int:
    for degree, r in SHAPES:
        print(measure(degree, r), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
