"""Time the evaluation on frontier shapes of many cross-ratios over two lines.

For ``multi(8, 4)``, ``multi(9, 5)``, ``multi(7, 6)``, ``multi(8, 7)``,
``multi(9, 6)``, ``multi(9, 7)`` and ``multi(9, 8)`` (see
``tests/corpus.py``) prints one line each: the count, the classes the
engine valued (``Engine._nodes``), the orbit terms it summed
(``Engine._terms``), the classes the free-end rule valued 0 at their
node (``Engine._hall_zeros``) and the best of three runs in seconds,
each run on a fresh engine; ``multi(9, 8)`` runs once, for its work::

    python3 tools/frontier.py

The shapes take about 60 s in all on a shared 2-core machine, ``multi(9, 7)``
about 15 s of them and ``multi(9, 8)`` about 10 s.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import multi  # noqa: E402
from crosskont.engine import Engine  # noqa: E402

# (degree, cross-ratios, runs)
SHAPES = [(8, 4, 3), (9, 5, 3), (7, 6, 3), (8, 7, 3), (9, 6, 3), (9, 7, 3), (9, 8, 1)]


def measure(degree: int, r: int, runs: int) -> str:
    inst = multi(degree, r)
    best = float("inf")
    for _ in range(runs):
        engine = Engine()
        start = time.perf_counter()
        count = engine.evaluate(inst)
        best = min(best, time.perf_counter() - start)
    return (
        f"multi({degree}, {r}): count {count}, nodes {engine._nodes}, "
        f"terms {engine._terms}, hall zeros {engine._hall_zeros}, best of {runs} {best:.3f} s"
    )


def main() -> int:
    for shape in SHAPES:
        print(measure(*shape), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
