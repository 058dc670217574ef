"""Deterministic instance corpus shared by the test modules.

A fixed seed drives every draw, so the corpus is identical from run to
run.  Hand-built instances pin down the closed-form reductions, the
rigid degree-zero shapes and the running two-cross-ratio example;
random instances fill the rest of the range (degree at most 2, at most
three cross-ratios, three multi lines and two free ends).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
from pathlib import Path
from typing import Iterator

from crosskont import Instance, Pairing, build_subinstances, canonical_key, engine, validate
from crosskont.conditions import label_row, label_rows
from crosskont.engine import resolution_choices
from crosskont.splits import Split, SplitSide, orbit_rows

SEED = 20260815
SIZE = 64


def _handmade() -> list[Instance]:
    return [
        Instance.build(1, points=[1, 2]),
        Instance.build(1, points=[1, 2], lines={3: 5}),
        Instance.build(2, points=[1, 2, 3, 4, 5]),
        Instance.build(2, points=[1, 2, 3, 4, 5], lines={6: 2, 7: 3}),
        Instance.build(0, lines={1: 2, 2: 3}, free=[3]),
        Instance.build(0, points=[1], free=[2, 3]),
        Instance.build(0, lines={1: 1, 2: 1}, free=[3, 4], crossratios=[[1, 2, 3, 4]]),
        Instance.build(
            2, points=[1, 2, 3], lines={4: 1, 5: 1}, crossratios=[[1, 2, 3, 4], [1, 2, 3, 5]]
        ),
        Instance.build(
            2, points=[1, 2, 3], lines={4: 2, 5: 3}, crossratios=[[1, 2, 3, 4], [1, 2, 3, 5]]
        ),
        Instance.build(1, points=[1, 2], lines={3: 2}, free=[4], crossratios=[[1, 2, 3, 4]]),
        Instance.build(
            2, points=[1, 2, 3, 4, 5], lines={6: 2}, free=[7], crossratios=[[2, 5, 6, 7]]
        ),
    ]


def _random_fill(rng: random.Random, want: int, seen: set) -> list[Instance]:
    out: list[Instance] = []
    while len(out) < want:
        degree = rng.choice([0, 1, 1, 2, 2])
        crossings = rng.randint(0, 3)
        free = rng.randint(0, 2)
        lines = rng.randint(0, 3)
        points = 3 * degree - 1 - crossings + free
        if points < 0:
            continue
        labels = list(range(1, points + lines + free + 1))
        if crossings and len(labels) < 4:
            continue
        rng.shuffle(labels)
        point_labels = labels[:points]
        line_labels = labels[points : points + lines]
        free_labels = labels[points + lines :]
        quads = list(itertools.combinations(sorted(labels), 4))
        if crossings > len(quads):
            continue
        inst = Instance.build(
            degree,
            points=point_labels,
            lines={lab: rng.randint(1, 3) for lab in line_labels},
            free=free_labels,
            crossratios=rng.sample(quads, crossings),
        )
        if not validate(inst):
            continue
        key = canonical_key(inst)
        if key in seen:
            continue
        seen.add(key)
        out.append(inst)
    return out


def build_corpus(seed: int = SEED, size: int = SIZE) -> list[Instance]:
    base = _handmade()
    assert all(validate(inst) for inst in base)
    seen = {canonical_key(inst) for inst in base}
    rng = random.Random(seed)
    return base + _random_fill(rng, size - len(base), seen)


def one_cross_ratio_family(degree: int, wa: int = 1, wb: int = 1) -> Instance:
    """3d - 2 points, lines a and b of weights wa, wb and the cross-ratio {p1, p2, a, b}."""
    n = 3 * degree - 2
    a, b = n + 1, n + 2
    return Instance.build(
        degree, points=range(1, n + 1), lines={a: wa, b: wb}, crossratios=[[1, 2, a, b]]
    )


def multi(degree: int, r: int) -> Instance:
    """The ``multi(d, r)`` shape: many cross-ratios over two lines.

    Points 1..n with n = 3d - 1 - r, lines a = n + 1 of weight 1 and
    b = n + 2 of weight 2, and the first r of eight cross-ratios.  The
    seventh and eighth hold points 14 and 15, so r = 7 and r = 8 need
    n >= 15, that is d >= 8.
    """
    n = 3 * degree - 1 - r
    a, b = n + 1, n + 2
    crossratios = [
        [1, 2, a, b], [3, 4, a, 5], [1, 6, b, 7], [2, 3, 8, 9], [5, 10, 11, a], [6, 12, 13, b],
        [4, 7, 14, a], [8, 10, 15, b],
    ]
    return Instance.build(
        degree, points=list(range(1, n + 1)), lines={a: 1, b: 2}, crossratios=crossratios[:r]
    )


def free_row_ladder(k: int) -> dict:
    """An ``instance/1`` document: degree 1, weight-1 lines 1-4 and free ends 5..k+4.

    Each free end lies in a cross-ratio of its own with 1, 2 and 3, and
    (1 2 3 4) and (1 2 4 5) come besides, so every free end has a row of
    its own and can be matched to a cross-ratio of its own.
    """
    free = list(range(5, 5 + k))
    return {
        "schema": "instance/1",
        "degree": 1,
        "lines": [{"label": x, "weight": 1} for x in (1, 2, 3, 4)],
        "free": free,
        "crossratios": [[1, 2, 3, f] for f in free] + [[1, 2, 3, 4], [1, 2, 4, 5]],
    }


def _golden_shapes(pool: str) -> list[dict]:
    path = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / f"{pool}.json"
    return json.loads(path.read_text())["shapes"]


def golden_eval_multi_shapes() -> list[dict]:
    """The 16 shapes of the eval-multi benchmark with their recorded counts."""
    return _golden_shapes("eval_multi")


def golden_multcr_shapes() -> list[dict]:
    """The 14 vertex profiles of the multcr benchmark (r = 8..14) with their recorded counts."""
    return _golden_shapes("multcr")


def golden_instance(shape: dict) -> Instance:
    return Instance.build(
        shape["degree"],
        points=shape["points"],
        lines=[tuple(line) for line in shape["lines"]],
        free=shape["free"],
        crossratios=shape["crossratios"],
    )


def weight_one_classes(
    degree: int, points: int, lines: int, r: int, free: int = 0
) -> list[Instance]:
    """One instance per class up to relabelling: weight-1 lines, r distinct cross-ratios."""
    labels = range(1, points + lines + free + 1)
    classes = {}
    for crossratios in itertools.combinations(itertools.combinations(labels, 4), r):
        inst = Instance.build(
            degree,
            points=labels[:points],
            lines={x: 1 for x in labels[points : points + lines]},
            free=labels[points + lines :],
            crossratios=crossratios,
        )
        classes.setdefault(canonical_key(inst), inst)
    return list(classes.values())


@contextlib.contextmanager
def resolved_in_reverse() -> Iterator[list[dict]]:
    """Make every node take the last of its resolution choices; yield the rows asking."""
    calls = []
    row_choices = engine._row_choices

    def reversed_choices(rows):
        calls.append(rows)
        return reversed(list(row_choices(rows)))

    engine._row_choices = reversed_choices
    try:
        yield calls
    finally:
        engine._row_choices = row_choices


def label_blocks(inst: Instance, last: int) -> list[list[int]]:
    """The labels off cross-ratio ``last`` grouped by row in label order: the blocks of orbit_rows."""
    row = label_row(inst)
    blocks: dict = {}
    for x in inst.labels:
        if x not in inst.crossratios[last]:
            blocks.setdefault(row(x), []).append(x)
    return list(blocks.values())


def orbit_splits(inst: Instance, last: int, pairing: Pairing):
    """Each orbit of ``inst`` under ``pairing`` with a representative split.

    The orbits are those :func:`orbit_members` expands, in the order of
    :func:`orbit_rows`; side 1 of the representative takes the first
    labels of each of the :func:`label_blocks`.
    """
    blocks = label_blocks(inst, last)
    row = label_row(inst)
    pinned = [row(x) for x in (*pairing.first, *pairing.second)]
    labels = frozenset(inst.labels)
    for orbit in orbit_rows(inst.degree, label_rows(inst), last, pinned):
        moved = (block[:k] for block, k in zip(blocks, orbit.counts))
        labels1 = frozenset(pairing.first).union(*moved)
        sides = map(SplitSide, orbit.degrees, (labels1, labels - labels1), orbit.crossratios)
        yield Split(*sides, orbit.kind), orbit


def split_nodes(inst: Instance):
    """Every distinct instance that resolves below ``inst``, with its (cross-ratio, pairing).

    Each node takes the first of its :func:`resolution_choices`, as the
    trace does, and its sides are built from each orbit's representative.
    """
    nodes = {}
    stack = [inst]
    while stack:
        node = stack.pop()
        key = canonical_key(node)
        if key in nodes or not node.crossratios or node.degree == 0:
            continue
        first = next(resolution_choices(node), None)
        choice = None if first is None else (first[1][0], first[0])
        nodes[key] = node, choice
        if choice is not None:
            last, pairing = choice
            for split, _ in orbit_splits(node, last, pairing):
                pair = build_subinstances(node, split)
                stack += [pair.side1, pair.side2]
    return nodes.values()


CORPUS = build_corpus()

SMALL = [inst for inst in CORPUS if len(inst.labels) <= 8]
