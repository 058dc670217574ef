"""Splitting an instance along one of its cross-ratios.

Resolving the pairing of one cross-ratio deforms the curves into pairs
of curves joined by one contracted edge; on the level of instances this
splits the degree, the conditions and the remaining cross-ratios in two.
The deficiency of a side,

    delta = 3 d_i - (#points_i + #crossratios_i - #free_i),

measures how far that side is from being zero-dimensional on its own.
Only the deficiency vectors (1, 1), (0, 2) and (2, 0) contribute to the
recursion; the connecting edge then carries multi line conditions of
weight one on both sides, or a free end on the zero-deficiency side and
a point on the other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .conditions import (
    CrossRatio,
    EndCondition,
    Instance,
    Label,
    Pairing,
    Row,
    condition_row,
    deficiency,
)

ONE_ONE = "1/1"
TWO_ZERO_SIDE1_FIXED = "2/0 side 1 fixed"
TWO_ZERO_SIDE2_FIXED = "2/0 side 2 fixed"

# The contributing deficiency vectors and the split kind each one names.
KIND_OF_DEFICIENCIES = {
    (1, 1): ONE_ONE,
    (0, 2): TWO_ZERO_SIDE1_FIXED,
    (2, 0): TWO_ZERO_SIDE2_FIXED,
}

# The conditions of the connecting edge's fresh ends on side 1 and side 2, by split kind.
_E_CONDITIONS = {
    ONE_ONE: (EndCondition.line(1), EndCondition.line(1)),
    TWO_ZERO_SIDE1_FIXED: (EndCondition.free(), EndCondition.point()),
    TWO_ZERO_SIDE2_FIXED: (EndCondition.point(), EndCondition.free()),
}


def route_groups(
    groups: Sequence[frozenset], side1: frozenset
) -> tuple[list[int], list[int]] | None:
    """Send each four-entry group to the side holding at least three of its entries.

    ``side2`` is taken to hold every entry outside ``side1``.  Returns
    the indices of the groups on side 1 and on side 2, in order, or
    ``None`` when some group has two entries on each side: no curve
    keeps such a cross-ratio satisfied across the new edge.
    """
    to1: list[int] = []
    to2: list[int] = []
    for j, entries in enumerate(groups):
        near = len(entries & side1)
        if near == 2:
            return None
        (to1 if near >= 3 else to2).append(j)
    return to1, to2


def placements(
    groups: Sequence[frozenset],
    pinned1: frozenset,
    pinned2: frozenset,
    movable: Sequence,
) -> Iterator[tuple[frozenset, frozenset, list[int], list[int]]]:
    """Every placement of ``movable`` beside the two pinned pairs.

    Yields (side 1, side 2, groups on side 1, groups on side 2) by
    growing number of movable entries on side 1, then in combination
    order, skipping placements that :func:`route_groups` rejects.
    """
    everything = frozenset(movable)
    for k in range(len(movable) + 1):
        for chosen in itertools.combinations(movable, k):
            side1 = pinned1 | frozenset(chosen)
            routed = route_groups(groups, side1)
            if routed is not None:
                yield side1, pinned2 | (everything - side1), routed[0], routed[1]


@dataclass(frozen=True, slots=True)
class SplitSide:
    """Degree and condition shares of one side of a split."""

    degree: int
    labels: frozenset[Label]
    crossratios: frozenset[int]

    def deficiency(self, inst: Instance) -> int:
        kinds = [inst.condition(x).kind for x in self.labels]
        return deficiency(self.degree, kinds, len(self.crossratios))


@dataclass(frozen=True, slots=True)
class Split:
    """A contributing split: two sides plus its deficiency class.

    ``side1`` holds the resolved pairing's first pair; cross-ratio
    indices refer to the parent instance with the resolved one left
    out.
    """

    side1: SplitSide
    side2: SplitSide
    kind: str


@dataclass(frozen=True, slots=True)
class SubInstancePair:
    """The two sub-instances of a split, with their fresh edge labels."""

    side1: Instance
    side2: Instance
    e1: Label
    e2: Label


def _blocks(inst: Instance, last: int) -> list[list[Label]]:
    """The labels outside cross-ratio ``last``, blocked by condition and cross-ratio memberships."""
    blocks: dict = {}
    for x in inst.labels:
        if x not in inst.crossratios[last]:
            key = (inst.conditions[x], tuple(x in cr for cr in inst.crossratios))
            blocks.setdefault(key, []).append(x)
    return list(blocks.values())


def _block_orbits(
    inst: Instance, last: int, pairing: Pairing
) -> tuple[list[list[Label]], list[tuple[Split, int, tuple[int, ...]]]]:
    """The blocks of :func:`split_orbits` and its orbits with their count vectors.

    Returns (blocks, [(representative, multiplicity, counts)]), where
    ``counts`` says how many labels of each block side 1 takes.
    """
    resolved = inst.crossratios[last]
    if pairing.entries != resolved.entries:
        raise ValueError("pairing does not match the resolved cross-ratio")
    others = [j for j in range(len(inst.crossratios)) if j != last]
    groups = [inst.crossratios[j].entries for j in others]
    blocks = _blocks(inst, last)
    everything = frozenset(inst.labels)
    kinds = {x: cond.kind for x, cond in inst.conditions.items()}
    orbits = []
    for counts in itertools.product(*(range(len(block) + 1) for block in blocks)):
        labels1 = frozenset(pairing.first).union(*(block[:k] for block, k in zip(blocks, counts)))
        routed = route_groups(groups, labels1)
        if routed is None:
            continue
        to1, to2 = routed
        # Side 1 contributes only with deficiency 3 d1 + excess in 0..2, which
        # fixes d1; on a valid instance side 2's deficiency is 2 minus it.
        excess = deficiency(0, [kinds[x] for x in labels1], len(to1))
        d1 = -(excess // 3)
        if 0 <= d1 <= inst.degree:
            side1 = SplitSide(d1, labels1, frozenset(others[i] for i in to1))
            side2 = SplitSide(
                inst.degree - d1, everything - labels1, frozenset(others[i] for i in to2)
            )
            delta = 3 * d1 + excess
            kind = KIND_OF_DEFICIENCIES[delta, 2 - delta]
            weight = math.prod(map(math.comb, map(len, blocks), counts))
            orbits.append((Split(side1, side2, kind), weight, counts))
    return blocks, orbits


def split_orbits(inst: Instance, last: int, pairing: Pairing) -> list[tuple[Split, int]]:
    """The contributing splits of ``inst`` along cross-ratio ``last``, one per orbit.

    ``pairing`` groups that cross-ratio's entries, its first pair pinned
    to side 1 and its second to side 2.  A split shares out the degree
    and the other labels with deficiency vector (1, 1), (0, 2) or (2, 0);
    a remaining cross-ratio follows the side holding at least three of
    its entries, and two-two placements are dropped.  Labels with equal
    condition and cross-ratio memberships are interchangeable, so each
    count of such labels on side 1 yields one representative (the
    first labels on side 1) and its multiplicity, the product of
    C(block size, count).
    """
    return [(split, weight) for split, weight, _ in _block_orbits(inst, last, pairing)[1]]


def orbit_rows(
    inst: Instance, last: int, pairing: Pairing
) -> list[tuple[Split, int, dict[Row, int], dict[Row, int]]]:
    """:func:`split_orbits`, each with the row counts of its two sub-instances.

    The rows come from block counts, without building the sub-instances:
    a side has the rows of its pinned pair and of the labels it takes
    from each block, over the cross-ratios routed to it, and the row of
    its fresh end, which belongs to a routed cross-ratio exactly when
    three of that cross-ratio's entries sit on the side.  They equal
    :func:`label_rows` of the sides :func:`build_subinstances` builds.
    """
    blocks, orbits = _block_orbits(inst, last, pairing)
    crs = [cr.entries for cr in inst.crossratios]
    row_of = lambda x: condition_row(inst.conditions[x], tuple(x in cr for cr in crs))
    # side 1's pinned pair, side 2's pinned pair, then one row per block
    parent = [row_of(x) for x in (*pairing.first, *pairing.second)]
    parent += [row_of(block[0]) for block in blocks]
    projected: dict[frozenset[int], list[Row]] = {}

    def side_rows(side: SplitSide, end: EndCondition, shares: Sequence[int]) -> dict[Row, int]:
        cols = sorted(side.crossratios)
        if side.crossratios not in projected:
            projected[side.crossratios] = [
                (rank, weight, tuple(map(vec.__getitem__, cols))) for rank, weight, vec in parent
            ]
        rows: dict[Row, int] = {}
        for row, n in zip(projected[side.crossratios], shares):
            if n:
                rows[row] = rows.get(row, 0) + n
        fresh = condition_row(end, tuple(len(crs[j] & side.labels) == 3 for j in cols))
        rows[fresh] = rows.get(fresh, 0) + 1
        return rows

    sides = []
    for split, weight, counts in orbits:
        end1, end2 = _E_CONDITIONS[split.kind]
        rest = [len(block) - k for block, k in zip(blocks, counts)]
        rows1 = side_rows(split.side1, end1, (1, 1, 0, 0, *counts))
        rows2 = side_rows(split.side2, end2, (0, 0, 1, 1, *rest))
        sides.append((split, weight, rows1, rows2))
    return sides


def enumerate_splits(inst: Instance, last: int, pairing: Pairing) -> list[Split]:
    """Every contributing split, each of :func:`split_orbits` expanded.

    Sorted by side 1's degree, then by the labels it takes beside the
    pinned pair, fewest first, then in combination order.
    """
    blocks, orbits = _block_orbits(inst, last, pairing)
    splits = []
    for rep, _, counts in orbits:
        for chosen in itertools.product(*map(itertools.combinations, blocks, counts)):
            labels1 = frozenset(pairing.first).union(*chosen)
            side2 = replace(rep.side2, labels=frozenset(inst.labels) - labels1)
            splits.append(Split(replace(rep.side1, labels=labels1), side2, rep.kind))
    moved = lambda split: sorted(split.side1.labels - set(pairing.first))
    return sorted(splits, key=lambda split: (split.side1.degree, len(moved(split)), moved(split)))


def build_subinstances(inst: Instance, split: Split) -> SubInstancePair:
    """Materialize the two sub-instances of a split.

    The connecting edge becomes a fresh contracted end on each side,
    labelled one and two past the largest label of ``inst``; it carries
    a weight-one multi line condition on both sides of a 1/1 split, and
    a free end on the fixed side with a point on the other for a 2/0
    split.  Cross-ratios keep their relative order and have their
    entries from the other side replaced by the fresh end.
    """
    e1 = max(inst.labels) + 1
    e2 = e1 + 1
    cond1, cond2 = _E_CONDITIONS[split.kind]

    def side_instance(side: SplitSide, e: Label, cond: EndCondition) -> Instance:
        conds = {x: inst.conditions[x] for x in side.labels} | {e: cond}
        crs = tuple(
            CrossRatio(
                frozenset(x if x in side.labels else e for x in inst.crossratios[j].entries)
            )
            for j in sorted(side.crossratios)
        )
        return Instance(side.degree, conds, crs)

    sub1 = side_instance(split.side1, e1, cond1)
    sub2 = side_instance(split.side2, e2, cond2)
    return SubInstancePair(sub1, sub2, e1, e2)
