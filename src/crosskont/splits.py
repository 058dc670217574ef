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
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .conditions import (
    FREE,
    KIND_RANK,
    POINT,
    CrossRatio,
    EndCondition,
    Instance,
    Label,
    Pairing,
    Row,
    condition_row,
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


@dataclass(frozen=True, slots=True)
class SplitSide:
    """Degree and condition shares of one side of a split."""

    degree: int
    labels: frozenset[Label]
    crossratios: frozenset[int]


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


class Orbit(NamedTuple):
    """The splits where side 1 takes ``counts[i]`` labels of block i, ``weight`` of them.

    ``degrees``, ``crossratios`` (indices) and ``rows`` (fresh end included) are each
    side's: those of the sub-instances :func:`build_subinstances` builds from :meth:`split`.
    """

    kind: str
    weight: int
    counts: tuple[int, ...]
    degrees: tuple[int, int]
    crossratios: tuple[frozenset[int], frozenset[int]]
    rows: tuple[dict[Row, int], dict[Row, int]]
    blocks: list[list[Label]]
    pairing: Pairing

    def split(self) -> Split:
        """The representative: side 1 takes the first ``counts`` labels of each block."""
        pairs = list(zip(self.blocks, self.counts))
        labels1 = frozenset(self.pairing.first).union(*(block[:k] for block, k in pairs))
        labels2 = frozenset(self.pairing.second).union(*(block[k:] for block, k in pairs))
        sides = map(SplitSide, self.degrees, (labels1, labels2), self.crossratios)
        return Split(*sides, self.kind)


def orbit_rows(inst: Instance, last: int, pairing: Pairing) -> list[Orbit]:
    """The contributing splits of ``inst`` along cross-ratio ``last``, one :class:`Orbit` each.

    ``pairing`` groups that cross-ratio's entries, its first pair pinned
    to side 1 and its second to side 2.  A split shares out the degree
    and the other labels with deficiency vector (1, 1), (0, 2) or (2, 0);
    a remaining cross-ratio follows the side holding at least three of
    its entries, and two-two placements are dropped.  Labels with equal
    condition and cross-ratio memberships form a block.  The blocks are
    placed depth first, in lexicographic order of the counts, carrying
    each remaining cross-ratio's entries on side 1; a branch stops once
    a cross-ratio whose last block is placed holds two.  Those counts
    route the cross-ratios and put a side's fresh end in those its side
    holds three entries of, without label sets.
    """
    if pairing.entries != inst.crossratios[last].entries:
        raise ValueError("pairing does not match the resolved cross-ratio")
    crs = [cr.entries for cr in inst.crossratios]
    others = [j for j in range(len(crs)) if j != last]
    row_of = lambda x: condition_row(inst.conditions[x], tuple(x in cr for cr in crs))
    grouped: dict[Row, list[Label]] = {}
    for x in inst.labels:
        if x not in crs[last]:
            grouped.setdefault(row_of(x), []).append(x)
    blocks = list(grouped.values())
    # side 1's pinned pair, side 2's pinned pair, then one row per block
    parent = [*map(row_of, (*pairing.first, *pairing.second)), *grouped]
    # a label's share of side 1's deficiency: +1 free, -1 point
    excess = [(rank == KIND_RANK[FREE]) - (rank == KIND_RANK[POINT]) for rank, _, _ in parent]
    members = [[i for i, j in enumerate(others) if vec[j]] for _, _, vec in parent]
    sizes = [1, 1, 1, 1, *map(len, blocks)]
    taken = [1, 1, 0, 0, *(0 for _ in blocks)]  # side 1's share of each parent row
    near = [0] * len(others)  # entries of each remaining cross-ratio on side 1
    for i in members[0] + members[1]:
        near[i] += 1
    closing: list[list[int]] = [[] for _ in blocks]  # the cross-ratios each block holds last
    last_holder = {i: b for b in range(len(blocks)) for i in members[4 + b]}
    for i, b in last_holder.items():
        closing[b].append(i)
    if any(n == 2 for i, n in enumerate(near) if i not in last_holder):
        return []
    routes: dict[tuple[bool, ...], tuple] = {}
    orbits: list[Orbit] = []

    def close(weight: int, surplus: int) -> None:
        on1 = tuple(n >= 3 for n in near)
        if on1 not in routes:
            cols = [[j for j, on in zip(others, on1) if on == side] for side in (True, False)]
            projected = [[(r, w, tuple(map(v.__getitem__, c))) for r, w, v in parent] for c in cols]
            routes[on1] = sum(on1), tuple(map(frozenset, cols)), projected
        routed, crossratios, (projected1, projected2) = routes[on1]
        # Side 1 contributes only with deficiency 3 d1 + surplus in 0..2, which
        # fixes d1; on a valid instance side 2's deficiency is 2 minus it.
        surplus -= routed
        d1 = -(surplus // 3)
        if not 0 <= d1 <= inst.degree:
            return
        delta = 3 * d1 + surplus
        kind = KIND_OF_DEFICIENCIES[delta, 2 - delta]
        end1, end2 = _E_CONDITIONS[kind]
        rows1 = {condition_row(end1, tuple(n == 3 for n in near if n >= 3)): 1}
        rows2 = {condition_row(end2, tuple(n == 1 for n in near if n < 3)): 1}
        for row1, row2, k, size in zip(projected1, projected2, taken, sizes):
            if k:
                rows1[row1] = rows1.get(row1, 0) + k
            if k < size:
                rows2[row2] = rows2.get(row2, 0) + size - k
        sides = (d1, inst.degree - d1), crossratios, (rows1, rows2)
        orbits.append(Orbit(kind, weight, tuple(taken[4:]), *sides, blocks, pairing))

    def place(b: int, weight: int, surplus: int) -> None:
        if b == len(blocks):
            return close(weight, surplus)
        size, holds, shut = sizes[4 + b], members[4 + b], closing[b]
        for k in range(size + 1):
            if k:
                for i in holds:
                    near[i] += 1
            if not (shut and 2 in [near[i] for i in shut]):
                taken[4 + b] = k
                place(b + 1, weight * math.comb(size, k), surplus + k * excess[4 + b])
        for i in holds:
            near[i] -= size

    place(0, 1, excess[0] + excess[1])
    return orbits


def orbit_members(inst: Instance, last: int, pairing: Pairing) -> Iterator[tuple[Split, Orbit]]:
    """Each contributing split with its :class:`Orbit`, expanded one group of orbits at a time.

    Sorted by side 1's degree, then by the labels it takes beside the
    pinned pair, fewest first, then in combination order; an orbit's
    first member is its :meth:`Orbit.split`.
    """
    group = lambda orbit: (orbit.degrees[0], sum(orbit.counts))
    everyone = frozenset(inst.labels)
    for _, orbits in itertools.groupby(sorted(orbit_rows(inst, last, pairing), key=group), group):
        members = [
            (sorted(itertools.chain(*picks)), orbit)
            for orbit in orbits
            for picks in itertools.product(*map(itertools.combinations, orbit.blocks, orbit.counts))
        ]
        for moved, orbit in sorted(members, key=lambda member: member[0]):
            labels1 = frozenset(pairing.first).union(moved)
            sides = map(SplitSide, orbit.degrees, (labels1, everyone - labels1), orbit.crossratios)
            yield Split(*sides, orbit.kind), orbit


def enumerate_splits(inst: Instance, last: int, pairing: Pairing) -> list[Split]:
    """Every contributing split, in the order of :func:`orbit_members`."""
    return [split for split, _ in orbit_members(inst, last, pairing)]


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
