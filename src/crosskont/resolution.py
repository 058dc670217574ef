"""Cross-ratio multiplicity of a single vertex.

A vertex of valence 3 + r that satisfies r degenerated cross-ratios can
be deformed into a trivalent tree in finitely many ways compatible with
the cross-ratios; the number of distinct such trees is the vertex's
cross-ratio multiplicity.  The deformation is computed one cross-ratio
at a time: resolving a cross-ratio splits the vertex into two vertices
joined by a new edge such that the chosen pairing's pairs end up on
opposite sides.  Each remaining cross-ratio must follow one side (three
or four of its slots there); a two-two distribution admits no tree in
which that cross-ratio stays satisfied, so such partitions are dropped.

The partition kernel ``_sides`` and the count see a slot set as a mask, bit i
for the i-th smallest slot: the count depends only on the slot sets up to
relabelling, so it recurses on one mask per cross-ratio; the trees add one per pairing,
for its side-1 pair, and are identified by their splits.  Only ``resolve_once`` builds profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .conditions import Label, Pairing, CrossRatio, all_pairings

SlotId = int

# _sides bit-slices the subsets of at most _BLOCK free slots: bit s of an int stands for
# the subset whose members are the set bits of s.  _SLICES[n][i]: the subsets of n holding i.
_BLOCK = 12
_SLICES = [[((1 << (1 << n)) - 1) // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
            for i in range(n)] for n in range(_BLOCK + 1)]


class StructureError(ValueError):
    """A vertex profile violates the valence equation val = 3 + r."""


def check_valence(slots: int, crossratios: int) -> None:
    """Raise :class:`StructureError` unless a vertex's slot count is 3 plus its cross-ratios."""
    if slots != 3 + crossratios:
        raise StructureError(f"vertex has {slots} slots but 3 + {crossratios} are required")


@dataclass(frozen=True, slots=True)
class VertexProfile:
    """The local picture at one vertex: adjacent slots plus cross-ratios.

    ``routes`` maps each cross-ratio id to a table sending its four
    entries, end labels, to the four distinct slots through which their
    paths leave the vertex.  It is stored read-only, so profiles compare
    as values and are not hashable.
    """

    slots: frozenset[SlotId]
    routes: Mapping[int, Mapping[Label, SlotId]]

    def __post_init__(self) -> None:
        slots = frozenset(self.slots)
        routes = {cr: MappingProxyType(dict(table)) for cr, table in self.routes.items()}
        for cr, table in routes.items():
            used = set(table.values())
            if len(table) != 4 or len(used) != 4 or not used <= slots:
                raise ValueError(
                    f"cross-ratio {cr} must route 4 entries to 4 distinct slots of the profile, "
                    f"got {dict(table)}"
                )
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "routes", MappingProxyType(routes))

    @classmethod
    def of(
        cls,
        slots: Iterable[SlotId],
        crossratios: Iterable[Iterable[Label]] = (),
    ) -> "VertexProfile":
        """Profile whose cross-ratio entries are slots themselves, ids by position."""
        return cls(slots, {i: {x: x for x in labels} for i, labels in enumerate(crossratios)})

    def check_valence(self) -> None:
        check_valence(len(self.slots), len(self.routes))


def resolve_once(
    profile: VertexProfile, target: int, pairing: Pairing
) -> list[tuple[VertexProfile, VertexProfile]]:
    """Resolve one cross-ratio of the profile into an edge.

    ``_sides`` sees slots as bits of their ranks; side 1 takes the first pair and each subset kept.

    Parameters
    ----------
    target : int
        Id of the cross-ratio to resolve; its two pairs end up on
        opposite sides of a new edge, whose slot id (the same in both
        children) is one past the largest slot of ``profile``.
    pairing : Pairing
        Grouping of the target's entries (not its slots) into the two
        separated pairs; ``profile.routes[target]`` sends them to slots.

    Returns
    -------
    list of (VertexProfile, VertexProfile)
        One pair of child profiles per valid partition of the slots, in
        ``itertools.combinations`` order, the side holding the pairing's
        first pair first.  Remaining cross-ratios follow the side holding at
        least three of their slots, the odd slot out replaced by the new edge.
    """
    profile.check_valence()
    table = profile.routes[target]
    if pairing.entries != table.keys():
        raise ValueError("pairing does not match the resolved cross-ratio")
    bit = {slot: 1 << i for i, slot in enumerate(sorted(profile.slots))}
    first = sum(bit[table[entry]] for entry in pairing.first)
    new_slot = max(profile.slots) + 1
    others = [(cr, table) for cr, table in profile.routes.items() if cr != target]

    def child(side: frozenset[SlotId], routed: list[int]) -> VertexProfile:
        routes = {cr: {entry: slot if slot in side else new_slot for entry, slot in table.items()}
                  for cr, table in (others[i] for i in routed)}
        return VertexProfile(side | {new_slot}, routes)

    groups = [sum(bit[slot] for slot in table.values()) for _, table in others]
    rest = [i for i, slot in enumerate(bit) if slot not in table.values()]
    kept = [([slot for slot, b in bit.items() if side1 & b], to1, to2)
            for side1, to1, to2 in _sides(first, rest, groups)]
    return [(child(frozenset(side1), to1), child(profile.slots.difference(side1), to2))
            for side1, to1, to2 in sorted(kept, key=lambda part: (len(part[0]), part[0]))]


def _sides(first: int, rest: list[int], groups: list[int]
           ) -> list[tuple[int, list[int], list[int]]]:
    """Side 1 and the indices of the groups routed to each side, per partition kept, in no order.

    Slot sets are masks, bit p for position p.  Side 1 is ``first`` plus each subset of the
    ascending free positions ``rest`` that leaves no group two-two, found bit-sliced ``_BLOCK``
    positions per int; side 1 takes the groups 3 or 4 of whose bits it holds, one per free slot.
    """
    block, outer, out = rest[:_BLOCK], rest[_BLOCK:], []
    has = {1 << p: sliced for p, sliced in zip(block, _SLICES[len(block)])}
    within = sum(has)
    # each subset of the positions past the block joins side 1's fixed part in turn, made lazily
    for extra in (c for k in range(len(outer) + 1) for c in combinations(outer, k)):
        fixed = first | sum(1 << p for p in extra)
        ok = (1 << (1 << len(block))) - 1
        for entries in groups:
            need = 2 - (entries & fixed).bit_count()
            if need >= 0:
                # Per subset, count the group's block slots up from -need mod 4 in two bit
                # planes: at most 2 + need are there, so the count is 0 where exactly need are.
                ones, twos = -(need & 1), -(need > 0)
                inside = entries & within
                while inside:
                    low = inside & -inside
                    twos ^= ones & has[low]
                    ones ^= has[low]
                    inside ^= low
                ok &= ones | twos
        while ok:  # each surviving subset s of the block, routed in place
            s = (ok & -ok).bit_length() - 1
            ok &= ok - 1
            side1 = fixed | sum(1 << p for i, p in enumerate(block) if s >> i & 1)
            to1, to2 = [], []
            for j, entries in enumerate(groups):
                (to1 if (entries & side1).bit_count() >= 3 else to2).append(j)
            if len(to1) == side1.bit_count() - 2:  # 2 + k slots, 3 + len(to1) with the new edge
                out.append((side1, to1, to2))
    return out


@dataclass(frozen=True, slots=True)
class ResolutionTree:
    """A trivalent resolution, identified by its splits.

    ``splits`` holds, for each internal edge, the side of the induced
    leaf bipartition that avoids the smallest leaf.  ``edge_of`` maps
    each resolved cross-ratio id to the split of the edge it produced.
    """

    leaves: frozenset[SlotId]
    splits: frozenset[frozenset[SlotId]]
    edge_of: tuple[tuple[int, frozenset[SlotId]], ...]

    def split_for(self, cr: int) -> frozenset[SlotId]:
        return dict(self.edge_of)[cr]


def _grow(
    behind: dict[int, frozenset[SlotId]], crs: list[tuple[int, int, int]], anchor: SlotId
) -> list[tuple[frozenset[frozenset[SlotId]], dict[int, frozenset[SlotId]]]]:
    """Split sets and edges of a node's resolutions, its partitions in ``resolve_once``'s order.

    ``behind`` sends the node's ascending positions to the root slots behind each; ``crs``
    holds (id, mask, mask of the pair on side 1) per unresolved cross-ratio, the next first.
    A child keeps its side's positions and gives the new edge a fresh one above the node's.
    """
    if not crs:
        return [(frozenset(), {})]
    (target, entries, pair), *rest = crs
    fresh = max(behind) + 1
    on = lambda side: [p for p in behind if side >> p & 1]  # side 2 is ~side1
    leaves = lambda side: frozenset().union(*map(behind.get, on(side)))

    def child(side: int, routed: list[int], other: frozenset[SlotId]) -> list:
        cut = lambda mask: mask & side | (1 << fresh if mask & ~side else 0)  # off-side bit to edge
        return _grow({**{p: behind[p] for p in on(side)}, fresh: other},
                     [(cr, cut(mask), cut(first)) for cr, mask, first in map(rest.__getitem__, routed)],
                     anchor)

    kept = _sides(pair, on(~entries), [mask for _, mask, _ in rest])
    results: list = []
    for side1, to1, to2 in sorted(kept, key=lambda part: (part[0].bit_count(), on(part[0]))):
        below1, below2 = leaves(side1), leaves(~side1)
        split = below2 if anchor in below1 else below1
        left, right = child(side1, to1, below2), child(~side1, to2, below1)
        results += [(splits1 | splits2 | {split}, {target: split, **edges1, **edges2})
                    for splits1, edges1 in left for splits2, edges2 in right]
    return results


def total_resolutions(
    profile: VertexProfile,
    pairings: Mapping[int, Pairing] | None = None,
    order: Sequence[int] | None = None,
) -> tuple[ResolutionTree, ...]:
    """All trivalent resolutions of the profile, up to tree isomorphism.

    Reads the routing tables and pairings once, then resolves one cross-ratio at a time as
    :func:`resolve_once` does, on masks of slot ranks, tracking the original slots behind
    each rank.  Resolutions with the same set of splits are the same tree, counted once.

    Parameters
    ----------
    pairings : mapping, optional
        Pairing of entries to use per cross-ratio id; the profile's
        ``routes`` send those entries to slots.  Defaults to the pairing
        grouping each cross-ratio's two smallest entries.  The trees
        depend on this choice; their number does not.
    order : sequence of int, optional
        Resolution order by cross-ratio id; defaults to the order of
        ``profile.routes``.  Repeats and ids not in the profile are
        ignored; leaving one of its ids out raises ``ValueError``.  The
        number of trees does not depend on it either.

    Returns
    -------
    tuple of ResolutionTree
        Sorted by their split encodings, one tree per split set.
    """
    profile.check_valence()
    pairings, routes = pairings or {}, profile.routes
    ids = dict.fromkeys(cr for cr in (routes if order is None else order) if cr in routes)
    if missing := [cr for cr in routes if cr not in ids]:
        raise ValueError(f"order leaves out cross-ratios {missing}")
    rank = {slot: i for i, slot in enumerate(sorted(profile.slots))}
    crs = []
    for cr in ids:
        pairing = pairings[cr] if cr in pairings else all_pairings(CrossRatio(frozenset(routes[cr])))[0]
        if pairing.entries != routes[cr].keys():
            raise ValueError("pairing does not match the resolved cross-ratio")
        crs.append((cr, *(sum(1 << rank[routes[cr][entry]] for entry in group)
                          for group in (routes[cr], pairing.first))))
    raw = _grow({i: frozenset({slot}) for slot, i in rank.items()}, crs, min(rank))
    trees = [ResolutionTree(profile.slots, splits, tuple(sorted(edges.items())))
             for splits, edges in dict(reversed(raw)).items()]  # each from its first resolution
    return tuple(sorted(trees, key=lambda tree: sorted(map(sorted, tree.splits))))


def cross_ratio_multiplicity(profile: VertexProfile) -> int:
    """Number of trivalent resolutions of the vertex, counted without building trees.

    Ranks the slots once and recurses on one mask of slot ranks per cross-ratio, calling
    the partition kernel behind :func:`resolve_once` directly: it resolves the first mask
    with its two lowest bits paired, and two children are worth the product of their counts.
    A count depends only on the number of slots and the masks, so one call memoises it
    under both.  Raises :class:`StructureError` if the valence equation fails.
    """
    profile.check_valence()
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def count(n: int, masks: list[int]) -> int:
        if not masks:
            return 1
        if (key := (n, tuple(sorted(masks)))) not in memo:
            target, *groups = masks
            higher = (above := target & (target - 1)) & (above - 1)  # less its two lowest bits
            free, total = [p for p in range(n) if not target >> p & 1], 0
            for part, to1, to2 in _sides(target ^ higher, free, groups):
                if left := child(part, [groups[j] for j in to1]):
                    total += left * child((1 << n) - 1 ^ part, [groups[j] for j in to2])
            memo[key] = total
        return memo[key]

    def child(side: int, routed: list[int]) -> int:  # side's ranks in order, the new edge on top
        top, masks = side.bit_count(), []
        for entries in routed:
            mask = 0
            while entries:
                low = entries & -entries
                mask |= 1 << (side & (low - 1)).bit_count() if side & low else 1 << top
                entries ^= low
            masks.append(mask)
        return count(top + 1, masks)

    bit = {slot: 1 << i for i, slot in enumerate(sorted(profile.slots))}
    return count(len(bit), [sum(map(bit.get, table.values())) for table in profile.routes.values()])
