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

Trees are identified by their splits (the leaf bipartitions induced by
internal edges), which makes the result independent of the order in
which the cross-ratios are resolved and of the chosen pairings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .conditions import Label, Pairing, canonical_pairing, CrossRatio
from .splits import placements

SlotId = int


class StructureError(ValueError):
    """A vertex profile violates the valence equation val = 3 + r."""


@dataclass(frozen=True, slots=True)
class Quadruple:
    """A cross-ratio as seen from one vertex.

    ``slot_of`` routes each of the four entries to the adjacent edge or
    end through which its path leaves the vertex.  For a satisfied
    cross-ratio those four slots are distinct.
    """

    cr: int
    slot_of: tuple[tuple[Label, SlotId], ...]

    def __post_init__(self) -> None:
        if len(self.slot_of) != 4:
            raise ValueError("a quadruple routes exactly 4 entries")
        entries = [entry for entry, _ in self.slot_of]
        slots = [slot for _, slot in self.slot_of]
        if len(set(entries)) != 4 or len(set(slots)) != 4:
            raise ValueError(f"entries and slots must each be distinct, got {self.slot_of}")
        if list(entries) != sorted(entries):
            raise ValueError("slot_of must be sorted by entry; use Quadruple.of")

    @classmethod
    def of(cls, cr: int, slot_of: Mapping[Label, SlotId] | Iterable[Label]) -> "Quadruple":
        """Build a quadruple; a plain iterable of labels routes each to itself."""
        if isinstance(slot_of, Mapping):
            items = tuple(sorted(slot_of.items()))
        else:
            items = tuple((label, label) for label in sorted(slot_of))
        return cls(cr, items)

    @property
    def entries(self) -> frozenset[Label]:
        return frozenset(entry for entry, _ in self.slot_of)

    @property
    def slots(self) -> frozenset[SlotId]:
        return frozenset(slot for _, slot in self.slot_of)

    def slot(self, entry: Label) -> SlotId:
        for other, slot in self.slot_of:
            if other == entry:
                return slot
        raise KeyError(entry)


@dataclass(frozen=True, slots=True)
class VertexProfile:
    """The local picture at one vertex: adjacent slots plus cross-ratios."""

    slots: frozenset[SlotId]
    quadruples: tuple[Quadruple, ...]

    def __post_init__(self) -> None:
        crs = [quad.cr for quad in self.quadruples]
        if len(set(crs)) != len(crs):
            raise ValueError("duplicate cross-ratio ids in profile")
        for quad in self.quadruples:
            if not quad.slots <= self.slots:
                raise ValueError(f"quadruple {quad.cr} uses slots outside the profile")

    @classmethod
    def of(
        cls,
        slots: Iterable[SlotId],
        crossratios: Iterable[Iterable[Label]] = (),
    ) -> "VertexProfile":
        """Profile whose cross-ratio entries are slots themselves, ids by position."""
        quads = tuple(Quadruple.of(i, labels) for i, labels in enumerate(crossratios))
        return cls(frozenset(slots), quads)

    def quadruple(self, cr: int) -> Quadruple:
        for quad in self.quadruples:
            if quad.cr == cr:
                return quad
        raise KeyError(cr)

    def check_valence(self) -> None:
        if len(self.slots) != 3 + len(self.quadruples):
            raise StructureError(
                f"vertex has {len(self.slots)} slots but 3 + {len(self.quadruples)} are required"
            )


def resolve_once(
    profile: VertexProfile, target: int, pairing: Pairing
) -> list[tuple[VertexProfile, VertexProfile]]:
    """Resolve one cross-ratio of the profile into an edge.

    Parameters
    ----------
    target : int
        Id of the cross-ratio to resolve; its two pairs end up on
        opposite sides of a new edge, whose slot id (the same in both
        children) is one past the largest slot of ``profile``.
    pairing : Pairing
        Grouping of the target's entries into the two separated pairs.

    Returns
    -------
    list of (VertexProfile, VertexProfile)
        One pair of child profiles per valid partition of the slots,
        the side holding the pairing's first pair first.  Remaining
        cross-ratios follow the side holding at least three of their
        slots, the odd slot out replaced by the new edge.
    """
    profile.check_valence()
    quad = profile.quadruple(target)
    if pairing.entries != quad.entries:
        raise ValueError("pairing does not match the resolved cross-ratio")
    first = frozenset(quad.slot(entry) for entry in pairing.first)
    second = frozenset(quad.slot(entry) for entry in pairing.second)
    rest = sorted(profile.slots - quad.slots)
    new_slot = max(profile.slots) + 1
    others = [q for q in profile.quadruples if q.cr != target]

    def child(side: frozenset[SlotId], routed: list[int]) -> VertexProfile:
        quads = []
        for q in (others[i] for i in routed):
            slot_of = tuple(
                (entry, slot if slot in side else new_slot) for entry, slot in q.slot_of
            )
            quads.append(Quadruple(q.cr, slot_of))
        return VertexProfile(side | {new_slot}, tuple(quads))

    out = []
    for side1, side2, to1, to2 in placements([q.slots for q in others], first, second, rest):
        # Both child valence equations are equivalent given the totals.
        if len(side1) + 1 == 3 + len(to1):
            out.append((child(side1, to1), child(side2, to2)))
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
        for other, split in self.edge_of:
            if other == cr:
                return split
        raise KeyError(cr)


def _grow(
    profile: VertexProfile,
    leaves_of: dict[SlotId, frozenset[SlotId]],
    pairings: Mapping[int, Pairing],
    order: Sequence[int],
    anchor: SlotId,
) -> list[tuple[frozenset[frozenset[SlotId]], dict[int, frozenset[SlotId]]]]:
    if not profile.quadruples:
        return [(frozenset(), {})]
    present = {q.cr for q in profile.quadruples}
    target = next(cr for cr in order if cr in present)
    new_slot = max(profile.slots) + 1
    results = []
    for child1, child2 in resolve_once(profile, target, pairings[target]):
        below1 = frozenset().union(*(leaves_of[s] for s in child1.slots - {new_slot}))
        below2 = frozenset().union(*(leaves_of[s] for s in child2.slots - {new_slot}))
        split = below2 if anchor in below1 else below1
        left = _grow(child1, dict(leaves_of) | {new_slot: below2}, pairings, order, anchor)
        right = _grow(child2, dict(leaves_of) | {new_slot: below1}, pairings, order, anchor)
        for splits1, edges1 in left:
            for splits2, edges2 in right:
                results.append(
                    (splits1 | splits2 | {split}, {target: split, **edges1, **edges2})
                )
    return results


def total_resolutions(
    profile: VertexProfile,
    pairings: Mapping[int, Pairing] | None = None,
    order: Sequence[int] | None = None,
) -> tuple[ResolutionTree, ...]:
    """All trivalent resolutions of the profile, up to tree isomorphism.

    Recursively applies :func:`resolve_once` to every cross-ratio while
    tracking which original slots sit behind each intermediate edge.
    Two resolutions producing the same set of splits describe the same
    tree and are counted once.

    Parameters
    ----------
    pairings : mapping, optional
        Pairing to use per cross-ratio id.  Defaults to the pairing
        grouping each quadruple's two smallest entries.  The resulting
        set of trees does not depend on this choice.
    order : sequence of int, optional
        Resolution order by cross-ratio id; defaults to profile order.
        The result does not depend on it either.

    Returns
    -------
    tuple of ResolutionTree
        Sorted by their split encodings, one tree per split set.
    """
    profile.check_valence()
    chosen = dict(pairings) if pairings else {}
    for quad in profile.quadruples:
        if quad.cr not in chosen:
            chosen[quad.cr] = canonical_pairing(CrossRatio(quad.entries))
    resolution_order = tuple(order) if order is not None else tuple(q.cr for q in profile.quadruples)
    anchor = min(profile.slots)
    leaves_of = {slot: frozenset({slot}) for slot in profile.slots}
    raw = _grow(profile, leaves_of, chosen, resolution_order, anchor)
    by_splits: dict[frozenset[frozenset[SlotId]], ResolutionTree] = {}
    for splits, edges in raw:
        if splits not in by_splits:
            by_splits[splits] = ResolutionTree(
                profile.slots, splits, tuple(sorted(edges.items()))
            )
    ordered = sorted(
        by_splits.values(),
        key=lambda tree: sorted(tuple(sorted(s)) for s in tree.splits),
    )
    return tuple(ordered)


def cross_ratio_multiplicity(profile: VertexProfile) -> int:
    """Number of trivalent resolutions of the vertex.

    Equals 1 for a trivalent vertex without cross-ratios and raises
    :class:`StructureError` whenever the valence equation fails.
    """
    return len(total_resolutions(profile))
