"""Tests for the resolution engine behind cross-ratio multiplicities."""

from __future__ import annotations

import itertools
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosskont import (
    CrossRatio,
    Pairing,
    StructureError,
    VertexProfile,
    cross_ratio_multiplicity,
    total_resolutions,
    resolve_once,
)
from crosskont import resolution
from crosskont.conditions import all_pairings
from crosskont.resolution import _BLOCK
from crosskont.splits import route_groups

from corpus import golden_multcr_shapes

FIVE = ([1, 2, 3, 4, 5], [[1, 2, 3, 4], [1, 2, 3, 5]])
SIX = ([1, 2, 3, 4, 5, 6], [[1, 2, 5, 6], [3, 4, 5, 6], [1, 2, 3, 4]])


def profile(slots, crossratios):
    return VertexProfile.of(slots, crossratios)


def all_trivalent_trees(leaves):
    """All trivalent trees on the leaves, as frozensets of bipartitions.

    Grows trees by attaching each new leaf to every edge of every
    smaller tree; a bipartition records the leaves on one side of an
    internal edge (the side not containing the first leaf).
    """
    leaves = list(leaves)
    adj = {"i0": set(leaves[:3]), **{leaf: {"i0"} for leaf in leaves[:3]}}
    grown = [adj]
    for k, leaf in enumerate(leaves[3:], start=1):
        next_round = []
        for adj in grown:
            edges = {frozenset((u, v)) for u, nbrs in adj.items() for v in nbrs}
            for edge in edges:
                u, v = tuple(edge)
                new = {node: set(nbrs) for node, nbrs in adj.items()}
                mid = f"m{k}"
                new[u].discard(v)
                new[v].discard(u)
                new[u].add(mid)
                new[v].add(mid)
                new[mid] = {u, v, leaf}
                new[leaf] = {mid}
                next_round.append(new)
        grown = next_round
    trees = set()
    for adj in grown:
        splits = set()
        internal = [n for n in adj if isinstance(n, str)]
        for u, v in itertools.combinations(internal, 2):
            if v not in adj[u]:
                continue
            seen, stack, side = {u, v}, [u], set()
            while stack:
                node = stack.pop()
                if not isinstance(node, str):
                    side.add(node)
                for nb in adj[node]:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            if leaves[0] in side:
                side = set(leaves) - side
            splits.add(frozenset(side))
        trees.add(frozenset(splits))
    return trees


def separates(split: frozenset, pairing: Pairing, slots) -> bool:
    first, second = set(pairing.first), set(pairing.second)
    rest = set(slots) - split
    return (first <= split and second <= rest) or (second <= split and first <= rest)


def admits_matching(splits, crossratios, slots) -> bool:
    splits = list(splits)
    pairings = [all_pairings(CrossRatio.of(*cr))[0] for cr in crossratios]
    return any(
        all(separates(splits[j], pairings[i], slots) for i, j in enumerate(assign))
        for assign in itertools.permutations(range(len(splits)), len(pairings))
    )


def test_resolve_once_five_slots_has_a_unique_split():
    prof = profile(*FIVE)
    children = resolve_once(prof, 0, all_pairings(CrossRatio.of(1, 2, 3, 4))[0])
    assert len(children) == 1
    left, right = children[0]
    sides = {frozenset(left.slots), frozenset(right.slots)}
    # slot 6 is the fresh edge, present in both children
    assert sides == {frozenset({1, 2, 5, 6}), frozenset({3, 4, 6})}


def test_resolve_once_discards_starved_sides():
    # putting 5 on the far side leaves the second cross-ratio with only
    # two entries near the first pair, so only one partition survives
    prof = profile(*FIVE)
    children = resolve_once(prof, 0, Pairing.of((1, 2), (3, 4)))
    for left, right in children:
        for child in (left, right):
            for table in child.routes.values():
                assert len(set(table.values())) == 4


def test_resolve_once_brute_matches_partition_count():
    # resolving the first cross-ratio of the six-slot profile: of the
    # four ways to place slots 3 and 4, exactly two leave every other
    # cross-ratio with at least three entries on one side
    prof = profile(*SIX)
    children = resolve_once(prof, 0, all_pairings(CrossRatio.of(1, 2, 5, 6))[0])
    assert len(children) == 2


def _placement_loop(prof, target, pairing):
    """Reference resolver: route every subset of the free slots, then check side 1's valence."""
    table = prof.routes[target]
    first = frozenset(table[entry] for entry in pairing.first)
    second = frozenset(table[entry] for entry in pairing.second)
    rest = sorted(prof.slots - first - second)
    new_slot = max(prof.slots) + 1
    others = [(cr, table) for cr, table in prof.routes.items() if cr != target]
    groups = [frozenset(table.values()) for _, table in others]

    def child(side, routed):
        routes = {}
        for cr, table in (others[i] for i in routed):
            routes[cr] = {entry: s if s in side else new_slot for entry, s in table.items()}
        return VertexProfile(side | {new_slot}, routes)

    out = []
    for k in range(len(rest) + 1):
        for chosen in itertools.combinations(rest, k):
            side1 = first | frozenset(chosen)
            routed = route_groups(groups, side1)
            if routed is None:
                continue
            to1, to2 = routed
            side2 = second | (frozenset(rest) - side1)
            if len(side1) + 1 == 3 + len(to1):
                out.append((child(side1, to1), child(side2, to2)))
    return out


def _small_profiles():
    """The criterion-6 profiles with at most two cross-ratios, each target under all pairings."""
    for r in range(1, 3):
        slots = tuple(range(1, 4 + r))
        for crs in itertools.combinations_with_replacement(itertools.combinations(slots, 4), r):
            prof = VertexProfile.of(slots, crs)
            for target, cr in enumerate(crs):
                for pairing in all_pairings(CrossRatio.of(*cr)):
                    yield prof, target, pairing


def _golden_profiles():
    """Every target of the golden multcr profiles, under its default pairing."""
    for shape in golden_multcr_shapes():
        prof = VertexProfile.of(shape["slots"], shape["crossratios"])
        for target, cr in enumerate(shape["crossratios"]):
            yield prof, target, all_pairings(CrossRatio.of(*cr))[0]


def _unsorted_profile():
    """An r = 4 profile whose cross-ratio 0, default pairing, the kernel keeps out of order."""
    crs = [[1, 2, 3, 4], [1, 2, 5, 7], [1, 3, 5, 6], [3, 4, 5, 7]]
    prof = VertexProfile.of(range(1, 8), crs)
    for target, cr in enumerate(crs):
        for pairing in all_pairings(CrossRatio.of(*cr)):
            yield prof, target, pairing


@pytest.mark.parametrize("cases", [_small_profiles, _unsorted_profile, _golden_profiles])
def test_resolve_once_matches_the_placement_loop(cases):
    checked = widest = 0
    for prof, target, pairing in cases():
        assert resolve_once(prof, target, pairing) == _placement_loop(prof, target, pairing)
        checked += 1
        widest = max(widest, len(prof.slots) - 4)
    assert checked == {_small_profiles: 93, _unsorted_profile: 12, _golden_profiles: 154}[cases]
    # the golden r = 14 shapes have more free slots than one block, so the outer loop runs
    assert (widest > _BLOCK) == (cases is _golden_profiles)


SLOT_IDS = st.one_of(
    st.integers(-60, 60), st.integers(10**6, 10**6 + 60), st.integers(-(10**12), 10**12)
)


@st.composite
def scattered_profiles(draw):
    """r = 1..6 random cross-ratios over 3 + r slot ids that are scattered, large or negative."""
    r = draw(st.integers(min_value=1, max_value=6))
    slots = draw(st.lists(SLOT_IDS, min_size=3 + r, max_size=3 + r, unique=True))
    quads = st.lists(st.sampled_from(slots), min_size=4, max_size=4, unique=True)
    return slots, draw(st.lists(quads, min_size=r, max_size=r))


@given(scattered_profiles(), st.integers(min_value=0, max_value=_BLOCK))
def test_resolve_once_keeps_the_placement_loop_order_on_any_slot_ids(prof_data, width):
    # a narrow block sends the remaining free slots through the outer loop
    slots, crs = prof_data
    prof = VertexProfile.of(slots, crs)
    with mock.patch.object(resolution, "_BLOCK", width):
        for target, cr in enumerate(crs):
            for pairing in all_pairings(CrossRatio.of(*cr)):
                expected = _placement_loop(prof, target, pairing)
                assert resolve_once(prof, target, pairing) == expected


@pytest.mark.parametrize("width, block, bound", [(19, _BLOCK, 2**20), (14, 0, 2**19)])
def test_resolve_once_memory_is_bounded_by_the_block(width, block, bound):
    # r = width + 1 leaves width free slots; each chain cross-ratio holds one slot of the first
    # pair and two neighbouring free slots, so only all-in and all-out survive the filter.  With
    # no block, all 2**width subsets of the free slots go through the outer loop one at a time.
    free = list(range(4, 4 + width))
    chain = [[0, 2, a, b] for a, b in zip(free, free[1:])] + [[1, 3, free[0], free[-1]]]
    prof = VertexProfile.of(range(4 + width), [[0, 1, 2, 3], *chain])
    tracemalloc.start()
    try:
        with mock.patch.object(resolution, "_BLOCK", block):
            start = time.perf_counter()
            children = resolve_once(prof, 0, Pairing.of((0, 1), (2, 3)))
            elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    new = 4 + width
    assert [sorted(left.slots) for left, _ in children] == [[0, 1, new], [0, 1, *free, new]]
    assert peak < bound, peak
    assert elapsed < 5, elapsed


def test_golden_multcr_counts():
    shapes = golden_multcr_shapes()
    assert len(shapes) == 14
    for shape in shapes:
        prof = VertexProfile.of(shape["slots"], shape["crossratios"])
        assert cross_ratio_multiplicity(prof) == shape["count"], shape["id"]


def test_the_count_resolves_isomorphic_sub_profiles_once():
    # the r = 14 golden shapes meet many sub-profiles that are equal up to relabelling
    shapes = [s for s in golden_multcr_shapes() if len(s["crossratios"]) == 14]
    assert len(shapes) == 2
    calls = {}
    for name, func in (("count", cross_ratio_multiplicity), ("trees", total_resolutions)):
        with mock.patch.object(resolution, "_sides", wraps=resolution._sides) as spy:
            for shape in shapes:
                func(VertexProfile.of(shape["slots"], shape["crossratios"]))
        calls[name] = spy.call_count
    assert calls["count"] < calls["trees"] / 2, calls


@pytest.mark.parametrize("func", [cross_ratio_multiplicity, total_resolutions])
def test_the_count_builds_no_profile_below_the_root(func):
    # the trees recurse on masks through _sides as the count does
    shapes = golden_multcr_shapes()
    real = VertexProfile.__post_init__
    with mock.patch.object(VertexProfile, "__post_init__", autospec=True, side_effect=real) as built, \
            mock.patch.object(resolution, "resolve_once", wraps=resolve_once) as resolved:
        for shape in shapes:
            func(VertexProfile.of(shape["slots"], shape["crossratios"]))
    assert (resolved.call_count, built.call_count) == (0, len(shapes))


@st.composite
def relabelled_profiles(draw):
    """A scattered profile plus an order-preserving and a scrambled relabelling of it."""
    slots, crs = draw(scattered_profiles())
    image = sorted(draw(st.lists(SLOT_IDS, min_size=len(slots), max_size=len(slots), unique=True)))
    kept = dict(zip(sorted(slots), image))
    scrambled = dict(zip(slots, draw(st.permutations(image))))
    shuffled = draw(st.permutations(crs))
    return [
        VertexProfile.of(slots, crs),
        VertexProfile.of(map(kept.get, slots), [map(kept.get, cr) for cr in crs]),
        VertexProfile.of(map(scrambled.get, slots), [map(scrambled.get, cr) for cr in shuffled]),
    ]


@given(relabelled_profiles())
def test_count_equals_the_trees_under_any_relabelling(profs):
    counts = [cross_ratio_multiplicity(prof) for prof in profs]
    assert counts == [len(total_resolutions(prof)) for prof in profs]
    assert len(set(counts)) == 1, counts


@given(scattered_profiles(), st.integers(min_value=0, max_value=_BLOCK))
def test_count_equals_the_trees_past_any_block_width(prof_data, width):
    # a narrow block sends the count's free slots through the kernel's outer loop too
    prof = VertexProfile.of(*prof_data)
    trees = len(total_resolutions(prof))
    with mock.patch.object(resolution, "_BLOCK", width):
        assert cross_ratio_multiplicity(prof) == trees


def test_total_resolutions_five_slot_example():
    trees = total_resolutions(profile(*FIVE))
    assert len(trees) == 1
    assert cross_ratio_multiplicity(profile(*FIVE)) == 1


def test_total_resolutions_six_slot_example():
    trees = total_resolutions(profile(*SIX))
    assert len(trees) == 2
    assert trees[0].splits != trees[1].splits
    assert cross_ratio_multiplicity(profile(*SIX)) == 2


def test_empty_profile_counts_one():
    prof = profile([1, 2, 3], [])
    assert cross_ratio_multiplicity(prof) == 1
    (tree,) = total_resolutions(prof)
    assert not tree.splits


def test_duplicate_quadruples_cannot_resolve():
    prof = profile([1, 2, 3, 4, 5], [[1, 2, 3, 4], [1, 2, 3, 4]])
    assert cross_ratio_multiplicity(prof) == 0


def test_order_must_name_every_cross_ratio():
    prof = profile(*FIVE)
    with pytest.raises(ValueError, match=r"order leaves out cross-ratios \[1\]"):
        total_resolutions(prof, order=[0])
    # repeats and ids not in the profile are ignored
    assert total_resolutions(prof, order=[1, 7, 1, 0]) == total_resolutions(prof, order=[1, 0])


def test_a_pairing_of_other_entries_raises():
    with pytest.raises(ValueError, match="pairing does not match the resolved cross-ratio"):
        total_resolutions(profile(*FIVE), pairings={1: Pairing.of((1, 2), (3, 4))})


def test_valence_mismatch_raises():
    with pytest.raises(StructureError):
        cross_ratio_multiplicity(profile([1, 2, 3, 4, 5], [[1, 2, 3, 4]]))
    with pytest.raises(StructureError):
        cross_ratio_multiplicity(profile([1, 2, 3, 4], [[1, 2, 3, 4], [1, 2, 3, 4]]))


def test_trees_have_one_split_per_cross_ratio():
    for slots, crs in (FIVE, SIX):
        for tree in total_resolutions(profile(slots, crs)):
            assert len(tree.splits) == len(crs)
            for cr in range(len(crs)):
                assert tree.split_for(cr) in tree.splits


def test_resolved_trees_separate_every_pairing():
    for slots, crs in (FIVE, SIX):
        prof = profile(slots, crs)
        for tree in total_resolutions(prof):
            for i, cr in enumerate(crs):
                split = tree.split_for(i)
                assert separates(split, all_pairings(CrossRatio.of(*cr))[0], slots)


def test_resolved_trees_are_trivalent_trees():
    # every resolution is one of the abstract trivalent trees on the
    # slot set, and no tree is reported twice
    for slots, crs in (FIVE, SIX):
        catalogue = all_trivalent_trees(slots)
        normal = lambda split: split if 1 not in split else frozenset(slots) - split
        seen = set()
        for tree in total_resolutions(profile(slots, crs)):
            shape = frozenset(normal(s) for s in tree.splits)
            assert shape in catalogue
            assert shape not in seen
            seen.add(shape)


def test_count_is_bounded_by_matching_trees():
    # a resolved tree always has an edge separating each cross-ratio,
    # so the count never exceeds the number of trees admitting such an
    # assignment (the converse fails: resolutions are order-sequential)
    for slots, crs in (FIVE, SIX):
        count = cross_ratio_multiplicity(profile(slots, crs))
        trees = [t for t in all_trivalent_trees(slots) if admits_matching(t, crs, slots)]
        assert count <= len(trees)


def test_count_is_bounded_by_all_trees():
    for slots, crs in (FIVE, SIX):
        n = len(slots)
        bound = 1
        for odd in range(3, 2 * n - 4, 2):
            bound *= odd
        assert cross_ratio_multiplicity(profile(slots, crs)) <= bound


@st.composite
def profiles(draw):
    r = draw(st.integers(min_value=0, max_value=3))
    slots = list(range(1, 4 + r))
    quads = list(itertools.combinations(slots, 4))
    crs = draw(
        st.lists(st.sampled_from(quads), min_size=r, max_size=r, unique=True)
        if quads
        else st.just([])
    )
    return slots, [list(q) for q in crs]


def split_sets(prof, **choices):
    return {tree.splits for tree in total_resolutions(prof, **choices)}


@given(profiles())
def test_count_invariant_under_order_and_pairing(prof_data):
    # the twin renames every entry x to x + 100 but routes it to slot x,
    # so its pairings must be followed through the routing tables
    slots, crs = prof_data
    prof = profile(slots, crs)
    twin = VertexProfile(slots, {i: {x + 100: x for x in cr} for i, cr in enumerate(crs)})
    baseline = len(total_resolutions(prof))
    for order in itertools.permutations(range(len(crs))):
        trees = split_sets(prof, order=order)
        assert len(trees) == baseline
        assert split_sets(twin, order=order) == trees
    for combo in itertools.product(*(all_pairings(CrossRatio.of(*cr)) for cr in crs)):
        pairings = dict(enumerate(combo))
        trees = split_sets(prof, pairings=pairings)
        assert len(trees) == baseline
        renamed = {
            i: Pairing.of([x + 100 for x in p.first], [x + 100 for x in p.second])
            for i, p in pairings.items()
        }
        assert split_sets(twin, pairings=renamed) == trees


@given(profiles())
def test_every_tree_separates_its_pairings(prof_data):
    slots, crs = prof_data
    for tree in total_resolutions(profile(slots, crs)):
        for i, cr in enumerate(crs):
            assert separates(tree.split_for(i), all_pairings(CrossRatio.of(*cr))[0], slots)
