"""Tests for split enumeration along a resolved cross-ratio."""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosskont import (
    CrossRatio,
    Instance,
    Pairing,
    build_subinstances,
    canonical_key,
    enumerate_splits,
    validate,
)
from crosskont.conditions import all_pairings, deficiency, label_rows
from crosskont.splits import (
    ONE_ONE,
    TWO_ZERO_SIDE1_FIXED,
    TWO_ZERO_SIDE2_FIXED,
    Split,
    SplitSide,
    orbit_members,
    orbit_rows,
    route_groups,
)

from corpus import (
    CORPUS,
    SMALL,
    golden_eval_multi_shapes,
    golden_instance,
    one_cross_ratio_family,
    split_nodes,
)

WORKED = Instance.build(
    2, points=[1, 2, 3], lines={4: 1, 5: 1}, crossratios=[[1, 2, 3, 4], [1, 2, 3, 5]]
)

CONTRIBUTING = {(1, 1): ONE_ONE, (0, 2): TWO_ZERO_SIDE1_FIXED, (2, 0): TWO_ZERO_SIDE2_FIXED}


def deficiencies(inst: Instance, *sides: SplitSide) -> tuple[int, ...]:
    """Each side's deficiency, read off its labels' conditions in ``inst``."""
    kinds = lambda side: [inst.condition(x).kind for x in side.labels]
    return tuple(deficiency(side.degree, kinds(side), len(side.crossratios)) for side in sides)


def brute_splits(inst: Instance, last: int, pairing: Pairing) -> set[Split]:
    """Independent enumeration: every label partition, filtered directly.

    Loops over each degree split and each placement of the labels not
    pinned by the pairing, assigns the remaining cross-ratios to the
    side holding at least three of their entries, and keeps the
    partitions whose deficiency vector contributes.
    """
    consumed = set(inst.crossratios[last])
    movable = sorted(set(inst.labels) - consumed)
    found = set()
    for d1 in range(inst.degree + 1):
        for take in range(len(movable) + 1):
            for chosen in itertools.combinations(movable, take):
                side1 = set(pairing.first) | set(chosen)
                side2 = set(inst.labels) - side1
                assignment = _assign(inst, last, side1)
                if assignment is None:
                    continue
                crs1, crs2 = assignment
                s1 = SplitSide(d1, frozenset(side1), frozenset(crs1))
                s2 = SplitSide(inst.degree - d1, frozenset(side2), frozenset(crs2))
                kind = CONTRIBUTING.get(deficiencies(inst, s1, s2))
                if kind is not None:
                    found.add(Split(s1, s2, kind))
    return found


def _assign(inst, last, side1):
    crs1, crs2 = [], []
    for index, cr in enumerate(inst.crossratios):
        if index == last:
            continue
        near = sum(1 for entry in cr if entry in side1)
        if near >= 3:
            crs1.append(index)
        elif 4 - near >= 3:
            crs2.append(index)
        else:
            return None
    return crs1, crs2


def test_respecting_pairing_groups_the_two_smallest_entries():
    assert all_pairings(CrossRatio.of(1, 2, 3, 5))[0] == Pairing.of((1, 2), (3, 5))
    assert all_pairings(CrossRatio.of(6, 4, 2, 1))[0] == Pairing.of((1, 2), (4, 6))
    assert all_pairings(CrossRatio.of(9, 7, 3, 1))[0] == Pairing.of((1, 3), (7, 9))


def test_worked_example_first_resolution():
    splits = enumerate_splits(WORKED, 1, all_pairings(WORKED.crossratios[1])[0])
    assert len(splits) == 1
    split = splits[0]
    assert split.kind == TWO_ZERO_SIDE1_FIXED
    assert split.side1.degree == 1 and split.side1.labels == frozenset({1, 2, 4})
    assert split.side1.crossratios == frozenset({0})
    assert split.side2.degree == 1 and split.side2.labels == frozenset({3, 5})
    assert split.side2.crossratios == frozenset()

    pair = build_subinstances(WORKED, split)
    assert (pair.e1, pair.e2) == (6, 7)
    assert pair.side1 == Instance.build(
        1, points=[1, 2], lines={4: 1}, free=[6], crossratios=[[1, 2, 4, 6]]
    )
    assert pair.side2 == Instance.build(1, points=[3, 7], lines={5: 1})


def test_worked_example_second_resolution():
    inner = Instance.build(1, points=[1, 2], lines={4: 1}, free=[6], crossratios=[[1, 2, 4, 6]])
    splits = enumerate_splits(inner, 0, all_pairings(inner.crossratios[0])[0])
    assert len(splits) == 1
    split = splits[0]
    assert split.kind == ONE_ONE
    assert split.side1.labels == frozenset({1, 2})
    assert split.side2.degree == 0 and split.side2.labels == frozenset({4, 6})

    pair = build_subinstances(inner, split)
    assert (pair.e1, pair.e2) == (7, 8)
    # a 1/1 split hangs a weight-one multi line on both fresh ends
    assert pair.side1 == Instance.build(1, points=[1, 2], lines={7: 1})
    assert pair.side2 == Instance.build(0, lines={4: 1, 8: 1}, free=[6])


def test_enumeration_can_be_empty():
    # the off-pairing pins each pair of the twin cross-ratio on a
    # different side, so no placement keeps three entries together
    inst = Instance.build(1, points=[1, 2], free=[3, 4], crossratios=[[1, 2, 3, 4], [1, 2, 3, 4]])
    assert validate(inst)
    assert enumerate_splits(inst, 1, Pairing.of((1, 3), (2, 4))) == []


def test_pairing_must_match_the_resolved_cross_ratio():
    with pytest.raises(ValueError):
        enumerate_splits(WORKED, 0, Pairing.of((1, 2), (3, 5)))


def test_fresh_labels_sit_above_the_instance():
    splits = enumerate_splits(WORKED, 1, all_pairings(WORKED.crossratios[1])[0])
    pair = build_subinstances(WORKED, splits[0])
    top = max(WORKED.labels)
    assert pair.e1 == top + 1
    assert pair.e2 == top + 2
    assert pair.e1 in pair.side1.labels
    assert pair.e2 in pair.side2.labels


def test_splits_match_brute_force_on_small_instances():
    checked = 0
    for inst in SMALL:
        for last in range(len(inst.crossratios)):
            for pairing in all_pairings(inst.crossratios[last]):
                got = enumerate_splits(inst, last, pairing)
                assert len(set(got)) == len(got)
                assert set(got) == brute_splits(inst, last, pairing)
                checked += 1
    assert checked >= 50


@pytest.mark.parametrize("degree", [3, 4])
def test_splits_match_brute_force_on_the_one_cross_ratio_family(degree):
    # beyond the small corpus: side 1's degree is read off its conditions
    inst = one_cross_ratio_family(degree)
    kept = 0
    for pairing in all_pairings(inst.crossratios[0]):
        got = enumerate_splits(inst, 0, pairing)
        assert len(set(got)) == len(got)
        assert set(got) == brute_splits(inst, 0, pairing)
        kept += len(got)
    assert kept > 0


def _side1_counts(inst: Instance, last: int, split: Split) -> frozenset:
    """How many labels of each (kind, weight, cross-ratio memberships) class side 1 takes."""
    counts = Counter()
    for x in split.side1.labels - inst.crossratios[last].entries:
        cond = inst.condition(x)
        counts[cond.kind, cond.weight, tuple(x in cr for cr in inst.crossratios)] += 1
    return frozenset(counts.items())


def _sub_keys(inst: Instance, split: Split) -> tuple[bytes, bytes]:
    pair = build_subinstances(inst, split)
    return canonical_key(pair.side1), canonical_key(pair.side2)


def test_split_orbits_group_the_label_level_splits():
    cases = 0
    for inst in CORPUS:
        for last in range(len(inst.crossratios)):
            for pairing in all_pairings(inst.crossratios[last]):
                orbits = orbit_rows(inst, last, pairing)
                splits = enumerate_splits(inst, last, pairing)
                assert sum(orbit.weight for orbit in orbits) == len(splits)
                members = defaultdict(list)
                for split in splits:
                    members[_side1_counts(inst, last, split)].append(split)
                assert len(members) == len(orbits)
                for orbit in orbits:
                    rep = orbit.split()
                    expanded = members[_side1_counts(inst, last, rep)]
                    assert rep in expanded
                    assert len(set(expanded)) == len(expanded) == orbit.weight
                    keys = _sub_keys(inst, rep)
                    assert all(_sub_keys(inst, split) == keys for split in expanded)
                cases += 1
    assert cases == 183


def test_sub_instances_are_well_posed():
    for inst in SMALL:
        for last in range(len(inst.crossratios)):
            pairing = all_pairings(inst.crossratios[last])[0]
            for split in enumerate_splits(inst, last, pairing):
                pair = build_subinstances(inst, split)
                assert validate(pair.side1)
                assert validate(pair.side2)


def test_fresh_end_conditions_follow_the_split_kind():
    seen = set()
    for inst in SMALL:
        for last in range(len(inst.crossratios)):
            pairing = all_pairings(inst.crossratios[last])[0]
            for split in enumerate_splits(inst, last, pairing):
                pair = build_subinstances(inst, split)
                kinds = (pair.side1.condition(pair.e1).kind, pair.side2.condition(pair.e2).kind)
                if split.kind == ONE_ONE:
                    assert kinds == ("line", "line")
                    assert pair.side1.condition(pair.e1).weight == 1
                    assert pair.side2.condition(pair.e2).weight == 1
                elif split.kind == TWO_ZERO_SIDE1_FIXED:
                    assert kinds == ("free", "point")
                else:
                    assert kinds == ("point", "free")
                seen.add(split.kind)
    assert ONE_ONE in seen and TWO_ZERO_SIDE1_FIXED in seen


def test_adapted_cross_ratios_swap_far_entries_for_the_fresh_end():
    inst = Instance.build(
        2,
        points=[1, 2, 3, 4],
        lines={5: 2},
        free=[6, 7],
        crossratios=[[1, 2, 3, 5], [3, 4, 5, 6], [1, 2, 4, 7]],
    )
    assert validate(inst)
    for last in range(3):
        pairing = all_pairings(inst.crossratios[last])[0]
        for split in enumerate_splits(inst, last, pairing):
            pair = build_subinstances(inst, split)
            for side, sub, fresh in ((split.side1, pair.side1, pair.e1), (split.side2, pair.side2, pair.e2)):
                assert len(sub.crossratios) == len(side.crossratios)
                for index, adapted in zip(sorted(side.crossratios), sub.crossratios):
                    original = set(inst.crossratios[index])
                    kept = original & side.labels
                    expected = kept if len(kept) == 4 else kept | {fresh}
                    assert set(adapted) == expected


@given(data=st.data())
def test_split_sides_partition_the_labels(data):
    candidates = [inst for inst in SMALL if inst.crossratios]
    inst = data.draw(st.sampled_from(candidates))
    last = data.draw(st.integers(min_value=0, max_value=len(inst.crossratios) - 1))
    pairing = data.draw(st.sampled_from(all_pairings(inst.crossratios[last])))
    for split in enumerate_splits(inst, last, pairing):
        assert split.side1.labels | split.side2.labels == set(inst.labels)
        assert not split.side1.labels & split.side2.labels
        assert set(pairing.first) <= split.side1.labels
        assert set(pairing.second) <= split.side2.labels
        assert split.side1.degree + split.side2.degree == inst.degree
        assert CONTRIBUTING[deficiencies(inst, split.side1, split.side2)] == split.kind


def product_orbits(inst: Instance, last: int, pairing: Pairing) -> list[tuple]:
    """Reference orbits from label sets: every vector of block counts, filtered afterwards.

    Blocks the labels outside the resolved cross-ratio by condition and
    memberships, tries the product of ``range(block size + 1)``, builds
    side 1's labels, routes the other cross-ratios with ``route_groups``,
    keeps each contributing degree and reads both sides' rows off the
    built sub-instances.  Returns (kind, degrees, weight, counts,
    cross-ratios, rows, labels) per orbit, in product order.
    """
    blocks: dict = {}
    for x in inst.labels:
        if x not in inst.crossratios[last]:
            key = (inst.conditions[x], tuple(x in cr for cr in inst.crossratios))
            blocks.setdefault(key, []).append(x)
    blocks = list(blocks.values())
    others = [j for j in range(len(inst.crossratios)) if j != last]
    groups = [inst.crossratios[j].entries for j in others]
    found = []
    for counts in itertools.product(*(range(len(block) + 1) for block in blocks)):
        labels1 = frozenset(pairing.first).union(*(b[:k] for b, k in zip(blocks, counts)))
        labels2 = frozenset(inst.labels) - labels1
        routed = route_groups(groups, labels1)
        if routed is None:
            continue
        crs = tuple(frozenset(others[i] for i in side) for side in routed)
        weight = math.prod(map(math.comb, map(len, blocks), counts))
        for d1 in range(inst.degree + 1):
            degrees = (d1, inst.degree - d1)
            sides = [SplitSide(*args) for args in zip(degrees, (labels1, labels2), crs)]
            kind = CONTRIBUTING.get(deficiencies(inst, *sides))
            if kind is not None:
                pair = build_subinstances(inst, Split(*sides, kind))
                rows = (label_rows(pair.side1), label_rows(pair.side2))
                found.append((kind, degrees, weight, counts, crs, rows, (labels1, labels2)))
    return found


def _kernel_orbits(inst: Instance, last: int, pairing: Pairing) -> list[tuple]:
    found = []
    for orbit in orbit_rows(inst, last, pairing):
        split = orbit.split()
        assert (split.side1.degree, split.side2.degree) == orbit.degrees
        assert (split.side1.crossratios, split.side2.crossratios) == orbit.crossratios
        labels = (split.side1.labels, split.side2.labels)
        shares = (orbit.crossratios, orbit.rows, labels)
        found.append((orbit.kind, orbit.degrees, orbit.weight, orbit.counts, *shares))
    return found


def _check_kernel(inst: Instance, last: int, pairing: Pairing) -> int:
    got = _kernel_orbits(inst, last, pairing)
    assert got == product_orbits(inst, last, pairing)
    return len(got)


def test_orbit_kernel_matches_the_product_loop_on_the_corpus():
    cases = orbits = 0
    for inst in CORPUS:
        for last in range(len(inst.crossratios)):
            for pairing in all_pairings(inst.crossratios[last]):
                orbits += _check_kernel(inst, last, pairing)
                cases += 1
    assert cases == 183 and orbits > cases


@pytest.mark.parametrize("degree", range(2, 8))
def test_orbit_kernel_matches_the_product_loop_on_the_family(degree):
    inst = one_cross_ratio_family(degree, 2, 3)
    assert all(_check_kernel(inst, 0, pairing) for pairing in all_pairings(inst.crossratios[0]))


@pytest.mark.parametrize("shape", golden_eval_multi_shapes(), ids=lambda shape: shape["id"])
def test_orbit_kernel_matches_the_product_loop_on_the_golden_split_nodes(shape):
    checked = 0
    for node, choice in split_nodes(golden_instance(shape)):
        if choice is not None:
            last, pairing, _ = choice
            _check_kernel(node, last, pairing)
            checked += 1
    assert checked


def product_splits(inst: Instance, last: int, pairing: Pairing) -> list[Split]:
    """Reference list: every orbit expanded by the product of its block combinations, then sorted.

    One global sort over all orbits, by side 1's degree, the number of
    labels it takes beside the pinned pair, and those labels.
    """
    splits = []
    for orbit in orbit_rows(inst, last, pairing):
        for chosen in itertools.product(*map(itertools.combinations, orbit.blocks, orbit.counts)):
            labels1 = frozenset(pairing.first).union(*chosen)
            labels = labels1, frozenset(inst.labels) - labels1
            sides = map(SplitSide, orbit.degrees, labels, orbit.crossratios)
            splits.append(Split(*sides, orbit.kind))
    moved = lambda split: sorted(split.side1.labels - set(pairing.first))
    return sorted(splits, key=lambda split: (split.side1.degree, len(m := moved(split)), m))


def _check_members(inst: Instance, last: int, pairing: Pairing) -> int:
    """Compare the lazy expansion with :func:`product_splits`, order included; return its length."""
    expected = product_splits(inst, last, pairing)
    n = 0
    for n, (split, orbit) in enumerate(orbit_members(inst, last, pairing), 1):
        assert split == expected[n - 1]
        assert tuple(len(split.side1.labels.intersection(b)) for b in orbit.blocks) == orbit.counts
    assert n == len(expected)
    return n


def test_orbit_members_keep_the_product_order_on_the_corpus():
    cases = splits = 0
    for inst in CORPUS:
        for last in range(len(inst.crossratios)):
            for pairing in all_pairings(inst.crossratios[last]):
                splits += _check_members(inst, last, pairing)
                assert enumerate_splits(inst, last, pairing) == product_splits(inst, last, pairing)
                cases += 1
    assert cases == 183 and splits > cases


@pytest.mark.parametrize("degree", range(2, 8))
def test_orbit_members_keep_the_product_order_on_the_family(degree):
    # at d = 7 (2^17 splits a pairing, 5 s each) only the pairing the engine resolves
    inst = one_cross_ratio_family(degree, 2, 3)
    pairings = all_pairings(inst.crossratios[0])[: 1 if degree == 7 else 3]
    assert all(_check_members(inst, 0, pairing) for pairing in pairings)


@pytest.mark.parametrize("shape", golden_eval_multi_shapes(), ids=lambda shape: shape["id"])
def test_orbit_members_keep_the_product_order_on_the_golden_split_nodes(shape):
    checked = 0
    for node, choice in split_nodes(golden_instance(shape)):
        if choice is not None:
            last, pairing, _ = choice
            _check_members(node, last, pairing)
            checked += 1
    assert checked
