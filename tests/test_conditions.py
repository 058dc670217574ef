"""Tests for condition data: cross-ratios, pairings, instances, keys."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosskont import CrossRatio, Instance, Pairing, canonical_key, validate
from crosskont.conditions import EndCondition, all_pairings

from corpus import CORPUS


def test_cross_ratio_entries_form_a_set():
    cr = CrossRatio.of(4, 1, 3, 2)
    assert list(cr) == [1, 2, 3, 4]
    assert 3 in cr
    assert 5 not in cr
    assert cr == CrossRatio.of(1, 2, 3, 4)


def test_cross_ratio_requires_four_distinct_entries():
    with pytest.raises(ValueError):
        CrossRatio.of(1, 2, 3, 3)
    with pytest.raises(ValueError):
        CrossRatio.of(1, 2, 3)


def test_pairing_normal_form_orders_pairs_and_sides():
    swapped = Pairing.of((3, 4), (1, 2))
    assert swapped == Pairing.of((1, 2), (3, 4))
    assert swapped.first == (1, 2)
    assert Pairing.of((4, 3), (2, 1)).second == (3, 4)


def test_pairing_rejects_overlapping_pairs():
    with pytest.raises(ValueError):
        Pairing.of((1, 2), (2, 3))


def test_all_pairings_cover_the_three_groupings():
    cr = CrossRatio.of(1, 2, 3, 5)
    groups = all_pairings(cr)
    assert len(set(groups)) == 3
    for pairing in groups:
        assert set(pairing.entries) == set(cr)
    assert groups[0] == Pairing.of((1, 2), (3, 5))


def test_end_condition_weights():
    assert EndCondition.point().weight == 1
    assert EndCondition.line(3).weight == 3
    assert EndCondition.free().weight == 1
    with pytest.raises(ValueError):
        EndCondition("point", 0)
    with pytest.raises(ValueError):
        EndCondition("bogus")


def test_build_collects_conditions_by_label():
    inst = Instance.build(
        2, points=[3, 1, 2], lines={4: 2, 5: 3}, crossratios=[[1, 2, 3, 4]]
    )
    assert inst.points == (1, 2, 3)
    assert inst.lines == (4, 5)
    assert inst.free == ()
    assert inst.condition(5).weight == 3
    assert inst.condition(1).kind == "point"


def test_build_rejects_bad_labels():
    with pytest.raises(ValueError):
        Instance.build(1, points=[1, 1])
    with pytest.raises(ValueError):
        Instance.build(1, points=[0, 2])


def test_constructor_takes_conditions_in_any_label_order():
    point = EndCondition.point()
    raw = Instance(
        2,
        {5: EndCondition.line(3), 1: point, 4: EndCondition.line(2), 3: point, 2: point},
        (CrossRatio.of(1, 2, 3, 4),),
    )
    built = Instance.build(2, points=[3, 1, 2], lines={4: 2, 5: 3}, crossratios=[[1, 2, 3, 4]])
    assert raw == built
    assert raw.labels == (1, 2, 3, 4, 5)
    assert raw.lines == (4, 5)
    with pytest.raises(TypeError):
        raw.conditions[6] = EndCondition.free()
    with pytest.raises(ValueError):
        Instance(1, {2: point, 0: point}, ())


def test_relabel_moves_conditions_and_crossratios():
    inst = Instance.build(
        1, points=[1, 2], lines={3: 2}, free=[4], crossratios=[[1, 2, 3, 4]]
    )
    moved = inst.relabel({1: 10, 2: 20, 3: 30, 4: 40})
    assert moved.points == (10, 20)
    assert moved.condition(30).weight == 2
    assert moved.crossratios[0] == CrossRatio.of(10, 20, 30, 40)
    with pytest.raises(ValueError):
        inst.relabel({1: 9, 2: 9, 3: 3, 4: 4})


def test_validate_accepts_well_posed_instances():
    assert validate(Instance.build(1, points=[1, 2]))
    assert validate(Instance.build(2, points=[1, 2, 3, 4, 5], lines={6: 2}))
    assert validate(
        Instance.build(0, lines={1: 1, 2: 1}, free=[3, 4], crossratios=[[1, 2, 3, 4]])
    )


def test_validate_names_the_dimension_equation():
    report = validate(Instance.build(1, points=[1], free=[2]))
    assert not report
    assert "3*1 - 1 = 2" in report.reason
    assert "#points + #crossratios - #free" in report.reason


def test_validate_flags_stray_cross_ratio_entries():
    inst = Instance.build(2, points=[1, 2, 3, 4], free=[5], crossratios=[[1, 2, 3, 9]])
    report = validate(inst)
    assert not report
    assert "9" in report.reason


def test_validate_ignores_multi_line_count():
    # multi lines do not enter the dimension count
    for weights in ({}, {6: 1}, {6: 2, 7: 1}, {6: 1, 7: 1, 8: 1}):
        inst = Instance.build(2, points=[1, 2, 3, 4, 5], lines=weights)
        assert validate(inst)


def _key_of_permuted(inst: Instance, perm: tuple[int, ...]) -> object:
    labels = sorted(inst.labels)
    return canonical_key(inst.relabel(dict(zip(labels, perm))))


def test_canonical_key_invariant_under_all_permutations_of_small_instances():
    small = [inst for inst in CORPUS if len(inst.labels) <= 6][:8]
    assert small
    for inst in small:
        key = canonical_key(inst)
        for perm in itertools.permutations(sorted(inst.labels)):
            assert _key_of_permuted(inst, perm) == key


def test_canonical_key_separates_weights_and_kinds():
    a = Instance.build(1, points=[1, 2], lines={3: 1})
    b = Instance.build(1, points=[1, 2], lines={3: 2})
    c = Instance.build(1, points=[1, 2])
    assert canonical_key(a) != canonical_key(b)
    assert canonical_key(a) != canonical_key(c)


def test_canonical_key_separates_cross_ratio_shape():
    a = Instance.build(
        2, points=[1, 2, 3], lines={4: 1, 5: 1}, crossratios=[[1, 2, 3, 4], [1, 2, 3, 5]]
    )
    b = Instance.build(
        2, points=[1, 2, 3], lines={4: 1, 5: 1}, crossratios=[[1, 2, 3, 4], [1, 2, 4, 5]]
    )
    assert canonical_key(a) != canonical_key(b)


def test_canonical_key_ignores_cross_ratio_listing_order():
    a = Instance.build(
        2, points=[1, 2, 3], lines={4: 1, 5: 1}, crossratios=[[1, 2, 3, 4], [1, 2, 3, 5]]
    )
    b = Instance.build(
        2, points=[1, 2, 3], lines={4: 1, 5: 1}, crossratios=[[1, 2, 3, 5], [1, 2, 3, 4]]
    )
    assert canonical_key(a) == canonical_key(b)


def _same_instance_up_to_cr_order(a: Instance, b: Instance) -> bool:
    crs = lambda inst: sorted(tuple(sorted(cr)) for cr in inst.crossratios)
    return a.degree == b.degree and a.conditions == b.conditions and crs(a) == crs(b)


def _isomorphic(a: Instance, b: Instance) -> bool:
    if a.degree != b.degree or len(a.labels) != len(b.labels):
        return False
    la, lb = sorted(a.labels), sorted(b.labels)
    return any(
        _same_instance_up_to_cr_order(a.relabel(dict(zip(la, perm))), b)
        for perm in itertools.permutations(lb)
    )


def test_canonical_key_collision_free_on_small_corpus():
    small = [inst for inst in CORPUS if len(inst.labels) <= 5]
    assert len(small) >= 6
    for a, b in itertools.combinations(small, 2):
        if canonical_key(a) == canonical_key(b):
            assert _isomorphic(a, b)


@given(data=st.data())
def test_canonical_key_invariant_under_random_relabelling(data):
    inst = data.draw(st.sampled_from(CORPUS))
    labels = sorted(inst.labels)
    perm = data.draw(st.permutations(labels))
    assert _key_of_permuted(inst, tuple(perm)) == canonical_key(inst)


@st.composite
def _tied_instances(draw) -> Instance:
    """At most 7 labels and 2-4 cross-ratios, mostly weight-1 lines, so signatures tie."""
    n = draw(st.integers(4, 7))
    kinds = draw(st.lists(st.sampled_from("LLLLpf"), min_size=n, max_size=n))
    crossratios = draw(
        st.lists(st.sets(st.integers(1, n), min_size=4, max_size=4), min_size=2, max_size=4)
    )
    of_kind = lambda kind: [label for label, k in enumerate(kinds, 1) if k == kind]
    return Instance.build(
        2,
        points=of_kind("p"),
        lines=dict.fromkeys(of_kind("L"), 1),
        free=of_kind("f"),
        crossratios=crossratios,
    )


@given(data=st.data())
def test_canonical_key_is_exact_where_signatures_tie(data):
    inst = data.draw(_tied_instances())
    labels = sorted(inst.labels)
    size = len(labels)
    image = data.draw(st.lists(st.integers(1, 20), min_size=size, max_size=size, unique=True))
    moved = inst.relabel(dict(zip(labels, image)))
    listing = tuple(data.draw(st.permutations(moved.crossratios)))
    assert canonical_key(Instance(moved.degree, moved.conditions, listing)) == canonical_key(inst)
    other = data.draw(_tied_instances())
    assert (canonical_key(other) == canonical_key(inst)) == _isomorphic(inst, other)


def _in_capped_child(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a child process that caps its own address space at 1 GiB."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    capped = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    return subprocess.run(
        [sys.executable, "-c", capped + script], capture_output=True, text=True, env=env, timeout=60
    )


# Three disjoint cross-ratios on 12 points: 12! label arrangements for a
# search over label permutations.  Run capped, so a key that enumerates
# them fails there instead of exhausting the machine.
_TWELVE_POINTS = """
from crosskont import Instance, canonical_key
points = range(1, 13)
disjoint = Instance.build(4, points=points, crossratios=[range(1, 5), range(5, 9), range(9, 13)])
moved = disjoint.relabel(dict(zip(points, [7, 12, 1, 9, 3, 10, 5, 2, 11, 4, 8, 6])))
moved = Instance(moved.degree, moved.conditions, moved.crossratios[::-1])
chained = Instance.build(4, points=points, crossratios=[range(1, 5), range(4, 8), range(9, 13)])
key = canonical_key(disjoint)
print(canonical_key(moved) == key, canonical_key(chained) == key)
"""


def test_canonical_key_of_twelve_points_in_three_cross_ratios():
    out = _in_capped_child(_TWELVE_POINTS)
    assert out.stdout.split() == ["True", "False"], out.stderr[-500:]


# Fifteen windows {i..i+3} over 18 labels, points at both ends (a d=6
# instance): the nine interior windows share one signature, 9! * 2^3
# listings in all.  Past the bound the key keeps one listing, so an
# order-preserving rename still shares it, and moving one entry of a
# window still tells the chains apart.
_WINDOW_CHAIN = """
from crosskont import Instance, canonical_key, validate
def chain(windows):
    return Instance.build(
        6, points=[1, 18], lines=dict.fromkeys(range(2, 18), 1), crossratios=windows
    )
windows = [range(i, i + 4) for i in range(1, 16)]
assert validate(chain(windows)).ok
key = canonical_key(chain(windows))
renamed = chain(windows).relabel({label: 10 * label for label in range(1, 19)})
moved = chain(windows[:7] + [(8, 9, 10, 12)] + windows[8:])
print(canonical_key(renamed) == key, canonical_key(moved) == key)
"""


def test_canonical_key_of_a_long_window_chain_is_bounded():
    out = _in_capped_child(_WINDOW_CHAIN)
    assert out.stdout.split() == ["True", "False"], out.stderr[-500:]


@given(data=st.data())
def test_validate_is_relabel_invariant(data):
    inst = data.draw(st.sampled_from(CORPUS))
    labels = sorted(inst.labels)
    perm = data.draw(st.permutations(labels))
    moved = inst.relabel(dict(zip(labels, perm)))
    assert validate(moved).ok == validate(inst).ok
