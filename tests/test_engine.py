"""Tests for the counting engine: base cases, recursion, invariance."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosskont import (
    Instance,
    Pairing,
    ResourceLimitError,
    ValidationError,
    evaluate,
    evaluate_invariance_battery,
    kontsevich,
)
from crosskont.conditions import FREE, LINE, all_pairings, canonical_key, label_rows, rows_key
from crosskont.engine import (
    Engine,
    _isolates,
    _zero_side,
    base_degree_zero,
    base_from_rows,
    base_no_crossratios,
    resolution_choices,
)
from crosskont import engine as engine_module
from crosskont.resolution import VertexProfile, cross_ratio_multiplicity
from crosskont.splits import ONE_ONE, TWO_ZERO_SIDE1_FIXED, build_subinstances, orbit_members

from corpus import (
    CORPUS,
    SMALL,
    golden_eval_multi_shapes,
    golden_instance,
    one_cross_ratio_family,
    orbit_splits,
    resolved_in_reverse,
    split_nodes,
    weight_one_classes,
)

WORKED = Instance.build(
    2, points=[1, 2, 3], lines={4: 1, 5: 1}, crossratios=[[1, 2, 3, 4], [1, 2, 3, 5]]
)
WORKED23 = Instance.build(
    2, points=[1, 2, 3], lines={4: 2, 5: 3}, crossratios=[[1, 2, 3, 4], [1, 2, 3, 5]]
)

KNOWN_COUNTS = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976}


def test_kontsevich_known_values():
    for degree, expected in KNOWN_COUNTS.items():
        assert kontsevich(degree) == expected


def test_kontsevich_rejects_nonpositive_degrees():
    with pytest.raises(ValueError):
        kontsevich(0)
    with pytest.raises(ValueError):
        kontsevich(-2)


def test_kontsevich_matches_the_standalone_table():
    script = Path(__file__).resolve().parent.parent / "tools" / "kontsevich_oracle.py"
    out = subprocess.run(
        [sys.executable, str(script), "6"], capture_output=True, text=True, check=True
    )
    for line in out.stdout.splitlines():
        degree, value = line.split()
        assert kontsevich(int(degree)) == int(value)


def test_point_only_instances_reduce_to_the_table():
    assert evaluate(Instance.build(1, points=[1, 2])) == 1
    assert evaluate(Instance.build(2, points=[1, 2, 3, 4, 5])) == 1
    assert evaluate(Instance.build(3, points=list(range(1, 9)))) == 12


def test_multi_lines_scale_the_table_by_weight_times_degree():
    assert evaluate(Instance.build(1, points=[1, 2], lines={3: 5})) == 5
    assert (
        evaluate(Instance.build(2, points=[1, 2, 3, 4, 5], lines={6: 2, 7: 3}))
        == 1 * (2 * 2) * (3 * 2)
    )
    assert (
        evaluate(Instance.build(3, points=list(range(1, 9)), lines={9: 1, 10: 2}))
        == 12 * (1 * 3) * (2 * 3)
    )


def test_free_ends_without_cross_ratios_leave_nothing_rigid():
    assert evaluate(Instance.build(1, points=[1, 2, 3], free=[4])) == 0
    assert evaluate(Instance.build(2, points=[1, 2, 3, 4, 5, 6], free=[7])) == 0


THREE_CROSSRATIOS = [[1, 2, 3, 4], [1, 2, 5, 6], [3, 4, 5, 6]]

RIGID_STARS = [
    (Instance.build(0, lines={1: 2, 2: 3}, free=[3]), 6),
    (Instance.build(0, points=[1], free=[2, 3]), 1),
    (Instance.build(0, lines={1: 2, 2: 3}, free=[3, 4], crossratios=[[1, 2, 3, 4]]), 6),
    (Instance.build(0, points=[1], free=[2, 3, 4], crossratios=[[1, 2, 3, 4]]), 1),
    # three cross-ratios with cross_ratio_multiplicity 2
    (Instance.build(0, lines={1: 2, 2: 3}, free=[3, 4, 5, 6], crossratios=THREE_CROSSRATIOS), 12),
    (Instance.build(0, points=[1], free=[2, 3, 4, 5, 6], crossratios=THREE_CROSSRATIOS), 2),
]

LOOSE_STARS = [
    Instance.build(0, points=[1], lines={2: 2}, free=[3, 4]),
    Instance.build(0, points=[1, 2], free=[3, 4, 5]),
    Instance.build(0, lines={1: 3}, free=[2]),
    Instance.build(0, lines={1: 1, 2: 1, 3: 1}, free=[4]),
]


def test_degree_zero_rigid_stars():
    for inst, count in RIGID_STARS:
        assert evaluate(inst) == count


def test_degree_zero_loose_shapes_count_zero():
    for inst in LOOSE_STARS:
        assert evaluate(inst) == 0


def _star_by_labels(inst: Instance) -> int:
    """The label-level star rule that :func:`base_from_rows` took over, kept as a reference.

    It states the rigid shapes itself: (points, lines, free ends) is
    (0, 2, r + 1) or (1, 0, r + 2) for r cross-ratios; any other star counts 0.
    """
    r = len(inst.crossratios)
    if (len(inst.points), len(inst.lines), len(inst.free)) not in ((0, 2, r + 1), (1, 0, r + 2)):
        return 0
    scale = math.prod(inst.condition(label).weight for label in inst.lines)
    return scale * cross_ratio_multiplicity(VertexProfile.of(inst.labels, inst.crossratios))


def _degree_zero_sides(inst: Instance):
    """Each degree-zero side that :func:`split_nodes` builds below ``inst``."""
    for node, choice in split_nodes(inst):
        if choice is not None:
            for split, _ in orbit_splits(node, *choice):
                pair = build_subinstances(node, split)
                yield from (sub for sub in (pair.side1, pair.side2) if sub.degree == 0)


def test_stars_from_rows_match_the_label_rule():
    roots = [*CORPUS, *map(golden_instance, golden_eval_multi_shapes())]
    sides = [sub for inst in roots for sub in _degree_zero_sides(inst)]
    stars = [sub for sub in sides if sub.crossratios]
    assert len(stars) > 50 and max(map(_star_by_labels, stars)) > 1
    for sub in [*sides, *(inst for inst, _ in RIGID_STARS), *LOOSE_STARS]:
        assert base_from_rows(0, label_rows(sub)) == _star_by_labels(sub)


def test_base_functions_agree_without_cross_ratios():
    assert base_degree_zero is base_no_crossratios
    for inst in CORPUS:
        if not inst.crossratios:
            assert base_no_crossratios(inst) == evaluate(inst)


def test_worked_example_value():
    assert evaluate(WORKED) == 1
    assert evaluate(WORKED23) == 6


def test_worked_example_battery_is_flat():
    report = evaluate_invariance_battery(WORKED23)
    assert report.ok
    assert report.value == 6
    assert len(report.variants) == 6
    assert {v.value for v in report.variants} == {6}
    assert not report.mismatches


def test_battery_varies_every_pairing_of_each_cross_ratio():
    inst = Instance.build(1, points=[1, 2], lines={3: 2}, free=[4], crossratios=[[1, 2, 3, 4]])
    report = evaluate_invariance_battery(inst)
    assert report.ok
    assert len(report.variants) == 3
    assert len({v.pairing for v in report.variants}) == 3


def test_battery_is_empty_without_cross_ratios():
    report = evaluate_invariance_battery(Instance.build(1, points=[1, 2]))
    assert report.ok
    assert report.variants == ()


def test_line_only_instance_counts_through_admissible_groupings():
    inst = Instance.build(
        1,
        lines={1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
        crossratios=[[1, 2, 3, 4], [1, 2, 3, 5]],
    )
    assert evaluate(inst) == 1
    report = evaluate_invariance_battery(inst)
    assert report.ok
    assert len(report.variants) == 6
    assert {v.value for v in report.variants} == {1}


def test_admissible_line_pair_blocks_tied_groupings():
    inst = Instance.build(
        1,
        lines={1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
        crossratios=[[1, 2, 3, 4], [1, 2, 3, 5]],
    )
    # grouping two labels the other cross-ratio also holds, with its
    # remaining entries both multi lines, starves the far side: of the
    # pairs of cr{1,2,3,5}, only those with 5 are kept
    choices = resolution_choices(inst)
    resolved = [(pairing, kept) for pairing, (last, _, kept) in choices if last == 1]
    assert [pairing for pairing, _ in resolved] == [
        Pairing.of((1, 5), (2, 3)), Pairing.of((1, 3), (2, 5)), Pairing.of((1, 2), (3, 5))
    ]
    kept = [[(pairing.first, pairing.second)[k] for k in kept] for pairing, kept in resolved]
    assert kept == [[(1, 5)], [(2, 5)], [(3, 5)]]


@pytest.mark.parametrize(
    "crossratios, count",
    [
        ([[1, 2, 3, 4], [5, 6, 7, 8]], 4),
        ([[1, 2, 3, 4], [1, 5, 6, 7]], 3),
        ([[1, 2, 3, 4], [1, 2, 5, 6]], 2),
        ([[1, 2, 3, 4], [1, 2, 3, 5]], 1),
    ],
)
def test_lines_with_two_cross_ratios_count_as_classically(crossratios, count):
    # The lines meeting four fixed lines in a fixed cross-ratio are the
    # tangents of a conic inscribed in them (dually, a conic through the four
    # dual points). Two such conics share 4 tangents, among them the spurious
    # L_i for each shared entry i, so 4 - |cr1 & cr2| lines are counted.
    labels = sorted({x for cr in crossratios for x in cr})
    inst = Instance.build(1, lines={x: 1 for x in labels}, crossratios=crossratios)
    assert evaluate(inst) == count
    assert evaluate_invariance_battery(inst).ok


@pytest.mark.parametrize(
    "lines, crossratios, count",
    [
        (5, [[1, 2, 3, 6], [1, 2, 4, 6], [1, 3, 5, 6]], 1),
        (5, [[1, 2, 3, 6], [1, 2, 4, 6], [3, 4, 5, 6]], 1),
        (6, [[1, 2, 3, 4], [1, 2, 5, 7], [1, 2, 6, 7]], 2),
        (6, [[1, 2, 3, 4], [1, 2, 5, 7], [1, 3, 6, 7]], 2),
        (6, [[1, 2, 3, 4], [1, 2, 5, 7], [1, 5, 6, 7]], 2),
        (6, [[1, 2, 3, 4], [1, 2, 5, 7], [3, 5, 6, 7]], 3),
        (6, [[1, 2, 3, 4], [1, 5, 6, 7], [2, 5, 6, 7]], 2),
        (6, [[1, 2, 3, 7], [1, 2, 4, 7], [1, 3, 5, 7]], 1),
        (6, [[1, 2, 3, 7], [1, 2, 4, 7], [1, 5, 6, 7]], 2),
        (6, [[1, 2, 3, 7], [1, 2, 4, 7], [3, 4, 5, 7]], 1),
        (6, [[1, 2, 3, 7], [1, 2, 4, 7], [3, 5, 6, 7]], 2),
        (6, [[1, 2, 3, 7], [1, 4, 5, 7], [2, 4, 6, 7]], 3),
    ],
)
def test_a_free_end_at_two_lines_counts_as_classically(lines, crossratios, count):
    # d = 1, weight-1 lines and one free end: the classes where some choice
    # keeps a 2/0 orbit whose degree-zero side holds a kept pair of a line L
    # and the free end f with a second line L' (see _isolates). Counted
    # classically with l: y = m x + c; line i marks [k_i - c : m - s_i] on l
    # and f marks [t : 1]. Random rational lines and cross-ratio values, two
    # draws, t eliminated, the resultant in m solved at 60 digits, and only
    # roots with distinct marked points kept. Letting one cross-ratio grow,
    # solutions converge to curves through L ∩ L' with the free point there.
    weights = dict.fromkeys(range(1, lines + 1), 1)
    inst = Instance.build(1, lines=weights, free=[lines + 1], crossratios=crossratios)
    assert evaluate(inst) == count
    assert evaluate_invariance_battery(inst).ok


@pytest.mark.parametrize(
    "lines, crossratio, count", [((2, 3, 4), [1, 2, 3, 4], 1), ((2, 3, 4, 5), [2, 3, 4, 5], 2)]
)
def test_lines_through_a_point_count_as_classically(lines, crossratio, count):
    # Through the point P = 1: with P in the cross-ratio, inverting the
    # distance from P along each line of the pencil makes the cross-ratio a
    # ratio of two linear forms in the pencil's parameter, a degree-1 map, so
    # one line takes the fixed value. Without P, the lines meeting L2..L5 in
    # a fixed cross-ratio are the tangents of a conic, two of them through P.
    inst = Instance.build(1, points=[1], lines=dict.fromkeys(lines, 1), crossratios=[crossratio])
    assert evaluate(inst) == count
    assert evaluate_invariance_battery(inst).ok


def test_resource_budget_is_enforced():
    with pytest.raises(ResourceLimitError):
        evaluate(WORKED, max_nodes=1)


def test_battery_budget_counts_each_variant_root_once():
    # WORKED23: the default evaluation and each of the six root variants take
    # 5 nodes. Below, the default takes 4 and two variants 5, roots included.
    crossratios = [[1, 2, 3, 4], [1, 2, 4, 5]]
    variant_bound = Instance.build(2, points=[2, 3, 5], lines={1: 3, 4: 3}, crossratios=crossratios)
    assert evaluate(variant_bound, max_nodes=4) == 9
    for inst in (WORKED23, variant_bound):
        assert evaluate_invariance_battery(inst, max_nodes=5).ok
        with pytest.raises(ResourceLimitError):
            evaluate_invariance_battery(inst, max_nodes=4)


def test_ill_posed_instances_are_rejected():
    with pytest.raises(ValidationError, match="dimension count"):
        evaluate(Instance.build(1, points=[1], free=[2]))
    with pytest.raises(ValidationError, match="not an end"):
        evaluate(Instance.build(2, points=[1, 2, 3, 4], free=[5], crossratios=[[1, 2, 3, 9]]))


def test_memoized_reevaluation_is_stable():
    engine = Engine()
    first = engine.evaluate(WORKED23)
    assert engine.evaluate(WORKED23) == first == 6
    assert Engine().evaluate(WORKED23) == first


def test_trace_shows_both_resolution_steps():
    lines = list(Engine().trace(WORKED23))
    # the root resolves the last cross-ratio, cr{1,2,3,5}, over one split
    assert lines[1] == "  resolve cr (1 2 | 3 5)"
    assert [line for line in lines if line.startswith("  term ")] == ["  term 2 * 3 = 6"]
    assert lines[-1] == "  = 6"
    # side 1 resolves again, over one split into two base cases
    assert lines[3].startswith("    side 1: d=1 ")
    assert lines[4] == "      resolve cr (1 2 | 4 6)"
    inner = [line.strip() for line in lines[5:lines.index("      = 2") + 1]]
    assert [line for line in inner if line.startswith(("=", "term"))] == [
        "= 1 (base)", "= 2 (base)", "term 1 * 2 = 2", "= 2"
    ]


def test_trace_marks_memoized_hits():
    engine = Engine()
    engine.evaluate(WORKED23)
    lines = list(engine.trace(WORKED23))
    assert lines[1:] == ["  = 6 (memo)"]


def test_trace_keys_only_the_root(monkeypatch):
    # Sides are keyed through Engine._key from their rows, so the number
    # of canonical_key calls does not grow with the trace (98,307 lines at d = 6).
    calls = []

    def counting_key(inst):
        calls.append(inst)
        return canonical_key(inst)

    monkeypatch.setattr("crosskont.engine.canonical_key", counting_key)
    made = []
    for degree in (3, 6):
        calls.clear()
        assert sum(1 for _ in Engine().trace(one_cross_ratio_family(degree))) > 100
        made.append(len(calls))
    assert made[0] == made[1]


def test_trace_streams_its_first_lines_in_little_memory():
    # The orbits are expanded a group at a time; listing the root's splits
    # at d = 6 before walking them peaked at 30.7 MB.
    inst = one_cross_ratio_family(6)
    tracemalloc.start()
    try:
        lines = list(itertools.islice(Engine().trace(inst), 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lines) == 20
    assert peak < 1 << 20


def _isolates_by_labels(inst, split, line_pairs) -> bool:
    """The rule on labels: a kept pair on a degree-zero side of the split.

    On a 2/0 split that side is the fixed one and holds exactly two line
    labels; on a 1/1 split it holds nothing but the pair, a line and a
    free end, beside the fresh end.
    """
    kinds = lambda labels: [inst.condition(x).kind for x in labels]
    if split.kind == ONE_ONE:
        sides = [side for side in (split.side1, split.side2) if not side.degree]
        star = lambda pair: sorted(kinds(pair)) == sorted([LINE, FREE])
        return any(side.labels == set(p) and star(p) for side in sides for p in line_pairs)
    side = split.side1 if split.kind == TWO_ZERO_SIDE1_FIXED else split.side2
    held = any(set(pair) <= side.labels for pair in line_pairs)
    return not side.degree and held and kinds(side.labels).count(LINE) == 2


def _check_isolates(inst) -> int:
    """Compare both rules on every split of every no-point resolution of ``inst`` and below."""
    checked = 0
    for node in [inst, *(node for node, _ in split_nodes(inst))]:
        for pairing, (last, _, kept) in resolution_choices(node):
            if kept is not None:
                pairs = [(pairing.first, pairing.second)[k] for k in kept]
                for split, orbit in orbit_members(node, last, pairing):
                    assert _isolates(orbit, kept) == _isolates_by_labels(node, split, pairs)
                    checked += 1
    return checked


def test_isolation_by_counts_matches_the_label_rule():
    shapes = [(1, 0, 6, 2), (1, 0, 7, 2), (2, 2, 5, 3), (1, 0, 5, 3, 1)]
    classes = [weight_one_classes(*shape) for shape in shapes]
    crossratios = [[1, 2, 3, 4], [1, 2, 3, 5], [1, 4, 5, 6]]
    lines = dict.fromkeys(range(1, 6), 1)
    free_end = Instance.build(1, lines=lines, free=[6], crossratios=crossratios)
    checked = [sum(map(_check_isolates, instances)) for instances in (CORPUS, *classes, [free_end])]
    # the d = 2 classes keep a point on every node the engine resolves
    assert [bool(n) for n in checked] == [True, True, True, False, True, True]


def _perfbench_oracles():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("degree", list(range(2, 13)))
@pytest.mark.parametrize("weights", [(1, 1), (2, 3)])
def test_one_cross_ratio_family_matches_the_closed_form(degree, weights):
    # the Gathmann-Markwig closed form shares no code with the engine
    expected = _perfbench_oracles().cr1_closed_form(degree, *weights)
    assert evaluate(one_cross_ratio_family(degree, *weights)) == expected


@pytest.mark.parametrize("degree", list(range(2, 13)))
@pytest.mark.parametrize("weights", [(1, 1), (2, 3)])
def test_one_cross_ratio_family_matches_the_second_closed_form(degree, weights):
    # Gathmann and Markwig's argument under the pairing (p1 p2 | a b), where N_d
    # comes from a and b alone on a degree-zero side:
    # w_a w_b (N_d + sum over d1 + d2 = d of C(3d-4, 3d1-3) d1 d2^3 N_d1 N_d2)
    n = _perfbench_oracles().kontsevich_numbers(degree)
    terms = (
        math.comb(3 * degree - 4, 3 * d1 - 3) * d1 * (degree - d1) ** 3 * n[d1] * n[degree - d1]
        for d1 in range(1, degree)
    )
    expected = weights[0] * weights[1] * (n[degree] + sum(terms))
    assert evaluate(one_cross_ratio_family(degree, *weights)) == expected


def test_trace_text_is_pinned_past_the_corpus():
    # One SHA-256 over the rendered traces of the family at d = 3, 4, 5 and
    # the golden shapes, recorded when the trace came from a label-level
    # evaluation of its own. A change that alters the text updates this pin.
    sha = hashlib.sha256()
    instances = [one_cross_ratio_family(d, 2, 3) for d in (3, 4, 5)]
    instances += [golden_instance(shape) for shape in golden_eval_multi_shapes()]
    for inst in instances:
        sha.update("\n".join(Engine().trace(inst)).encode() + b"\n")
    assert sha.hexdigest() == "6f480068edba482bc423154ea0e7645c83d07b58e5bb5cbdcf41ea85cdaf2fa5"


def _check_trace(inst) -> int:
    """Check the trace against the orbit evaluation; return the expanded split nodes.

    The trace is parsed by indentation.  Each ``resolve cr`` line opens a
    sum, each ``term l * r = t`` line at its depth adds t to it, and the
    closing ``= v`` must equal the sum: the label-level terms (each split
    with multiplicity one) add up to the node's value, which comes from
    the orbit evaluation's memo.
    """
    lines = list(Engine().trace(inst))
    sums = []  # [indent, running sum] of each open split node
    nodes = 0
    for line in lines:
        text = line.lstrip()
        indent = len(line) - len(text)
        if text.startswith("resolve cr "):
            sums.append([indent, 0])
            nodes += 1
        elif text.startswith("term "):
            left, right, term = map(int, text[len("term "):].replace("*", "=").split("="))
            assert left * right == term
            assert sums[-1][0] == indent
            sums[-1][1] += term
        elif text.startswith("= ") and not text.endswith(")"):
            assert sums.pop() == [indent, int(text[2:])]
    assert not sums
    assert int(lines[-1].split()[1]) == Engine().evaluate(inst)
    return nodes


def test_orbit_splits_match_label_level_splits_on_the_corpus():
    checked = [inst for inst in CORPUS if inst.crossratios]
    assert sum(_check_trace(inst) for inst in checked) > len(checked) > 30


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("weights", [(1, 1), (2, 3)])
def test_orbit_splits_match_label_level_splits_on_the_family(degree, weights):
    # one cross-ratio: only the root splits, over every label-level split
    assert _check_trace(one_cross_ratio_family(degree, *weights)) == 1


@pytest.mark.parametrize("shape", golden_eval_multi_shapes(), ids=lambda shape: shape["id"])
def test_orbit_splits_match_label_level_splits_on_the_golden_shapes(shape):
    inst = golden_instance(shape)
    assert _check_trace(inst) > 0
    assert evaluate(inst) == shape["count"]


def _check_orbit_rows(inst, last, pairing) -> int:
    """Compare each side's rows with the sub-instance built for it; return the sides seen."""
    sides = 0
    for split, orbit in orbit_splits(inst, last, pairing):
        pair = build_subinstances(inst, split)
        shares = zip((split.side1, split.side2), orbit.degrees, orbit.crossratios, orbit.rows)
        for (side, degree, crossratios, rows), sub in zip(shares, (pair.side1, pair.side2)):
            assert (degree, crossratios) == (side.degree, side.crossratios)
            assert rows == label_rows(sub)
            assert rows_key(degree, rows) == canonical_key(sub)
            if not sub.crossratios:
                assert base_from_rows(degree, rows) == base_no_crossratios(sub)
            sides += 1
    return sides


def test_side_rows_match_the_built_sub_instances_on_the_corpus():
    cases = 0
    for inst in CORPUS:
        for last in range(len(inst.crossratios)):
            for pairing in all_pairings(inst.crossratios[last]):
                _check_orbit_rows(inst, last, pairing)
                cases += 1
    assert cases == 183


@pytest.mark.parametrize("degree", range(2, 8))
def test_side_rows_match_the_built_sub_instances_on_the_family(degree):
    inst = one_cross_ratio_family(degree, 2, 3)
    assert all(_check_orbit_rows(inst, 0, pairing) for pairing in all_pairings(inst.crossratios[0]))


@pytest.mark.parametrize("shape", golden_eval_multi_shapes(), ids=lambda shape: shape["id"])
def test_side_rows_match_the_built_sub_instances_on_the_golden_shapes(shape):
    for node, choice in split_nodes(golden_instance(shape)):
        if choice is not None:
            _check_orbit_rows(node, *choice)


# Engine()._nodes after evaluate, as recorded once every class was resolved
# from its rows (1,287 classes before the zero-orbit skip, 704 after it, 716
# now).
GOLDEN_NODES = {
    "eval-multi-1": 26, "eval-multi-36": 18, "eval-multi-14": 24, "eval-multi-12": 34,
    "eval-multi-19": 42, "eval-multi-43": 29, "eval-multi-37": 68, "eval-multi-72": 12,
    "eval-multi-40": 73, "eval-multi-5": 26, "eval-multi-67": 51, "eval-multi-4": 75,
    "eval-multi-48": 59, "eval-multi-92": 122, "eval-multi-110": 15, "eval-multi-2": 42,
}


@pytest.mark.parametrize("shape", golden_eval_multi_shapes(), ids=lambda shape: shape["id"])
def test_node_count_is_pinned_on_the_golden_shapes(shape):
    engine = Engine()
    engine.evaluate(golden_instance(shape))
    assert engine._nodes == GOLDEN_NODES[shape["id"]]


# Engine()._nodes of the family at d = 2..5, by line weights: 2 d + 1 for
# both while the root resolved (p1 p2 | a b) by label order; from its rows
# it resolves (p1 a | p2 b).
FAMILY_NODES = {(1, 1): [2, 3, 4, 5], (2, 3): [3, 5, 7, 9]}


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("weights", [(1, 1), (2, 3)])
def test_node_count_is_pinned_on_the_family(degree, weights):
    engine = Engine()
    engine.evaluate(one_cross_ratio_family(degree, *weights))
    assert engine._nodes == FAMILY_NODES[weights][degree - 2]


def test_trace_values_the_classes_the_evaluation_skips():
    # The trace walks the orbits the evaluation skips too, and resolves each
    # node by its labels, valuing the classes it meets lazily: eval-multi-92
    # values 122 classes, its trace 400.
    shape = next(s for s in golden_eval_multi_shapes() if s["id"] == "eval-multi-92")
    engine = Engine()
    lines = list(engine.trace(golden_instance(shape)))
    assert lines[-1] == f"  = {shape['count']}"
    assert engine._nodes == 400


def _check_skipped_orbits(inst) -> int:
    """Check the orbits the engine skips below ``inst`` on their built sides; return how many."""
    skipped = 0
    for node, choice in split_nodes(inst):
        if choice is not None:
            for split, orbit in orbit_splits(node, *choice):
                pair = build_subinstances(node, split)
                subs = (pair.side1, pair.side2)
                kinds = tuple((len(sub.points), len(sub.lines), len(sub.free)) for sub in subs)
                assert orbit.kinds == kinds
                if _zero_side(orbit):
                    base = [sub for sub in subs if sub.degree == 0 or not sub.crossratios]
                    assert 0 in [base_from_rows(sub.degree, label_rows(sub)) for sub in base]
                    skipped += 1
    return skipped


def test_skipped_orbits_have_a_side_the_base_rule_values_zero():
    roots = [one_cross_ratio_family(degree, 2, 3) for degree in range(2, 6)]
    roots += [golden_instance(shape) for shape in golden_eval_multi_shapes()]
    skipped = [_check_skipped_orbits(inst) for inst in roots]
    assert all(skipped) and sum(skipped) > 1_000


def _free_end_sample(size: int, seed: int) -> list[Instance]:
    """``size`` random instances of each shape where resolution choices used to disagree.

    The shapes, with weight-1 lines: d = 1, 5 lines + 1 free end, r = 3;
    d = 1, 6 lines + 1 free end, r = 3; d = 2, 1 point, 6 lines, r = 4;
    d = 2, 2 points, 4 lines + 1 free end, r = 4.  Cross-ratios are
    distinct 4-sets of labels.
    """
    rng = random.Random(seed)
    found = []
    shapes = [(1, 0, 5, 1, 3), (1, 0, 6, 1, 3), (2, 1, 6, 0, 4), (2, 2, 4, 1, 4)]
    for degree, points, lines, free, r in shapes:
        labels = range(1, points + lines + free + 1)
        quadruples = list(itertools.combinations(labels, 4))
        for _ in range(size):
            found.append(
                Instance.build(
                    degree,
                    points=labels[:points],
                    lines={x: 1 for x in labels[points : points + lines]},
                    free=labels[points + lines :],
                    crossratios=rng.sample(quadruples, r),
                )
            )
    return found


def test_skipping_zero_orbits_keeps_every_count(monkeypatch):
    # Skipping changes which classes are valued and in which order; on the
    # free-end sample, where counts used to depend on the resolution, that
    # could move a count.
    shapes = golden_eval_multi_shapes()
    instances = [*map(golden_instance, shapes), *_free_end_sample(60, seed=7)]
    counts = [evaluate(inst) for inst in instances]
    assert counts[: len(shapes)] == [shape["count"] for shape in shapes]
    assert sum(map(bool, counts)) > len(instances) // 2
    monkeypatch.setattr("crosskont.engine._zero_side", lambda orbit: False)
    assert [evaluate(inst) for inst in instances] == counts


def _multi(degree: int, r: int) -> Instance:
    """The ``multi(d, r)`` shape: many cross-ratios over two lines.

    Points 1..n with n = 3d - 1 - r, lines a = n + 1 of weight 1 and
    b = n + 2 of weight 2, and the first r of six cross-ratios.
    """
    n = 3 * degree - 1 - r
    a, b = n + 1, n + 2
    crossratios = [
        [1, 2, a, b], [3, 4, a, 5], [1, 6, b, 7], [2, 3, 8, 9], [5, 10, 11, a], [6, 12, 13, b]
    ]
    return Instance.build(
        degree, points=list(range(1, n + 1)), lines={a: 1, b: 2}, crossratios=crossratios[:r]
    )


def test_counts_hold_with_every_node_resolved_in_reverse_order():
    # The battery varies the root's choice only; this varies it at every node.
    multi = _multi(7, 6)
    assert evaluate(multi) == 1_994_058
    sample = _free_end_sample(60, seed=7)
    counts = [evaluate(inst) for inst in sample]
    with resolved_in_reverse() as calls:
        for shape in golden_eval_multi_shapes():
            assert evaluate(golden_instance(shape)) == shape["count"], shape["id"]
        assert evaluate(multi) == 1_994_058
        assert [evaluate(inst) for inst in sample] == counts
    assert calls


@pytest.mark.parametrize("reverse, nodes", [(False, 606), (True, 535)])
def test_frontier_count_and_node_count_are_pinned(reverse, nodes):
    # multi(8, 4); the count was recorded before the exact-rows memo and the
    # count-only orbit kernel, the node counts once every class was resolved
    # from its rows (1,046 and 682 before the zero-orbit skip, 740 and 508
    # after it).
    engine = Engine()
    with resolved_in_reverse() if reverse else contextlib.nullcontext():
        assert engine.evaluate(_multi(8, 4)) == 197_523_577_376
    assert engine._nodes == nodes


def _shape(degree, points, lines, r, classes, free=0):
    shape = f"{degree}-{points}-{lines}-{r}-{classes}" + (f"-free{free}" if free else "")
    return pytest.param(degree, points, lines, r, classes, free, id=shape)


@pytest.mark.parametrize(
    "degree, points, lines, r, classes, free",
    [
        _shape(1, 0, 6, 2, 2),
        _shape(1, 0, 7, 2, 3),
        _shape(2, 2, 5, 3, 76),
        _shape(1, 0, 5, 3, 13, free=1),
        _shape(1, 0, 6, 3, 35, free=1),
        _shape(2, 1, 6, 4, 163),
    ],
)
def test_every_root_choice_agrees_on_every_weight_one_class(
    degree, points, lines, r, classes, free
):
    # Exhaustive over the weight-1 shapes: without points, with a free end
    # (kept where it meets a line, see resolution_choices) and with a point.
    # d = 2, 2 points, 4 lines, a free end and r = 4 (1,553 classes, about
    # 25 s) agrees too; tools/choice_sweep.py runs it.
    found = weight_one_classes(degree, points, lines, r, free)
    assert len(found) == classes
    assert [inst for inst in found if not evaluate_invariance_battery(inst).ok] == []


def test_five_lines_and_a_free_end_count_one_vertex_of_six_slots():
    # With five lines fixed, a line and a point on it map birationally onto
    # M_0,6 (two conics through L1*, L2*, L3* meet once more in the dual
    # plane), so d = 1 counts the cross-ratio degree of the six marked points.
    for inst in weight_one_classes(1, 0, 5, 3, 1):
        crossratios = [sorted(cr.entries) for cr in inst.crossratios]
        vertex = VertexProfile.of(sorted(inst.labels), crossratios)
        assert evaluate(inst) == cross_ratio_multiplicity(vertex), crossratios


def test_a_weighted_free_end_class_agrees_and_scales_by_its_weights():
    # d = 1, lines 1..5, free end 6: classically 1 curve with weight-1 lines
    crossratios = [[1, 2, 3, 6], [1, 2, 4, 6], [1, 2, 5, 6]]
    weights = {1: 2, 2: 1, 3: 3, 4: 1, 5: 2}
    inst = Instance.build(1, lines=weights, free=[6], crossratios=crossratios)
    report = evaluate_invariance_battery(inst)
    assert report.ok and len(report.variants) > 1
    assert report.value == math.prod(weights.values())


@given(data=st.data())
def test_count_is_relabel_invariant(data):
    inst = data.draw(st.sampled_from(SMALL))
    labels = sorted(inst.labels)
    perm = data.draw(st.permutations(labels))
    moved = inst.relabel(dict(zip(labels, perm)))
    assert evaluate(moved) == evaluate(inst)


@given(data=st.data())
def test_count_is_multilinear_in_line_weights(data):
    candidates = [inst for inst in SMALL if inst.lines]
    inst = data.draw(st.sampled_from(candidates))
    label = data.draw(st.sampled_from(sorted(inst.lines)))
    factor = data.draw(st.integers(min_value=2, max_value=4))
    scaled = Instance(
        inst.degree,
        tuple(
            (lab, cond if lab != label else type(cond)(cond.kind, cond.weight * factor))
            for lab, cond in inst.conditions.items()
        ),
        inst.crossratios,
    )
    assert evaluate(scaled) == factor * evaluate(inst)


def test_evaluation_builds_no_instance_below_the_root(monkeypatch):
    # Every class below the root is valued from its degree and rows alone.
    roots = [*map(golden_instance, golden_eval_multi_shapes()), _multi(7, 6)]
    built = []
    init = Instance.__post_init__

    def counting_init(self):
        built.append(self)
        init(self)

    def no_sides(inst, split):
        raise AssertionError("a sub-instance was built")

    monkeypatch.setattr(Instance, "__post_init__", counting_init)
    monkeypatch.setattr(engine_module, "build_subinstances", no_sides)
    for inst in roots:
        Engine().evaluate(inst)
    assert built == []
