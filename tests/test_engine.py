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
import time
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
from crosskont.conditions import (
    FREE,
    KIND_RANK,
    LINE,
    POINT,
    all_pairings,
    canonical_key,
    label_row,
    label_rows,
    rows_key,
    validate,
)
from crosskont.engine import (
    Engine,
    _fails_hall,
    _isolates,
    _unheld_end,
    _vanishes,
    _zero_side,
    base_degree_zero,
    base_from_rows,
    base_no_crossratios,
    resolution_choices,
)
from crosskont import engine as engine_module
from crosskont.cli import instance_from_dict
from crosskont.resolution import VertexProfile, cross_ratio_multiplicity
from crosskont.splits import ONE_ONE, TWO_ZERO_SIDE1_FIXED, build_subinstances, orbit_members

from corpus import (
    CORPUS,
    SMALL,
    free_row_ladder,
    golden_eval_multi_shapes,
    golden_instance,
    multi,
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
    # of canonical_key calls does not grow with the trace (98,307 lines at d = 6),
    # and the trace computes rows_key once for each exact row set it meets
    # first, so at most once per memo entry, not once per line.
    calls, twins = [], []

    def counting_key(inst):
        calls.append(inst)
        return canonical_key(inst)

    def counting_rows_key(degree, rows):
        twins.append((degree, rows))
        return rows_key(degree, rows)

    monkeypatch.setattr("crosskont.engine.canonical_key", counting_key)
    monkeypatch.setattr("crosskont.engine.rows_key", counting_rows_key)
    made = []
    for degree in (3, 6):
        calls.clear()
        twins.clear()
        engine = Engine()
        lines = sum(1 for _ in engine.trace(one_cross_ratio_family(degree)))
        assert lines > 100
        assert 0 < len(twins) <= len(engine._memo) < lines
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
# before the free-end rule, 677 before the free-end term skip, 526 now).
GOLDEN_NODES = {
    "eval-multi-1": 26, "eval-multi-36": 10, "eval-multi-14": 20, "eval-multi-12": 32,
    "eval-multi-19": 38, "eval-multi-43": 9, "eval-multi-37": 55, "eval-multi-72": 8,
    "eval-multi-40": 70, "eval-multi-5": 26, "eval-multi-67": 48, "eval-multi-4": 65,
    "eval-multi-48": 39, "eval-multi-92": 29, "eval-multi-110": 9, "eval-multi-2": 42,
}

# Engine()._terms after evaluate, the orbit terms summed (766 in all, 1,071
# before the free-end rule, 996 before the free-end term skip): a change to
# the default choice, to the zero-orbit skip or to the free-end rule shows up here.
GOLDEN_TERMS = {
    "eval-multi-1": 20, "eval-multi-36": 8, "eval-multi-14": 21, "eval-multi-12": 58,
    "eval-multi-19": 48, "eval-multi-43": 7, "eval-multi-37": 83, "eval-multi-72": 8,
    "eval-multi-40": 100, "eval-multi-5": 25, "eval-multi-67": 67, "eval-multi-4": 148,
    "eval-multi-48": 79, "eval-multi-92": 22, "eval-multi-110": 4, "eval-multi-2": 68,
}


@pytest.mark.parametrize("shape", golden_eval_multi_shapes(), ids=lambda shape: shape["id"])
def test_node_count_is_pinned_on_the_golden_shapes(shape):
    engine = Engine()
    engine.evaluate(golden_instance(shape))
    assert engine._nodes == GOLDEN_NODES[shape["id"]]
    assert engine._terms == GOLDEN_TERMS[shape["id"]]


def test_golden_term_pins_sum_to_the_pass_total():
    assert set(GOLDEN_TERMS) == set(GOLDEN_NODES) == {s["id"] for s in golden_eval_multi_shapes()}
    assert sum(GOLDEN_TERMS.values()) == 766


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
    # values 29 classes, its trace 335 (122 and 400 before the free-end rule,
    # 93 and 371 before the free-end term skip, 332 before the exact-rows memo).
    shape = next(s for s in golden_eval_multi_shapes() if s["id"] == "eval-multi-92")
    engine = Engine()
    lines = list(engine.trace(golden_instance(shape)))
    assert lines[-1] == f"  = {shape['count']}"
    assert engine._nodes == 335


def _zero_by_its_node(sub: Instance) -> bool:
    """Whether ``_node`` would value a built side 0 without splitting it.

    By the base or star rule where it needs no split, else by the free-end rule.
    """
    if sub.degree == 0 or not sub.crossratios:
        return base_from_rows(sub.degree, label_rows(sub)) == 0
    return _fails_hall(label_rows(sub))


def _check_skipped_orbits(inst) -> int:
    """Check the orbits the engine skips below ``inst`` on their built sides; return how many.

    An orbit is skipped when a side :func:`_vanishes` by its counts or has
    an :func:`_unheld_end` in its rows.
    """
    skipped = 0
    for node, choice in split_nodes(inst):
        if choice is not None:
            for split, orbit in orbit_splits(node, *choice):
                pair = build_subinstances(node, split)
                subs = (pair.side1, pair.side2)
                kinds = tuple((len(sub.points), len(sub.lines), len(sub.free)) for sub in subs)
                assert orbit.kinds == kinds
                if _zero_side(orbit) or any(map(_unheld_end, orbit.degrees, orbit.kinds, orbit.rows)):
                    assert any(map(_zero_by_its_node, subs))
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


def _vanishes_by_lone_ends(degree: int, kinds: tuple[int, int, int], crossratios: int) -> bool:
    """``_vanishes`` with the free-end rule read from counts only as a free end and no cross-ratio."""
    if degree:
        return kinds[KIND_RANK[FREE]] > 0 and not crossratios
    return _vanishes(degree, kinds, crossratios)


def _spy_on_the_term_skip(monkeypatch) -> tuple[list, dict]:
    """Record the terms that only the free-end term skip drops, and their zero sides.

    Returns a list that gains one entry per such term and a dict from
    each side's (degree, exact rows) to its (degree, rows): a side of
    positive degree with cross-ratios that has more free ends than
    cross-ratios or an end none of them holds, which only the free-end
    rule values 0.
    """
    terms: list = []
    sides: dict = {}
    zero_side, unheld_end = engine_module._zero_side, engine_module._unheld_end
    side = lambda degree, rows: sides.setdefault((degree, frozenset(rows.items())), (degree, rows))

    def counts_form(orbit):
        if not zero_side(orbit):
            return False
        counts = list(zip(orbit.degrees, orbit.kinds, map(len, orbit.crossratios)))
        if not any(_vanishes_by_lone_ends(*count) for count in counts):
            terms.append(orbit)
            for (degree, kinds, crossratios), rows in zip(counts, orbit.rows):
                if degree and crossratios and _vanishes(degree, kinds, crossratios):
                    side(degree, rows)
        return True

    def rows_form(degree, kinds, rows):
        if unheld_end(degree, kinds, rows):
            terms.append(rows)
            side(degree, rows)
            return True
        return False

    monkeypatch.setattr(engine_module, "_zero_side", counts_form)
    monkeypatch.setattr(engine_module, "_unheld_end", rows_form)
    return terms, sides


def test_counts_hold_with_the_free_end_term_skip_switched_off(monkeypatch):
    # The term skip drops an orbit with a side of positive degree that has
    # more free ends than cross-ratios (from counts) or an end in none of
    # them (from rows) before either side is valued.  With both forms off,
    # each such side is valued, 0 by the free-end rule at its node.
    shapes = golden_eval_multi_shapes()
    instances = [*map(golden_instance, shapes), multi(7, 6), multi(8, 4)]
    instances += _free_end_sample(60, seed=7)
    with monkeypatch.context() as spied:
        terms, _ = _spy_on_the_term_skip(spied)
        counts = [evaluate(inst) for inst in instances]
    assert counts[: len(shapes)] == [shape["count"] for shape in shapes]
    assert counts[len(shapes) : len(shapes) + 2] == [1_994_058, 197_523_577_376]
    assert len(terms) > 200
    monkeypatch.setattr(engine_module, "_vanishes", _vanishes_by_lone_ends)
    monkeypatch.setattr(engine_module, "_unheld_end", lambda degree, kinds, rows: False)
    off = Engine()
    assert [off.evaluate(inst) for inst in instances] == counts
    assert off._hall_zeros > 0


def test_counts_hold_with_every_node_resolved_in_reverse_order():
    # The battery varies the root's choice only; this varies it at every node.
    frontier = multi(7, 6)
    engine = Engine()
    assert engine.evaluate(frontier) == 1_994_058
    # the free-end rule values 23 classes 0 at their node (20 before the exact-rows memo)
    assert engine._hall_zeros == 23
    sample = _free_end_sample(60, seed=7)
    counts = [evaluate(inst) for inst in sample]
    with resolved_in_reverse() as calls:
        for shape in golden_eval_multi_shapes():
            assert evaluate(golden_instance(shape)) == shape["count"], shape["id"]
        assert evaluate(frontier) == 1_994_058
        assert [evaluate(inst) for inst in sample] == counts
    assert calls


def test_multi_past_six_cross_ratios_is_pinned_where_its_checks_agree():
    # The seventh and eighth cross-ratios hold points 14 and 15, so they
    # need d >= 8.  multi(8, 7) counted the same under all 21 root choices
    # of the battery and with every node resolved in reverse order.
    assert all(map(validate, (multi(8, 7), multi(8, 8), multi(9, 8))))
    assert evaluate(multi(8, 7)) == 53_513_628


@pytest.mark.parametrize("reverse, nodes", [(False, 502), (True, 429)])
def test_frontier_count_and_node_count_are_pinned(reverse, nodes):
    # multi(8, 4); the count was recorded before the exact-rows memo and the
    # count-only orbit kernel, the node counts once every class was resolved
    # from its rows (1,046 and 682 before the zero-orbit skip, 740 and 508
    # after it), the summed orbit terms once the choices were listed lazily
    # (606 and 535 nodes, 4,321 and 5,050 terms before the free-end rule;
    # 591 and 533 nodes, 4,213 and 4,954 terms before the free-end term skip;
    # 484 and 414 nodes, 3,538 and 3,719 terms before the memo dropped the
    # relabelling-invariant key).  The free-end rule values 7 classes 0 at
    # their node forward, none in reverse: the pin where that step fires.
    engine = Engine()
    with resolved_in_reverse() if reverse else contextlib.nullcontext():
        assert engine.evaluate(multi(8, 4)) == 197_523_577_376
    terms, zeros = (3_796, 0) if reverse else (3_610, 7)
    assert (engine._nodes, engine._terms, engine._hall_zeros) == (nodes, terms, zeros)


# Engine()._hall_zeros after evaluate: the classes the free-end rule valued 0
# at their node (109 in all before the free-end term skip, 0 now: the skip
# drops every term with such a side on these shapes before valuing it; the
# pins on multi(8, 4) and multi(7, 6) show the node's step firing).
GOLDEN_HALL_ZEROS = {
    "eval-multi-1": 0, "eval-multi-36": 0, "eval-multi-14": 0, "eval-multi-12": 0,
    "eval-multi-19": 0, "eval-multi-43": 0, "eval-multi-37": 0, "eval-multi-72": 0,
    "eval-multi-40": 0, "eval-multi-5": 0, "eval-multi-67": 0, "eval-multi-4": 0,
    "eval-multi-48": 0, "eval-multi-92": 0, "eval-multi-110": 0, "eval-multi-2": 0,
}


@pytest.mark.parametrize("shape", golden_eval_multi_shapes(), ids=lambda shape: shape["id"])
def test_free_end_rule_count_is_pinned_on_the_golden_shapes(shape):
    engine = Engine()
    engine.evaluate(golden_instance(shape))
    assert engine._hall_zeros == GOLDEN_HALL_ZEROS[shape["id"]]


def test_classes_the_free_end_rule_values_zero_count_zero_without_it(monkeypatch):
    # Each class the rule values 0 at its node, and each side the term skip
    # drops by it, is valued again with the rule and the skip's two forms
    # off, by its splits.  The distinct free rows of a class the node rule
    # asks about number at most 3 on these shapes.
    shapes = golden_eval_multi_shapes()
    instances = [*map(golden_instance, shapes), multi(7, 6), multi(8, 4)]
    instances += _free_end_sample(60, seed=7)
    valued, free_rows = [], set()  # (degree, rows) of each class the rule valued 0; free rows met
    degrees = []  # of the classes being valued, innermost last
    fails_hall = engine_module._fails_hall

    def spy(rows):
        free_rows.add(sum(rank == KIND_RANK[FREE] for rank, _, _ in rows))
        if fails_hall(rows):
            valued.append((degrees[-1], rows))
            return True
        return False

    node = Engine._node

    def recording(self, key, degree, rows):
        degrees.append(degree)
        try:
            return node(self, key, degree, rows)
        finally:
            degrees.pop()

    with monkeypatch.context() as spied:
        spied.setattr("crosskont.engine._fails_hall", spy)
        spied.setattr(Engine, "_node", recording)
        _, dropped = _spy_on_the_term_skip(spied)
        counts = []
        for inst in instances:  # each evaluation values a class once, as each drops a side once
            counts.append(evaluate(inst))
            valued += dropped.values()
            dropped.clear()
    assert counts[: len(shapes)] == [shape["count"] for shape in shapes]
    assert counts[len(shapes) : len(shapes) + 2] == [1_994_058, 197_523_577_376]
    assert len(valued) > 500 and max(free_rows) == 3
    monkeypatch.setattr("crosskont.engine._fails_hall", lambda rows: False)
    monkeypatch.setattr(engine_module, "_vanishes", _vanishes_by_lone_ends)
    monkeypatch.setattr(engine_module, "_unheld_end", lambda degree, kinds, rows: False)
    off = Engine()
    assert [off.evaluate(inst) for inst in instances] == counts
    assert off._hall_zeros == 0
    assert all(off._memo[off._key(degree, rows)] == 0 for degree, rows in valued)


def _fails_hall_by_subsets(rows) -> bool:
    """Reference for ``_fails_hall``: every set of distinct free rows, 2^k sets for k of them.

    A set fails when its ends outnumber the cross-ratios their
    membership vectors cover.
    """
    free = KIND_RANK[FREE]
    sums = [(0, 0)]  # (free ends, cross-ratios covered as a bitmask) of each set
    for (rank, _, vec), n in rows.items():
        if rank == free:
            mask = sum(1 << j for j, x in enumerate(vec) if x)
            sums += [(s + n, m | mask) for s, m in sums]
    return any(s > m.bit_count() for s, m in sums)


def _random_free_rows(rng: random.Random) -> dict:
    """Rows of 1-6 cross-ratios, one point and up to 7 free rows of 1-3 ends each."""
    width = rng.randint(1, 6)
    vec = lambda: tuple(rng.random() < 0.4 for _ in range(width))
    rows = {(KIND_RANK[POINT], 1, vec()): 1}
    for _ in range(rng.randint(0, 7)):
        rows[KIND_RANK[FREE], 1, vec()] = rng.randint(1, 3)
    return rows


def test_hall_matching_agrees_with_the_subset_loop(monkeypatch):
    # Every row set that _node asks about, every side the term skip drops
    # unasked, and random ones where several ends share a row, more of
    # which fail.
    asked = []
    fails_hall = engine_module._fails_hall
    spy = lambda rows: asked.append(rows) or fails_hall(rows)
    monkeypatch.setattr(engine_module, "_fails_hall", spy)
    _, dropped = _spy_on_the_term_skip(monkeypatch)
    roots = [*map(golden_instance, golden_eval_multi_shapes()), multi(8, 4), multi(7, 6)]
    for inst in [*roots, *_free_end_sample(60, seed=7)]:
        evaluate(inst)
    asked += [rows for _, rows in dropped.values()]
    rng = random.Random(5)
    random_rows = [_random_free_rows(rng) for _ in range(3_000)]
    verdicts = [fails_hall(rows) for rows in asked + random_rows]
    assert verdicts == [_fails_hall_by_subsets(rows) for rows in asked + random_rows]
    assert all(verdicts[len(asked) - len(dropped) : len(asked)])
    assert len(asked) > 4_000
    assert 500 < sum(verdicts[len(asked) :]) < len(random_rows) - 500


def test_hall_test_stays_quick_and_small_up_to_forty_distinct_free_rows():
    # The subset loop held 2^k (ends, mask) pairs: 127 MB at k = 20, 462 MB at
    # k = 22.  The ladder climbs in steps, so such a loop fails the bound near
    # k = 12, long before it could exhaust memory.
    tracemalloc.start()
    try:
        for k in range(4, 41, 4):
            rows = label_rows(instance_from_dict(free_row_ladder(k)))
            assert sum(rank == KIND_RANK[FREE] for rank, _, _ in rows) == k
            lone = next(row for row in rows if row[0] == KIND_RANK[FREE] and sum(row[2]) == 1)
            crowded = {**rows, lone: 2}  # two ends share the one cross-ratio of ``lone``
            tracemalloc.reset_peak()
            start = time.perf_counter()
            verdicts = _fails_hall(rows), _fails_hall(crowded)
            elapsed = time.perf_counter() - start
            assert verdicts == (False, True), k
            assert elapsed < 0.1, k
            assert tracemalloc.get_traced_memory()[1] < tracemalloc.get_traced_memory()[0] + 64_000, k
    finally:
        tracemalloc.stop()


def test_hall_matching_follows_a_path_longer_than_the_stack():
    # End i < k - 1 holds cross-ratios i and i + 1 and takes i; the last end
    # holds only 0, so its alternating path runs through every other end.
    # A recursive search nests a frame per end on it; the limit here lets
    # 100 nest.  Without cross-ratio k - 1 the path fails at its far end.
    k = 300
    free = lambda *held: (KIND_RANK[FREE], 1, tuple(j in held for j in range(k)))
    chain = {free(i, i + 1): 1 for i in range(k - 1)}
    cut = {**{free(i, i + 1): 1 for i in range(k - 2)}, free(k - 2): 1}
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        verdicts = _fails_hall({**chain, free(0): 1}), _fails_hall({**cut, free(0): 1})
    finally:
        sys.setrecursionlimit(limit)
    assert verdicts == (False, True)


def _over_determined(inst: Instance) -> bool:
    """Whether some set F of the free ends of ``inst`` lies in fewer than |F| cross-ratios."""
    free = sorted(inst.free)
    entries = [set(cr.entries) for cr in inst.crossratios]
    subsets = (set(F) for k in range(1, len(free) + 1) for F in itertools.combinations(free, k))
    return any(len(F) > sum(bool(F & cr) for cr in entries) for F in subsets)


def _small_sample(size: int, seed: int) -> list[Instance]:
    """``size`` random valid instances: d <= 3, 0-3 lines of weight 1 or 2, 0-3 free ends.

    Each has 1-4 distinct cross-ratios, and as many points as that leaves.
    """
    rng = random.Random(seed)
    found = []
    while len(found) < size:
        degree, lines, free = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3)
        r = rng.randint(1, 4)
        points = 3 * degree - 1 - r + free
        labels = range(1, points + lines + free + 1)
        quadruples = list(itertools.combinations(labels, 4))
        if points < 0 or len(quadruples) < r:
            continue
        found.append(
            Instance.build(
                degree,
                points=labels[:points],
                lines={x: rng.randint(1, 2) for x in labels[points : points + lines]},
                free=labels[points + lines :],
                crossratios=rng.sample(quadruples, r),
            )
        )
    return found


def test_instances_with_over_determined_free_ends_count_zero_without_the_rule(monkeypatch):
    # A label-level check that shares no code with the engine's rule
    # flags exactly the classes the rule values 0, below the golden shapes
    # and at the roots of a sample, and each flagged root still counts 0
    # with the rule off.  Only roots with three free ends fail by a set of
    # several distinct rows and no smaller one.
    roots = map(golden_instance, golden_eval_multi_shapes())
    nodes = [node for root in roots for node, _ in split_nodes(root)]
    assert list(map(_over_determined, nodes)) == [_fails_hall(label_rows(node)) for node in nodes]
    sample = _small_sample(500, seed=11)
    flagged = list(map(_over_determined, sample))
    engines = [Engine() for _ in sample]
    counts = [engine.evaluate(inst) for engine, inst in zip(engines, sample)]
    assert [(e._nodes, e._hall_zeros) == (1, 1) for e in engines] == flagged
    assert 100 < sum(flagged) < len(sample) - 100
    monkeypatch.setattr("crosskont.engine._fails_hall", lambda rows: False)
    assert [evaluate(inst) for inst in sample] == counts
    assert all(count == 0 for count, flag in zip(counts, flagged) if flag)


def _eager_choices(columns, row, points):
    """Reference listing of the resolution choices: every column listed and sorted up front."""
    line, free = KIND_RANK[LINE], KIND_RANK[FREE]
    full = [j for j, column in enumerate(columns) if all(row(x)[0] == line for x in column)]
    for last in range(len(columns) - 1, -1, -1):
        entries = columns[last]
        ranks, _, vecs = zip(*map(row, entries))
        tied = lambda a, b: any(j != last and vecs[a][j] and vecs[b][j] for j in full)
        lines = itertools.combinations([i for i in range(4) if ranks[i] == line], 2)
        pairs = [(0, 1), (0, 2), (0, 3)] if points else [p for p in lines if not tied(*p)]
        kept = lambda p: p in pairs or {ranks[i] for i in p} == {line, free}
        rest = lambda p: tuple(i for i in range(4) if i not in p)
        for order in dict.fromkeys(p + rest(p) if 0 in p else rest(p) + p for p in pairs):
            picked = None if points else tuple(k for k in (0, 1) if kept(order[2 * k : 2 * k + 2]))
            yield last, tuple(entries[i] for i in order), picked


def _eager_row_choices(rows):
    width = len(next(iter(rows))[2])
    listed = [sorted(r for r, n in rows.items() if r[2][j] for _ in range(n)) for j in range(width)]
    points = any(rank == KIND_RANK[POINT] for rank, _, _ in rows)
    return _eager_choices([(a, c, b, d) for a, b, c, d in listed], lambda row: row, points)


def test_lazy_choices_list_what_the_eager_listing_did(monkeypatch):
    # Every row set the engine resolves, with points (golden shapes,
    # multi(7, 6)) and without (the free-end sample), lists the same choices
    # in the same order: the reverse-order check reads the whole list.
    resolved = []
    row_choices = engine_module._row_choices

    def recording(rows):
        resolved.append(dict(rows))
        return row_choices(rows)

    monkeypatch.setattr(engine_module, "_row_choices", recording)
    roots = [*map(golden_instance, golden_eval_multi_shapes()), multi(7, 6)]
    for inst in [*roots, *_free_end_sample(60, seed=7)]:
        Engine().evaluate(inst)
    no_points = [rows for rows in resolved if all(rank != KIND_RANK[POINT] for rank, _, _ in rows)]
    assert len(resolved) > 3_000 and len(no_points) > 100
    for rows in resolved:
        assert list(row_choices(rows)) == list(_eager_row_choices(rows))


def test_lazy_resolution_choices_list_what_the_eager_listing_did():
    checked = 0
    for inst in CORPUS:
        row = label_row(inst)
        eager = _eager_choices(list(map(list, inst.crossratios)), row, bool(inst.points))
        expected = [
            (Pairing(labels[:2], labels[2:]), (last, tuple(map(row, labels)), kept))
            for last, labels, kept in eager
        ]
        assert list(resolution_choices(inst)) == expected
        checked += len(expected)
    assert checked > len(CORPUS)


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
    roots = [*map(golden_instance, golden_eval_multi_shapes()), multi(7, 6)]
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


def test_evaluation_computes_no_relabelling_invariant_key(monkeypatch):
    # One memo, keyed by each class's degree and exact rows: the evaluation
    # never calls rows_key or canonical_key, and values each row set once.
    calls = []

    def counting(name, key):
        return lambda *args: calls.append(name) or key(*args)

    monkeypatch.setattr(engine_module, "rows_key", counting("rows_key", rows_key))
    monkeypatch.setattr(engine_module, "canonical_key", counting("canonical_key", canonical_key))
    for inst in [*map(golden_instance, golden_eval_multi_shapes()), multi(7, 6)]:
        engine = Engine()
        engine.evaluate(inst)
        assert len(engine._memo) == engine._nodes
    assert calls == []


@pytest.mark.parametrize("shape", golden_eval_multi_shapes(), ids=lambda shape: shape["id"])
def test_relabelled_copy_values_no_new_class(shape):
    # Permuting the labels, cross-ratios kept in order, keeps every class's rows.
    inst = golden_instance(shape)
    labels = list(inst.labels)
    random.Random(shape["id"]).shuffle(labels)
    moved = inst.relabel(dict(zip(inst.labels, labels)))
    assert moved != inst
    engine = Engine()
    assert engine.evaluate(inst) == shape["count"]
    nodes = engine._nodes
    assert engine.evaluate(moved) == shape["count"]
    assert engine._nodes == nodes


@pytest.mark.parametrize("shape", golden_eval_multi_shapes(), ids=lambda shape: shape["id"])
def test_reordered_cross_ratios_count_the_same(shape):
    # Reordering the cross-ratios moves the rows' membership columns, so the
    # exact-rows memo may value the copy's classes anew, beside the original's.
    inst = golden_instance(shape)
    engine = Engine()
    assert engine.evaluate(inst) == shape["count"]
    for listing in (inst.crossratios[::-1], inst.crossratios[1:] + inst.crossratios[:1]):
        assert engine.evaluate(Instance(inst.degree, inst.conditions, listing)) == shape["count"]
