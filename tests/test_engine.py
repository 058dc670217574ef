"""Tests for the counting engine: base cases, recursion, invariance."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosskont import (
    Instance,
    ResourceLimitError,
    ValidationError,
    admissible_line_pair,
    evaluate,
    evaluate_invariance_battery,
    kontsevich,
)
from crosskont.cli import render_trace
from crosskont.conditions import all_pairings, canonical_key, label_rows, rows_key
from crosskont.engine import (
    Engine,
    base_degree_zero,
    base_from_rows,
    base_no_crossratios,
    resolution_choices,
)
from crosskont.splits import build_subinstances, orbit_rows, split_orbits

from corpus import CORPUS, SMALL, one_cross_ratio_family

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


def test_degree_zero_rigid_stars():
    assert evaluate(Instance.build(0, lines={1: 2, 2: 3}, free=[3])) == 6
    assert evaluate(Instance.build(0, points=[1], free=[2, 3])) == 1
    assert (
        evaluate(Instance.build(0, lines={1: 2, 2: 3}, free=[3, 4], crossratios=[[1, 2, 3, 4]]))
        == 6
    )
    assert (
        evaluate(Instance.build(0, points=[1], free=[2, 3, 4], crossratios=[[1, 2, 3, 4]])) == 1
    )


def test_degree_zero_loose_shapes_count_zero():
    assert evaluate(Instance.build(0, points=[1], lines={2: 2}, free=[3, 4])) == 0
    assert evaluate(Instance.build(0, points=[1, 2], free=[3, 4, 5])) == 0
    assert evaluate(Instance.build(0, lines={1: 3}, free=[2])) == 0
    assert evaluate(Instance.build(0, lines={1: 1, 2: 1, 3: 1}, free=[4])) == 0


def test_base_functions_agree_without_cross_ratios():
    for inst in CORPUS:
        if inst.crossratios:
            continue
        assert base_no_crossratios(inst) == evaluate(inst)
        if inst.degree == 0:
            assert base_degree_zero(inst) == base_no_crossratios(inst)


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
    # remaining entries both multi lines, starves the far side
    for a, b in ((1, 2), (1, 3), (2, 3)):
        assert not admissible_line_pair(inst, 1, a, b)
    for a, b in ((1, 5), (2, 5), (3, 5)):
        assert admissible_line_pair(inst, 1, a, b)


def test_resource_budget_is_enforced():
    with pytest.raises(ResourceLimitError):
        evaluate(WORKED, max_nodes=1)


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
    value, node = Engine().evaluate_traced(WORKED23)
    assert value == 6
    assert node.rule == "split"
    assert node.last == 1
    assert len(node.terms) == 1
    outer = node.terms[0]
    assert outer.left.value * outer.right.value == 6
    assert outer.left.rule == "split"
    assert len(outer.left.terms) == 1
    inner = outer.left.terms[0]
    assert inner.left.rule == "base"
    assert inner.right.rule == "base"


def test_trace_marks_memoized_hits():
    engine = Engine()
    engine.evaluate(WORKED23)
    _, node = engine.evaluate_traced(WORKED23)
    assert node.rule == "memo"
    assert node.value == 6


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


def _golden_eval_multi_shapes():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "eval_multi.json"
    return json.loads(path.read_text())["shapes"]


def _golden_instance(shape) -> Instance:
    return Instance.build(
        shape["degree"],
        points=shape["points"],
        lines=[tuple(line) for line in shape["lines"]],
        free=shape["free"],
        crossratios=shape["crossratios"],
    )


def test_trace_text_is_pinned_past_the_corpus():
    # One SHA-256 over the rendered traces of the family at d = 3, 4, 5 and
    # the golden shapes, recorded when the trace came from a label-level
    # evaluation of its own. A change that alters the text updates this pin.
    sha = hashlib.sha256()
    instances = [one_cross_ratio_family(d, 2, 3) for d in (3, 4, 5)]
    instances += [_golden_instance(shape) for shape in _golden_eval_multi_shapes()]
    for inst in instances:
        _, node = Engine().evaluate_traced(inst)
        sha.update("\n".join(render_trace(node)).encode() + b"\n")
    assert sha.hexdigest() == "6f480068edba482bc423154ea0e7645c83d07b58e5bb5cbdcf41ea85cdaf2fa5"


def _check_trace(inst) -> int:
    """Check the trace against the orbit evaluation; return the expanded split nodes.

    At every expanded split node, the label-level terms (each split with
    multiplicity one) must sum to the node's value, which comes from the
    orbit evaluation's memo.
    """
    value, root = Engine().evaluate_traced(inst)
    assert value == root.value == Engine().evaluate(inst)
    nodes, stack = 0, [root]
    while stack:
        node = stack.pop()
        if node.rule == "split":
            assert sum(term.term for term in node.terms) == node.value
            nodes += 1
            stack += [child for term in node.terms for child in (term.left, term.right)]
    return nodes


def test_orbit_splits_match_label_level_splits_on_the_corpus():
    checked = [inst for inst in CORPUS if inst.crossratios]
    assert sum(_check_trace(inst) for inst in checked) > len(checked) > 30


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("weights", [(1, 1), (2, 3)])
def test_orbit_splits_match_label_level_splits_on_the_family(degree, weights):
    # one cross-ratio: only the root splits, over every label-level split
    assert _check_trace(one_cross_ratio_family(degree, *weights)) == 1


@pytest.mark.parametrize("shape", _golden_eval_multi_shapes(), ids=lambda shape: shape["id"])
def test_orbit_splits_match_label_level_splits_on_the_golden_shapes(shape):
    inst = _golden_instance(shape)
    assert _check_trace(inst) > 0
    assert evaluate(inst) == shape["count"]


def _check_orbit_rows(inst, last, pairing) -> int:
    """Compare each side's rows with the sub-instance built for it; return the sides seen."""
    sides = 0
    for split, _, rows1, rows2 in orbit_rows(inst, last, pairing):
        pair = build_subinstances(inst, split)
        for side, rows, sub in ((split.side1, rows1, pair.side1), (split.side2, rows2, pair.side2)):
            assert rows == label_rows(sub)
            assert rows_key(side.degree, rows) == canonical_key(sub)
            if not sub.crossratios:
                assert base_from_rows(side.degree, rows) == base_no_crossratios(sub)
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


def _split_nodes(inst):
    """Every distinct instance the engine resolves below ``inst``, with its default choice."""
    nodes = {}
    stack = [inst]
    while stack:
        node = stack.pop()
        key = canonical_key(node)
        if key in nodes or not node.crossratios or node.degree == 0:
            continue
        choice = nodes[key] = (node, next(resolution_choices(node), None))
        if choice[1] is not None:
            last, pairing, _ = choice[1]
            for split, _ in split_orbits(node, last, pairing):
                pair = build_subinstances(node, split)
                stack += [pair.side1, pair.side2]
    return nodes.values()


@pytest.mark.parametrize("shape", _golden_eval_multi_shapes(), ids=lambda shape: shape["id"])
def test_side_rows_match_the_built_sub_instances_on_the_golden_shapes(shape):
    for node, choice in _split_nodes(_golden_instance(shape)):
        if choice is not None:
            last, pairing, _ = choice
            _check_orbit_rows(node, last, pairing)


# Engine()._nodes after evaluate, as recorded before sides were keyed from their rows.
GOLDEN_NODES = {
    "eval-multi-1": 43, "eval-multi-36": 46, "eval-multi-14": 38, "eval-multi-12": 44,
    "eval-multi-19": 60, "eval-multi-43": 62, "eval-multi-37": 74, "eval-multi-72": 30,
    "eval-multi-40": 119, "eval-multi-5": 50, "eval-multi-67": 73, "eval-multi-4": 112,
    "eval-multi-48": 105, "eval-multi-92": 303, "eval-multi-110": 49, "eval-multi-2": 79,
}


@pytest.mark.parametrize("shape", _golden_eval_multi_shapes(), ids=lambda shape: shape["id"])
def test_node_count_is_pinned_on_the_golden_shapes(shape):
    engine = Engine()
    engine.evaluate(_golden_instance(shape))
    assert engine._nodes == GOLDEN_NODES[shape["id"]]


@pytest.mark.parametrize("degree, nodes", [(2, 7), (3, 13), (4, 19), (5, 25)])
@pytest.mark.parametrize("weights", [(1, 1), (2, 3)])
def test_node_count_is_pinned_on_the_family(degree, nodes, weights):
    engine = Engine()
    engine.evaluate(one_cross_ratio_family(degree, *weights))
    assert engine._nodes == nodes


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
