"""The oracles agree with the package on small cases."""

import json
import random

import pytest

import crosskont
from crosskont.cli import profile_from_dict
from crosskont.stablemap import integer_determinant, multiplicity, stablemap_from_dict
from oracles import (
    check_resolution_trees,
    cr1_closed_form,
    fraction_determinant,
    kontsevich_numbers,
    map_multiplicity_oracle,
)
from workloads import FIXTURES, GENERATORS, MAP_FIXTURES, _load_pool, draw_map


def test_kontsevich_numbers_match_the_package():
    assert kontsevich_numbers(7)[1:] == [crosskont.kontsevich(d) for d in range(1, 8)]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("wa, wb", [(1, 1), (2, 3)])
def test_closed_form_matches_the_engine(d, wa, wb):
    n = 3 * d - 2
    points = list(range(1, n + 1))
    inst = crosskont.Instance.build(
        d, points=points, lines={n + 1: wa, n + 2: wb}, crossratios=[[1, 2, n + 1, n + 2]]
    )
    assert crosskont.evaluate(inst) == cr1_closed_form(d, wa, wb)


def test_fraction_determinant_matches_integer_determinant():
    rng = random.Random(0)
    for n in range(1, 9):
        for _ in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert fraction_determinant(rows) == integer_determinant(rows)


def test_map_oracle_matches_the_package_on_fixtures_and_drawn_maps():
    docs = [json.loads((FIXTURES / f"{stem}.json").read_text()) for stem in MAP_FIXTURES]
    draws = _load_pool("maps")["draws"]
    docs += [draw_map(d, draws[str(d)][0]) for d in (4, 5, 6)]
    for doc in docs:
        stable_map, crossratios = stablemap_from_dict(doc)
        assert map_multiplicity_oracle(doc) == multiplicity(stable_map, crossratios)


def test_drawn_maps_have_nonzero_multiplicity():
    for item in GENERATORS["mult"](1)[4:12]:
        assert map_multiplicity_oracle(item.doc) > 0


def _trees(doc):
    trees = crosskont.total_resolutions(profile_from_dict(doc))
    return [(tree.splits, tree.edge_of) for tree in trees]


def test_tree_check_accepts_the_package_answers():
    for item in GENERATORS["multcr"](2)[:5]:
        doc = item.doc
        assert check_resolution_trees(doc["slots"], doc["crossratios"], _trees(doc)) == []


def test_tree_check_rejects_repeats_and_wrong_edges():
    doc = {"schema": "profile/1", "slots": [1, 2, 3, 4, 5, 6],
           "crossratios": [[1, 2, 5, 6], [3, 4, 5, 6], [1, 2, 3, 4]]}
    trees = _trees(doc)
    assert len(trees) == 2
    assert check_resolution_trees(doc["slots"], doc["crossratios"], trees + trees[:1])
    splits, edge_of = trees[0]
    swapped = ((0, edge_of[1][1]), (1, edge_of[0][1]), edge_of[2])
    assert check_resolution_trees(doc["slots"], doc["crossratios"], [(splits, swapped)])
