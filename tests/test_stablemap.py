"""Tests for plane stable maps, evaluation matrices and split checks."""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosskont import CrossRatio, stablemap
from crosskont.conditions import Pairing, all_pairings
from crosskont.splits import ONE_ONE, TWO_ZERO_SIDE1_FIXED
from crosskont.stablemap import (
    BoundedEdge,
    End,
    EndTag,
    SplitReport,
    StableMap,
    check_split_multiplicity,
    ev_matrix,
    find_satisfying_vertex,
    integer_determinant,
    multiplicity,
    stablemap_from_dict,
)

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_map(name: str):
    return stablemap_from_dict(json.loads((FIXTURES / name).read_text()))


def pinned_star() -> StableMap:
    return StableMap(
        ("v",),
        (),
        (
            End(1, "v", (0, 0), EndTag.point()),
            End(2, "v", (0, 0), EndTag.free()),
            End(3, "v", (0, 0), EndTag.free()),
        ),
        1,
    )


def test_line_fixture_reproduces_the_reference_matrix():
    plane_map, crossratios = load_map("c2_01.json")
    plane_map.check()
    matrix = ev_matrix(plane_map)
    assert matrix.columns == ("x", "y", "l1", "l2", "l3")
    assert matrix.row_labels == ("5.x", "5.y", "6", "7", "8")
    assert matrix.rows == (
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 1, 1, 0, 0),
        (1, 0, 0, -1, 0),
        (1, 0, 0, 0, 1),
    )
    assert matrix.is_square
    assert abs(matrix.det()) == 1
    assert multiplicity(plane_map, crossratios) == 1


def test_swapping_the_degenerated_tag_kills_the_count():
    plane_map, crossratios = load_map("c2_10.json")
    plane_map.check()
    matrix = ev_matrix(plane_map)
    # the (1, 0) normal repeats the base x-row, so the matrix drops rank
    assert matrix.rows[2] == matrix.rows[0]
    assert multiplicity(plane_map, crossratios) == 0


def test_pinned_star_gives_the_identity_matrix():
    star = pinned_star()
    star.check()
    matrix = ev_matrix(star)
    assert matrix.rows == ((1, 0), (0, 1))
    assert matrix.columns == ("x", "y")
    assert multiplicity(star) == 1


def test_edge_off_every_path_gives_a_zero_column():
    plane_map = StableMap(
        ("p", "q"),
        (BoundedEdge("b", "p", "q", (1, 1)),),
        (
            End(1, "p", (0, 0), EndTag.point()),
            End(3, "p", (-1, 0), None),
            End(4, "p", (0, -1), None),
            End(5, "q", (1, 1), None),
        ),
        1,
    )
    plane_map.check()
    matrix = ev_matrix(plane_map)
    assert matrix.columns == ("x", "y", "b")
    assert matrix.rows == ((1, 0, 0), (0, 1, 0))


def test_repeated_length_columns_are_singular():
    # both (1, 1) edges sit on the path to point 2, and the line normal
    # annihilates their direction, so their columns coincide
    plane_map = StableMap(
        ("b", "p0", "p1", "p2"),
        (
            BoundedEdge("d", "b", "p0", (1, 0)),
            BoundedEdge("c1", "p0", "p1", (1, 1)),
            BoundedEdge("c2", "p1", "p2", (1, 1)),
        ),
        (
            End(1, "b", (0, 0), EndTag.point()),
            End(3, "b", (-1, 0), None),
            End(4, "p0", (0, -1), None),
            End(6, "p1", (0, 0), EndTag.line((1, -1), 1)),
            End(2, "p2", (0, 0), EndTag.point()),
            End(5, "p2", (1, 1), None),
        ),
        1,
    )
    plane_map.check()
    matrix = ev_matrix(plane_map)
    assert matrix.is_square
    first = matrix.columns.index("c1")
    second = matrix.columns.index("c2")
    assert all(row[first] == row[second] for row in matrix.rows)
    assert multiplicity(plane_map) == 0


def test_check_names_the_unbalanced_vertex():
    plane_map = StableMap(
        ("u", "w"),
        (BoundedEdge("uw", "u", "w", (1, 0)),),
        (End(1, "u", (0, 0), EndTag.point()), End(2, "w", (1, 0), None)),
        1,
    )
    with pytest.raises(ValueError, match="vertex u"):
        plane_map.check()


def test_check_rejects_nonstandard_ray_directions():
    plane_map = StableMap(
        ("v",),
        (),
        (
            End(1, "v", (0, 0), EndTag.point()),
            End(2, "v", (-1, 0), None),
            End(3, "v", (1, 0), None),
        ),
        1,
    )
    with pytest.raises(ValueError, match="not a standard"):
        plane_map.check()


def test_satisfying_vertex_of_a_star():
    star = StableMap(
        ("v",),
        (),
        (
            End(1, "v", (0, 0), EndTag.point()),
            End(2, "v", (0, 0), EndTag.free()),
            End(3, "v", (0, 0), EndTag.free()),
            End(4, "v", (0, 0), EndTag.free()),
        ),
        1,
    )
    star.check()
    cr = CrossRatio.of(1, 2, 3, 4)
    assert find_satisfying_vertex(star, cr) == "v"


def test_no_satisfying_vertex_when_paths_share_an_edge():
    plane_map = StableMap(
        ("u", "w"),
        (BoundedEdge("uw", "u", "w", (0, 0)),),
        (
            End(1, "u", (0, 0), EndTag.point()),
            End(2, "u", (0, 0), EndTag.free()),
            End(3, "w", (0, 0), EndTag.free()),
            End(4, "w", (0, 0), EndTag.free()),
        ),
        1,
    )
    plane_map.check()
    cr = CrossRatio.of(1, 2, 3, 4)
    for pairing in all_pairings(cr):
        assert find_satisfying_vertex(plane_map, cr, pairing) is None
    assert find_satisfying_vertex(plane_map, cr) is None


def test_satisfying_vertex_of_a_resolved_tree():
    plane_map = StableMap(
        ("v1", "v2"),
        (BoundedEdge("t", "v1", "v2", (0, 0)),),
        (
            End(1, "v1", (0, 0), EndTag.point()),
            End(2, "v1", (0, 0), EndTag.free()),
            End(5, "v1", (0, 0), EndTag.free()),
            End(3, "v2", (0, 0), EndTag.free()),
            End(4, "v2", (0, 0), EndTag.free()),
        ),
        1,
    )
    plane_map.check()
    cr = CrossRatio.of(1, 2, 3, 5)
    for pairing in all_pairings(cr):
        assert find_satisfying_vertex(plane_map, cr, pairing) == "v1"


def test_satisfying_vertex_is_pairing_independent_on_fixtures():
    for name in ("c2_01.json", "split_2_0.json", "split_1_1.json"):
        plane_map, crossratios = load_map(name)
        for cr in crossratios:
            where = {find_satisfying_vertex(plane_map, cr, p) for p in all_pairings(cr)}
            assert len(where) == 1
            assert where != {None}


def test_base_choice_does_not_change_the_multiplicity():
    for name in ("split_2_0.json", "split_1_1.json"):
        plane_map, crossratios = load_map(name)
        reference = multiplicity(plane_map, crossratios)
        points = [
            end.label
            for end in plane_map.ends
            if end.tag is not None and end.tag.kind == "point"
        ]
        assert len(points) >= 2
        for label in points:
            moved = dataclasses.replace(plane_map, base=label)
            moved.check()
            assert multiplicity(moved, crossratios) == reference


def test_row_order_does_not_change_the_absolute_determinant():
    matrix = ev_matrix(load_map("c2_01.json")[0])
    reference = abs(integer_determinant(list(matrix.rows)))
    for permuted in itertools.islice(itertools.permutations(matrix.rows), 24):
        assert abs(integer_determinant(list(permuted))) == reference


def test_integer_determinant_known_values():
    assert integer_determinant([]) == 1
    assert integer_determinant([[5]]) == 5
    assert integer_determinant([[1, 2], [3, 4]]) == -2
    assert integer_determinant([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert integer_determinant([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    with pytest.raises(ValueError, match="not square"):
        integer_determinant([[1, 2], [3]])


def fraction_determinant(rows) -> Fraction:
    rows = [[Fraction(x) for x in row] for row in rows]
    n = len(rows)
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    product = Fraction(sign)
    for i in range(n):
        product *= rows[i][i]
    return product


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_integer_determinant_matches_exact_elimination(rows):
    assert integer_determinant([list(r) for r in rows]) == fraction_determinant(rows)


@st.composite
def sparse_matrices(draw):
    """Square matrices up to 12 x 12 with at most 30 % of their entries nonzero."""
    n = draw(st.integers(min_value=1, max_value=12))
    cells = [(i, j) for i in range(n) for j in range(n)]
    chosen = draw(st.lists(st.sampled_from(cells), max_size=3 * n * n // 10, unique=True))
    rows = [[0] * n for _ in range(n)]
    for i, j in chosen:
        rows[i][j] = draw(st.integers(min_value=-50, max_value=50).filter(bool))
    return rows


@given(sparse_matrices())
def test_integer_determinant_matches_exact_elimination_on_sparse_matrices(rows):
    assert integer_determinant(rows) == fraction_determinant(rows)


def _leibniz(rows) -> int:
    """The determinant as the signed sum over permutations, sign by inversion count."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


_SPARSE_ENTRIES = [0] * 24 + [-3, -2, -1, 1, 2, 3]  # about 20 % nonzero


@st.composite
def small_matrices(draw):
    """n x n, n <= 6, entries -3..3: dense, about 20 % sparse, or with a zero or repeated row."""
    n = draw(st.integers(min_value=1, max_value=6))
    shape = draw(st.sampled_from(["dense", "sparse", "zero row", "repeated row"]))
    entries = st.sampled_from(_SPARSE_ENTRIES) if shape == "sparse" else st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if shape == "zero row":
        rows[i] = [0] * n
    elif shape == "repeated row" and i != j:
        rows[i] = list(rows[j])
    return rows


@given(small_matrices(), st.data())
def test_integer_determinant_is_the_signed_leibniz_sum(rows, data):
    n = len(rows)
    value = integer_determinant(rows)
    assert value == _leibniz(rows)
    if any(not any(row) for row in rows) or len(set(map(tuple, rows))) < n:
        assert value == 0
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if a != b:
        swapped = [list(row) for row in rows]
        for row in swapped:
            row[a], row[b] = row[b], row[a]
        assert integer_determinant(swapped) == -value


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


@functools.cache
def _benchmark_maps() -> list[tuple[str, dict]]:
    """The mult workload's documents: the four map fixtures and the 70 stored draws."""
    items = _perfbench_module("workloads").mult(1)
    return [(item.name, item.doc) for item in items]


def test_benchmark_maps_match_the_independent_oracle():
    # perfbench/oracles.py builds the matrix from its own tree walk and
    # takes the determinant over Fraction; it shares no code with the package
    oracles = _perfbench_module("oracles")
    maps = _benchmark_maps()
    assert len(maps) == 74
    for name, doc in maps:
        plane_map, crossratios = stablemap_from_dict(doc)
        assert multiplicity(plane_map, crossratios) == oracles.map_multiplicity_oracle(doc), name
        rows = ev_matrix(plane_map).rows
        assert integer_determinant(rows) == oracles.fraction_determinant(rows), name


def _ev_matrix_by_climbing(plane_map: StableMap):
    """(rows, row labels, columns), each conditioned end climbing to the base on its own.

    The parent table comes from a breadth-first search written here, so the
    reference shares no tree walk with ``ev_matrix``.
    """
    neighbours = {vertex: [] for vertex in plane_map.vertices}
    for edge in plane_map.edges:
        neighbours[edge.tail].append((edge.head, edge, 1))
        neighbours[edge.head].append((edge.tail, edge, -1))
    base_vertex = plane_map.end(plane_map.base).vertex
    parent = {base_vertex: None}
    queue = [base_vertex]
    for here in queue:
        for far, edge, sign in neighbours[here]:
            if far not in parent:
                parent[far] = (here, edge, sign)
                queue.append(far)
    length_edges = [edge for edge in plane_map.edges if not edge.contracted]
    column_of = {edge.id: 2 + i for i, edge in enumerate(length_edges)}
    rows, labels = [], []
    for end in sorted(plane_map.ends, key=lambda e: e.label):
        if end.tag is None or end.tag.kind == "free":
            continue
        position = [[1, 0] + [0] * len(length_edges), [0, 1] + [0] * len(length_edges)]
        here = end.vertex
        while parent[here] is not None:
            here, edge, sign = parent[here]
            if not edge.contracted:
                for coord in range(2):
                    position[coord][column_of[edge.id]] = sign * edge.vector[coord]
        if end.tag.kind == "point":
            rows += [tuple(position[0]), tuple(position[1])]
            labels += [f"{end.label}.x", f"{end.label}.y"]
        else:
            (nx, ny), w = end.tag.normal, end.tag.weight
            rows.append(tuple(w * (nx * a + ny * b) for a, b in zip(*position)))
            labels.append(str(end.label))
    return tuple(rows), tuple(labels), ("x", "y") + tuple(edge.id for edge in length_edges)


def test_single_walk_keeps_the_evaluation_matrix():
    # the four fixtures and the benchmark's draw_map maps, d = 4..8
    for name, doc in _benchmark_maps():
        plane_map, _ = stablemap_from_dict(doc)
        matrix = ev_matrix(plane_map)
        expected = _ev_matrix_by_climbing(plane_map)
        assert (matrix.rows, matrix.row_labels, matrix.columns) == expected, name


def _deep_tripod(length: int) -> StableMap:
    """A tripod whose (1, 1) leg is a chain of ``length`` vertices, a free end at each.

    The base point sits at the centre and a second point at the tip.
    """
    chain = [f"c{i}" for i in range(length)]
    edges = tuple(
        BoundedEdge(f"e{i}", tail, head, (1, 1))
        for i, (tail, head) in enumerate(zip(["o"] + chain, chain))
    )
    ends = [
        End(1, "o", (0, 0), EndTag.point()),
        End(2, "o", (-1, 0), None),
        End(3, "o", (0, -1), None),
        End(4, chain[-1], (1, 1), None),
        End(5, chain[-1], (0, 0), EndTag.point()),
    ]
    ends += [End(6 + i, vertex, (0, 0), EndTag.free()) for i, vertex in enumerate(chain[:-1])]
    return StableMap(("o", *chain), edges, tuple(ends), 1)


def test_ev_matrix_walks_a_deep_chain_without_recursion():
    deep = _deep_tripod(3000)
    deep.check()
    matrix = ev_matrix(deep)
    assert matrix.row_labels == ("1.x", "1.y", "5.x", "5.y")
    assert len(matrix.columns) == 2 + 3000
    assert matrix.rows[2] == (1, 0) + (1,) * 3000
    assert matrix.rows[3] == (0, 1) + (1,) * 3000
    assert matrix.rows == _ev_matrix_by_climbing(deep)[0]


def _exit_slots(plane_map: StableMap) -> dict[str, dict[int, tuple[str, object]]]:
    """Per vertex, the slot by which each end's path leaves it.

    An end at the vertex leaves by itself, ``("end", label)``; any other
    end by the first edge towards it, ``("edge", id)``.  Every vertex runs
    a breadth-first search written here, so the reference shares no tree
    walk with the package.
    """
    neighbours = {vertex: [] for vertex in plane_map.vertices}
    for edge in plane_map.edges:
        neighbours[edge.tail].append((edge.head, edge.id))
        neighbours[edge.head].append((edge.tail, edge.id))
    exits = {}
    for vertex in plane_map.vertices:
        first_edge = {vertex: None}
        queue = [vertex]
        for here in queue:
            for far, edge_id in neighbours[here]:
                if far not in first_edge:
                    first_edge[far] = edge_id if here == vertex else first_edge[here]
                    queue.append(far)
        exits[vertex] = {}
        for end in plane_map.ends:
            edge_id = first_edge[end.vertex]
            exits[vertex][end.label] = ("end", end.label) if edge_id is None else ("edge", edge_id)
    return exits


def _reference_satisfying_vertex(exits, entries) -> str | None:
    """The vertex at which the four entries leave by four distinct slots, if any."""
    found = [vertex for vertex, exit in exits.items() if len({exit[e] for e in entries}) == 4]
    assert len(found) <= 1
    return found[0] if found else None


def test_satisfying_vertex_matches_the_distinct_exit_reference():
    # every 4-subset of ends on the four fixtures, 25 seeded ones on each drawn map
    rng = random.Random(1)
    checked = 0
    for name, doc in _benchmark_maps():
        plane_map, _ = stablemap_from_dict(doc)
        exits = _exit_slots(plane_map)
        labels = sorted(end.label for end in plane_map.ends)
        if name.startswith("fixture-"):
            subsets = list(itertools.combinations(labels, 4))
        else:
            subsets = [rng.sample(labels, 4) for _ in range(25)]
        for subset in subsets:
            cr = CrossRatio.of(*subset)
            expected = _reference_satisfying_vertex(exits, subset)
            for pairing in all_pairings(cr):
                assert find_satisfying_vertex(plane_map, cr, pairing) == expected, (name, pairing)
            checked += 1
    assert checked == sum(math.comb(n, 4) for n in (7, 7, 17, 12)) + 70 * 25


def test_route_tables_match_the_distinct_exit_reference():
    for name, doc in _benchmark_maps()[:4]:
        plane_map, crossratios = stablemap_from_dict(doc)
        exits = _exit_slots(plane_map)
        slot_base = max(end.label for end in plane_map.ends) + 1
        slot_of = {("end", end.label): end.label for end in plane_map.ends}
        slot_of |= {("edge", edge.id): slot_base + i for i, edge in enumerate(plane_map.edges)}
        expected = {}
        for j, cr in enumerate(crossratios):
            vertex = _reference_satisfying_vertex(exits, cr.entries)
            expected.setdefault(vertex, {})[j] = {e: slot_of[exits[vertex][e]] for e in cr}
        profiles = stablemap._vertex_profiles(plane_map, crossratios)
        assert {v: dict(profile.routes) for v, profile in profiles.items()} == expected, name


@pytest.mark.parametrize("name", ["c2_01.json", "c2_10.json", "split_1_1.json", "split_2_0.json"])
def test_one_tree_search_per_map_question(monkeypatch, name):
    plane_map, crossratios = load_map(name)
    searches = []
    search = StableMap._parents
    monkeypatch.setattr(
        StableMap, "_parents", lambda self, *args: searches.append(args) or search(self, *args)
    )
    multiplicity(plane_map, crossratios)
    # check, the cross-ratios' profiles and ev_matrix
    assert len(searches) <= 3
    for cr in crossratios:
        for pairing in all_pairings(cr):
            searches.clear()
            find_satisfying_vertex(plane_map, cr, pairing)
            assert len(searches) == 1


def test_satisfying_vertex_across_a_deep_chain_without_recursion():
    deep = _deep_tripod(3000)
    deep.check()
    # 1, 2 and 3 sit at the centre and leave it by themselves, 5 at the tip leaves by e0
    reaching = CrossRatio.of(1, 2, 3, 5)
    for pairing in all_pairings(reaching):
        assert find_satisfying_vertex(deep, reaching, pairing) == "o"
    # 4 and 5 sit at the tip, 1 and 6 both leave it by e2999 down the chain
    folded = CrossRatio.of(1, 4, 5, 6)
    for pairing in all_pairings(folded):
        assert find_satisfying_vertex(deep, folded, pairing) is None
    # the edge slots start past the largest label, 6 + 2998
    routes = stablemap._vertex_profiles(deep, [reaching])["o"].routes
    assert routes == {0: {1: 1, 2: 2, 3: 3, 5: 3005}}


def test_satisfying_vertex_on_an_unchecked_map_raises_the_checks_message():
    free = lambda label, vertex: End(label, vertex, (0, 0), EndTag.free())
    stray_end = StableMap(("u",), (), (free(1, "x"), *(free(i, "u") for i in (2, 3, 4))), 1)
    stray_edge = StableMap(
        ("u", "w"),
        (BoundedEdge("e", "u", "z", (1, 0)),),
        tuple(free(i, "u") for i in (1, 2, 3, 4)),
        1,
    )
    cr = CrossRatio.of(1, 2, 3, 4)
    for plane_map, message in [
        (stray_end, "end 1 sits at an unknown vertex"),
        (stray_edge, "edge e touches an unknown vertex"),
    ]:
        for pairing in [None, *all_pairings(cr)]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                find_satisfying_vertex(plane_map, cr, pairing)
        with pytest.raises(ValueError, match=f"^{message}$"):
            plane_map.check()


def test_satisfying_vertex_across_components_is_a_value_error():
    apart = StableMap(
        ("u", "w"),
        (),
        (
            End(1, "u", (0, 0), EndTag.point()),
            End(3, "u", (0, 0), EndTag.free()),
            End(2, "w", (0, 0), EndTag.free()),
            End(4, "w", (0, 0), EndTag.free()),
        ),
        1,
    )
    cr = CrossRatio.of(1, 2, 3, 4)
    with pytest.raises(ValueError, match="not connected"):
        find_satisfying_vertex(apart, cr, Pairing.of((1, 2), (3, 4)))


def test_multiplicity_requires_a_square_matrix():
    plane_map, crossratios = load_map("c2_01.json")
    loose = dataclasses.replace(
        plane_map,
        ends=tuple(
            end if end.label != 8 else dataclasses.replace(end, tag=EndTag.free())
            for end in plane_map.ends
        ),
    )
    loose.check()
    with pytest.raises(ValueError, match="rigid"):
        multiplicity(loose, crossratios)


def test_multiplicity_requires_satisfied_cross_ratios():
    plane_map, _ = load_map("split_2_0.json")
    with pytest.raises(ValueError, match="no satisfying vertex"):
        multiplicity(plane_map, [CrossRatio.of(1, 2, 5, 6)])


@pytest.mark.parametrize("name", ["c2_01.json", "split_2_0.json", "split_1_1.json"])
def test_only_vertices_with_cross_ratios_are_resolved(monkeypatch, name):
    plane_map, crossratios = load_map(name)
    expected = multiplicity(plane_map, crossratios)
    resolved = []
    count = stablemap.cross_ratio_multiplicity
    spy = lambda profile: resolved.append(profile) or count(profile)
    monkeypatch.setattr(stablemap, "cross_ratio_multiplicity", spy)
    assert multiplicity(plane_map, crossratios) == expected
    satisfying = {find_satisfying_vertex(plane_map, cr) for cr in crossratios}
    assert 0 < len(resolved) == len(satisfying) < len(plane_map.vertices)
    assert all(profile.routes for profile in resolved)


def test_split_check_on_the_fixed_side_cut():
    plane_map, crossratios = load_map("split_2_0.json")
    plane_map.check()
    assert multiplicity(plane_map, crossratios) == 1
    report = check_split_multiplicity(plane_map, "e", crossratios)
    assert report.kind == TWO_ZERO_SIDE1_FIXED
    assert report.multiplicity == 1
    assert report.predicted == 1
    assert report.relations is None
    assert tuple(value for _, value in report.parts) == (1, 1)
    assert report.ok


def test_split_check_on_the_one_one_cut():
    plane_map, crossratios = load_map("split_1_1.json")
    plane_map.check()
    assert multiplicity(plane_map, crossratios) == 1
    report = check_split_multiplicity(plane_map, "e", crossratios)
    assert report.kind == ONE_ONE
    assert report.multiplicity == 1
    assert report.predicted == 1
    parts = dict(report.parts)
    assert parts["side 2, L_01"] == 1
    assert parts["side 2, L_10"] == 0
    assert parts["side 1, L_10"] == 1
    assert report.relations == (0, 0)
    assert report.ok


def test_split_check_survives_a_dead_side():
    data = json.loads((FIXTURES / "split_2_0.json").read_text())
    for end in data["ends"]:
        if end["label"] == 3:
            end["condition"]["normal"] = [0, 1]
    plane_map, crossratios = stablemap_from_dict(data)
    plane_map.check()
    assert multiplicity(plane_map, crossratios) == 0
    report = check_split_multiplicity(plane_map, "e", crossratios)
    assert report.multiplicity == 0
    assert report.predicted == 0
    assert report.ok


SPLIT_REPORTS = {
    "split_2_0.json": SplitReport(
        TWO_ZERO_SIDE1_FIXED, 1, 1, (("side 1", 1), ("side 2", 1)), None
    ),
    "split_1_1.json": SplitReport(
        ONE_ONE,
        1,
        1,
        (("side 1, L_10", 1), ("side 1, L_01", 1), ("side 2, L_10", 0), ("side 2, L_01", 1)),
        (0, 0),
    ),
}


@pytest.mark.parametrize("name", sorted(SPLIT_REPORTS))
def test_split_report_is_pinned_field_by_field(name):
    plane_map, crossratios = load_map(name)
    assert check_split_multiplicity(plane_map, "e", crossratios) == SPLIT_REPORTS[name]


@pytest.mark.parametrize("name", sorted(SPLIT_REPORTS))
def test_split_check_builds_each_side_once(monkeypatch, name):
    # Every tag of a side's new end is put on its one build: rebuilding
    # the side per tag made 6 builds on the 1/1 fixture.
    plane_map, crossratios = load_map(name)
    built = []
    side_map = stablemap._side_map
    monkeypatch.setattr(stablemap, "_side_map", lambda *args: built.append(args) or side_map(*args))
    assert check_split_multiplicity(plane_map, "e", crossratios) == SPLIT_REPORTS[name]
    assert len(built) == 2
    assert {args[3] for args in built} == ({"W", "v2"} if name == "split_2_0.json" else {"B", "V"})


def test_split_check_rejects_a_cross_ratio_with_two_entries_on_each_side(monkeypatch):
    # Across the cut, the pairs of such a cross-ratio meet in both of the
    # edge's vertices or in none, so the map's own multiplicity rejects it
    # first; with that stubbed, the cut's routing rejects it too.
    plane_map, _ = load_map("split_2_0.json")
    crossing = [CrossRatio.of(1, 3, 2, 6)]  # 1 and 3 on W's side, 2 and 6 on v2's
    with pytest.raises(ValueError, match="no satisfying vertex"):
        check_split_multiplicity(plane_map, "e", crossing)
    monkeypatch.setattr(stablemap, "multiplicity", lambda map, crossratios=(): 1)
    with pytest.raises(ValueError, match="^a cross-ratio has two entries on each side of edge 'e'$"):
        check_split_multiplicity(plane_map, "e", crossing)


def test_split_check_rejects_deficiencies_of_no_identity():
    # A line made a point on W's side and one made free on v2's keep the
    # matrix square, but the sides' deficiencies become (-1, 3).
    data = json.loads((FIXTURES / "split_2_0.json").read_text())
    for end in data["ends"]:
        if end["label"] in (3, 6):
            end["condition"] = {"kind": "point" if end["label"] == 3 else "free"}
    plane_map, crossratios = stablemap_from_dict(data)
    assert ev_matrix(plane_map).is_square
    multiplicity(plane_map, crossratios)
    with pytest.raises(ValueError, match=r"^deficiencies \(-1, 3\) match no splitting identity$"):
        check_split_multiplicity(plane_map, "e", crossratios)


def test_split_check_needs_a_contracted_edge():
    plane_map, crossratios = load_map("split_2_0.json")
    with pytest.raises(ValueError, match="not contracted"):
        check_split_multiplicity(plane_map, "x", crossratios)


def test_reader_rejects_unknown_schemas_and_kinds():
    with pytest.raises(ValueError, match="schema"):
        stablemap_from_dict({"schema": "stablemap/2"})
    data = json.loads((FIXTURES / "c2_01.json").read_text())
    data["ends"][0]["condition"] = {"kind": "mystery"}
    with pytest.raises(ValueError, match="mystery"):
        stablemap_from_dict(data)
