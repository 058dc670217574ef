"""Explicit tropical stable maps and their multiplicities.

A stable map is a tree with labelled ends, each edge and end carrying
an integer direction; contracted ends (direction zero) carry condition
tags.  The evaluation matrix differentiates the positions of the
conditioned ends with respect to the position of a base end and the
lengths of the non-contracted bounded edges; a contracted bounded edge
is mapped to a point, so its length never enters the evaluation and it
gets no column.  The multiplicity of the map is the absolute
determinant of that matrix times the cross-ratio multiplicities of its
vertices.

Everything is combinatorial: no coordinates are ever assigned, since
directions along paths determine the matrix.  Sign conventions (edge
orientations, row order) are fixed but only |det| is meaningful.

Map fixtures are JSON documents with schema tag ``stablemap/1``::

    {
      "schema": "stablemap/1",
      "vertices": ["u5", "V"],
      "edges": [{"id": "l1", "tail": "u5", "head": "V",
                 "direction": [0, 1], "weight": 1}],
      "ends": [
        {"label": 5, "vertex": "u5", "direction": [0, 0],
         "condition": {"kind": "point"}},
        {"label": 9, "vertex": "u5", "direction": [0, -1]},
        {"label": 6, "vertex": "V", "direction": [0, 0],
         "condition": {"kind": "degenerated line", "type": "01"}}
      ],
      "base": 5,
      "crossratios": [[5, 6, 7, 8]]
    }

Conditions are ``{"kind": "point"}``, ``{"kind": "line", "normal":
[a, b], "weight": w}``, ``{"kind": "degenerated line", "type": "10" |
"01" | "1-1"}`` or ``{"kind": "free"}``; non-contracted ends carry none.
``weight`` on edges defaults to 1 and ``direction`` of an edge is
primitive and oriented tail to head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import compress
from typing import Mapping, Optional, Sequence

from .conditions import (
    FREE,
    LINE,
    POINT,
    Count,
    CrossRatio,
    Label,
    Pairing,
    all_pairings,
    deficiency,
    json_checked,
)
from .resolution import VertexProfile, check_valence, cross_ratio_multiplicity
from .splits import (
    KIND_OF_DEFICIENCIES,
    ONE_ONE,
    TWO_ZERO_SIDE1_FIXED,
    route_groups,
)

Vec = tuple[int, int]
Parents = dict[str, tuple[str, "BoundedEdge", int]]  # a search tree: vertex -> (parent, edge, sign)

DEGENERATED = "degenerated line"

_DEGENERATED_NORMALS: dict[str, Vec] = {"10": (1, 0), "01": (0, 1), "1-1": (1, -1)}
_STANDARD_DIRECTIONS: tuple[Vec, Vec, Vec] = ((-1, 0), (0, -1), (1, 1))


@dataclass(frozen=True, slots=True)
class EndTag:
    """Condition tag of a contracted end."""

    kind: str
    normal: Vec = (0, 0)
    weight: int = 1

    def __post_init__(self) -> None:
        if self.kind in (POINT, FREE):
            if self.normal != (0, 0) or self.weight != 1:
                raise ValueError(f"{self.kind} tags carry neither normal nor weight")
        elif self.kind == LINE:
            if self.normal == (0, 0):
                raise ValueError("line tags need a nonzero normal covector")
            if self.weight < 1:
                raise ValueError("line weight must be positive")
        elif self.kind == DEGENERATED:
            if self.normal not in _DEGENERATED_NORMALS.values():
                raise ValueError(f"degenerated line normal must be one of (1,0), (0,1), (1,-1)")
            if self.weight != 1:
                raise ValueError("degenerated lines have weight 1")
        else:
            raise ValueError(f"unknown tag kind {self.kind!r}")

    @classmethod
    def point(cls) -> "EndTag":
        return _POINT_TAG

    @classmethod
    def line(cls, normal: Vec, weight: int = 1) -> "EndTag":
        return cls(LINE, (normal[0], normal[1]), weight)

    @classmethod
    def degenerated(cls, code: str) -> "EndTag":
        if code not in _DEGENERATED_NORMALS:
            raise ValueError(f"degenerated line type must be 10, 01 or 1-1, got {code!r}")
        return cls(DEGENERATED, _DEGENERATED_NORMALS[code])

    @classmethod
    def free(cls) -> "EndTag":
        return _FREE_TAG


_POINT_TAG, _FREE_TAG = EndTag(POINT), EndTag(FREE)


@dataclass(frozen=True, slots=True)
class End:
    """One end of the tree; contracted iff its direction is zero."""

    label: Label
    vertex: str
    direction: Vec
    tag: EndTag | None = None

    def __post_init__(self) -> None:
        contracted = self.direction == (0, 0)
        if contracted and self.tag is None:
            raise ValueError(f"contracted end {self.label} needs a condition tag")
        if not contracted and self.tag is not None:
            raise ValueError(f"non-contracted end {self.label} cannot carry a condition")

    @property
    def contracted(self) -> bool:
        return self.direction == (0, 0)


@dataclass(frozen=True, slots=True)
class BoundedEdge:
    """Bounded edge with primitive direction oriented tail to head."""

    id: str
    tail: str
    head: str
    direction: Vec
    weight: int = 1

    def __post_init__(self) -> None:
        if self.tail == self.head:
            raise ValueError(f"edge {self.id} is a loop")
        if self.weight < 1:
            raise ValueError(f"edge {self.id} weight must be positive")
        if self.direction != (0, 0) and math.gcd(*self.direction) != 1:
            raise ValueError(f"edge {self.id} direction must be primitive")

    @property
    def contracted(self) -> bool:
        return self.direction == (0, 0)

    @property
    def vector(self) -> Vec:
        return (self.weight * self.direction[0], self.weight * self.direction[1])


@dataclass(frozen=True, slots=True)
class StableMap:
    """A rational tropical stable map to the plane, as pure combinatorics."""

    vertices: tuple[str, ...]
    edges: tuple[BoundedEdge, ...]
    ends: tuple[End, ...]
    base: Label

    def end(self, label: Label) -> End:
        for end in self.ends:
            if end.label == label:
                return end
        raise ValueError(f"no end labelled {label}")

    def edge(self, edge_id: str) -> BoundedEdge:
        for edge in self.edges:
            if edge.id == edge_id:
                return edge
        raise ValueError(f"no edge {edge_id!r}")

    def check(self) -> None:
        """Raise with a diagnostic unless the map is a balanced stable map.

        Checks tree shape, the balancing condition at every vertex (its
        sums taken in one pass over the edges and ends), that every
        non-contracted end has a standard direction, and that the base is
        a contracted end.  Balance then gives the degree pattern: the
        non-contracted ends sum to 0, and a·(−1, 0) + b·(0, −1) + c·(1, 1)
        = 0 forces a = b = c.
        """
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        labels = [end.label for end in self.ends]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate end labels")
        flow: dict[str, Vec] = dict.fromkeys(self.vertices, (0, 0))
        for edge in self.edges:
            if edge.tail not in flow or edge.head not in flow:
                raise ValueError(f"edge {edge.id} touches an unknown vertex")
            (tx, ty), (hx, hy), (x, y) = flow[edge.tail], flow[edge.head], edge.vector
            flow[edge.tail], flow[edge.head] = (tx + x, ty + y), (hx - x, hy - y)
        for end in self.ends:
            if end.vertex not in flow:
                raise ValueError(f"end {end.label} sits at an unknown vertex")
            (vx, vy), (x, y) = flow[end.vertex], end.direction
            flow[end.vertex] = (vx + x, vy + y)
        ids = [edge.id for edge in self.edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")
        if len(self.edges) != len(self.vertices) - 1:
            raise ValueError("the underlying graph is not a tree")
        if self.vertices and len(self._parents(self.vertices[0])) != len(self.vertices) - 1:
            raise ValueError("the underlying graph is not connected")
        for vertex, total in flow.items():
            if total != (0, 0):
                raise ValueError(f"vertex {vertex} is not balanced")
        for end in self.ends:
            if end.direction != (0, 0) and end.direction not in _STANDARD_DIRECTIONS:
                raise ValueError(
                    f"end {end.label} has direction {end.direction}, not a standard one"
                )
        base = self.end(self.base)
        if not base.contracted:
            raise ValueError("the base must be a contracted end")

    def _parents(self, root: str) -> Parents:
        """Search tree towards ``root``, parents before children; sign +1 on edges pointing away."""
        parents: Parents = {}
        adjacency: dict[str, list[tuple[str, BoundedEdge, int]]] = {v: [] for v in self.vertices}
        for edge in self.edges:
            adjacency[edge.tail].append((edge.head, edge, 1))
            adjacency[edge.head].append((edge.tail, edge, -1))
        queue = [root]
        for here in queue:
            for other, edge, sign in adjacency[here]:
                if other not in parents and other != root:
                    parents[other] = (here, edge, sign)
                    queue.append(other)
        return parents


def _path(parents: Parents, start: str, goal: str) -> list[str]:
    """Vertices from ``start`` to ``goal``, both ends climbing the search tree in turn.

    The climbs meet where one first reaches a vertex that the other has
    passed, so the cost is the path's length.
    """
    climbs = ([start], [goal])
    passed = ({start: 0}, {goal: 0})  # each climb's vertices and their positions on it
    side = 1  # the climb that moved last
    while climbs[side][-1] not in passed[1 - side]:
        if climbs[1 - side][-1] in parents:
            side = 1 - side
        elif climbs[side][-1] not in parents:
            raise ValueError("the underlying graph is not connected")
        climbs[side].append(parents[climbs[side][-1]][0])
        passed[side][climbs[side][-1]] = len(climbs[side]) - 1
    meet = climbs[side][-1]
    return climbs[0][: passed[0][meet] + 1] + climbs[1][: passed[1][meet]][::-1]


def _meeting_vertex(parents: Parents, vertex_of: dict[Label, str], pairing: Pairing) -> str | None:
    """The one vertex on the paths of both of the pairing's pairs, if there is one."""
    (a, b), (c, d) = pairing.first, pairing.second
    common = set(_path(parents, vertex_of[a], vertex_of[b]))
    common &= set(_path(parents, vertex_of[c], vertex_of[d]))
    return common.pop() if len(common) == 1 else None


def find_satisfying_vertex(
    map: StableMap, cr: CrossRatio, pairing: Pairing | None = None
) -> Optional[str]:
    """Vertex at which the cross-ratio is satisfied, if any.

    The paths induced by the two pairs must meet in exactly one vertex;
    satisfaction is independent of the chosen pairing, so the default
    pairing (two smallest entries grouped) decides it.  Ends in different
    components raise, and an unknown root or edge end with :meth:`StableMap.check`'s message.
    """
    if pairing is None:
        pairing = all_pairings(cr)[0]
    vertex_of = {label: map.end(label).vertex for label in cr}
    try:
        return _meeting_vertex(map._parents(vertex_of[pairing.first[0]]), vertex_of, pairing)
    except KeyError:  # an unknown vertex
        map.check()
        raise


@dataclass(frozen=True)
class EvMatrix:
    """Evaluation matrix of a stable map.

    Columns: the two coordinates of the base end's vertex, then one
    length per non-contracted bounded edge in the map's edge order.
    Rows, in ascending end-label order: two per point-conditioned end
    and one per line-conditioned end (the line's weighted normal paired
    with the end's evaluation).  Free ends contribute nothing.
    """

    rows: tuple[tuple[int, ...], ...]
    row_labels: tuple[str, ...]
    columns: tuple[str, ...]

    @property
    def is_square(self) -> bool:
        return len(self.rows) == len(self.columns)

    def det(self) -> int:
        if not self.is_square:
            raise ValueError(
                f"matrix is {len(self.rows)}x{len(self.columns)}, not square"
            )
        return integer_determinant(self.rows)


def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by sparse unimodular elimination.

    Rows become ``{column: nonzero entry}``.  Columns go sparsest first, by
    their nonzero count in ``rows``: Euclid's algorithm on the rows holding
    the column leaves one, which Laplace expansion removes, signed by the
    positions of that row and that column among the alive ones.
    Made for the sparse rows of :func:`ev_matrix`; slower than Bareiss on dense ones.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    alive = [dict(compress(enumerate(row), row)) for row in rows]
    nonzeros = [n - column.count(0) for column in zip(*rows)]
    columns = list(range(n))  # the alive columns, in matrix order
    det = 1
    for k in sorted(columns, key=nonzeros.__getitem__):
        holding = [i for i, row in enumerate(alive) if k in row]
        if not holding:
            return 0
        while len(holding) > 1:
            p = min(holding, key=lambda i: (abs(alive[i][k]), len(alive[i])))
            pivot = alive[p]
            for row in (alive[i] for i in holding if i != p):
                factor = row[k] // pivot[k]
                for j, x in pivot.items():
                    value = row.get(j, 0) - factor * x
                    if value:
                        row[j] = value
                    else:
                        del row[j]
            holding = [i for i in holding if k in alive[i]]
        row, column = holding[0], columns.index(k)
        det *= alive.pop(row)[k] * (-1) ** (row + column)
        del columns[column]
    return det


def ev_matrix(map: StableMap) -> EvMatrix:
    """Assemble the evaluation matrix of a balanced map.

    The entry of a length column on a condition row is the direction
    contribution of that edge on the unique path from the base to the
    conditioned end, zero off the path.  A vertex's path is its parent's
    plus one edge, so the tree is walked once, from the base down and
    without recursion.
    """
    base_vertex = map.end(map.base).vertex
    length_edges = [edge for edge in map.edges if not edge.contracted]
    column_of = {edge.id: 2 + i for i, edge in enumerate(length_edges)}
    # each vertex's (column, signed edge vector) shifts on its path from the base
    shifts: dict[str, list[tuple[int, Vec]]] = {base_vertex: []}
    for vertex, (parent, edge, sign) in map._parents(base_vertex).items():
        shifts[vertex] = shifts[parent]
        if not edge.contracted:
            x, y = edge.vector
            shifts[vertex] = shifts[parent] + [(column_of[edge.id], (sign * x, sign * y))]
    rows: list[tuple[int, ...]] = []
    row_labels: list[str] = []
    for end in sorted(map.ends, key=lambda e: e.label):
        if end.tag is None or end.tag.kind == FREE:
            continue
        # a point is cut out by both coordinate covectors, a line by its weighted normal
        if end.tag.kind == POINT:
            covectors = {f"{end.label}.x": (1, 0), f"{end.label}.y": (0, 1)}
        else:
            w = end.tag.weight
            covectors = {str(end.label): (w * end.tag.normal[0], w * end.tag.normal[1])}
        for name, (cx, cy) in covectors.items():
            row = [cx, cy] + [0] * len(length_edges)
            for column, (vx, vy) in shifts[end.vertex]:
                row[column] = cx * vx + cy * vy
            rows.append(tuple(row))
            row_labels.append(name)
    columns = ("x", "y") + tuple(edge.id for edge in length_edges)
    return EvMatrix(tuple(rows), tuple(row_labels), columns)


def _vertex_profiles(
    map: StableMap, crossratios: Sequence[CrossRatio]
) -> dict[str, VertexProfile]:
    """Profiles of the vertices that hold a cross-ratio, routed to their slots.

    Every vertex's valence is checked, in ``map.vertices`` order, before
    any profile is built: one slot per adjacent edge and per end, 3 plus
    its cross-ratios in all.  Slot ids are end labels for ends and fresh
    integers past the largest label for bounded edges, keyed by the edge's
    far vertex: an entry off the vertex leaves to the next one on its path.
    """
    slot_base = max((end.label for end in map.ends), default=0) + 1
    slots: dict[str, dict[str | Label, int]] = {vertex: {} for vertex in map.vertices}
    for slot, edge in enumerate(map.edges, slot_base):
        slots[edge.tail][edge.head] = slots[edge.head][edge.tail] = slot
    for end in map.ends:
        slots[end.vertex][end.label] = end.label
    routes: dict[str, dict[int, dict[Label, int]]] = {vertex: {} for vertex in map.vertices}
    parents = map._parents(map.vertices[0]) if crossratios else {}
    for j, cr in enumerate(crossratios):
        vertex_of = {entry: map.end(entry).vertex for entry in cr}
        vertex = _meeting_vertex(parents, vertex_of, all_pairings(cr)[0])
        if vertex is None:
            raise ValueError(f"cross-ratio {sorted(cr.entries)} has no satisfying vertex")
        routes[vertex][j] = {
            entry: slots[vertex][entry if at == vertex else _path(parents, vertex, at)[1]]
            for entry, at in vertex_of.items()
        }
    for vertex in map.vertices:
        check_valence(len(slots[vertex]), len(routes[vertex]))
    return {v: VertexProfile(slots[v].values(), table) for v, table in routes.items() if table}


def multiplicity(map: StableMap, crossratios: Sequence[CrossRatio] = ()) -> Count:
    """Multiplicity of the map under its conditions.

    The absolute determinant of the evaluation matrix times the
    product, over the vertices holding a cross-ratio, of the cross-ratio
    multiplicity of the vertex's profile; a trivalent vertex without
    cross-ratios counts 1 and gets no profile.  Raises if the map is
    malformed, if some cross-ratio has no satisfying vertex, if some
    vertex violates the valence equation, or if the matrix is not square
    (the conditions do not make the map rigid).
    """
    map.check()
    profiles = _vertex_profiles(map, crossratios).values()
    product = math.prod(cross_ratio_multiplicity(profile) for profile in profiles)
    matrix = ev_matrix(map)
    if not matrix.is_square:
        raise ValueError(
            f"evaluation matrix is {len(matrix.rows)}x{len(matrix.columns)}: "
            "the conditions do not make the map rigid"
        )
    return abs(matrix.det()) * product


@dataclass(frozen=True)
class SplitReport:
    """Both sides of a multiplicity splitting identity.

    ``parts`` holds the named sub-map multiplicities entering the
    prediction; for a 1/1 edge ``relations`` holds, per side, the value
    of -det(M_10) + det(M_01) + det(M_1-1), which must vanish.
    """

    kind: str
    multiplicity: Count
    predicted: Count
    parts: tuple[tuple[str, Count], ...]
    relations: tuple[Count, Count] | None = None

    @property
    def ok(self) -> bool:
        fine = self.multiplicity == self.predicted
        if self.relations is not None:
            fine = fine and self.relations == (0, 0)
        return fine


def _side_map(
    map: StableMap,
    crossratios: Sequence[CrossRatio],
    component: set[str],
    attach: str,
    fresh: Label,
) -> tuple[StableMap, list[CrossRatio], int]:
    """One side of a cut with the new end ``fresh`` free at ``attach``, and its deficiency.

    ``crossratios`` are those that follow this side; each has its entry
    from the other side, if any, replaced by ``fresh``.  The ends are
    sorted by label, so ``fresh``, past every label, is the last one, and
    the deficiency is the side's before it.
    """
    ends = sorted((e for e in map.ends if e.vertex in component), key=lambda e: e.label)
    own = {end.label for end in ends}
    adapted = [CrossRatio(frozenset(x if x in own else fresh for x in cr)) for cr in crossratios]
    kinds = [end.tag.kind for end in ends if end.tag is not None]
    degree = sum(1 for end in ends if end.direction == (-1, 0))
    side = StableMap(
        tuple(v for v in map.vertices if v in component),
        tuple(e for e in map.edges if e.tail in component and e.head in component),
        (*ends, End(fresh, attach, (0, 0), EndTag.free())),
        min((end.label for end in ends if end.tag == _POINT_TAG), default=fresh),
    )
    return side, adapted, deficiency(degree, kinds, len(crossratios))


def _retag(side: StableMap, tag: EndTag) -> StableMap:
    """A side from :func:`_side_map` with its new end, the last one, tagged ``tag``."""
    return replace(side, ends=(*side.ends[:-1], replace(side.ends[-1], tag=tag)))


def check_split_multiplicity(
    map: StableMap, edge_id: str, crossratios: Sequence[CrossRatio] = ()
) -> SplitReport:
    """Verify the splitting identity for one contracted bounded edge.

    Cuts the edge, adapts each cross-ratio to the side holding at least
    three of its entries (the odd entry replaced by the new end), and
    classifies the cut by the sides' deficiencies.  For a 2/0 edge the
    fixed side's new end is free and the other side's is a point, and
    the map's multiplicity must equal the product of the sides'.  For a
    1/1 edge the new ends become degenerated lines L_10 and L_01 in the
    four crossed combinations and the multiplicity must equal

        |mult(C_1,10) mult(C_2,01) - mult(C_1,01) mult(C_2,10)|;

    additionally the determinant relation -det(M_10) + det(M_01) +
    det(M_1-1) = 0 is reported per side.  Each side is built once, and
    every tag of its new end is put on that build.
    """
    map.check()
    cut = map.edge(edge_id)
    if not cut.contracted:
        raise ValueError(f"edge {edge_id!r} is not contracted")
    full = multiplicity(map, crossratios)
    far = {cut.head}  # side 2: the search from the tail lists each vertex after its parent
    for vertex, (parent, _, _) in map._parents(cut.tail).items():
        if parent in far:
            far.add(vertex)
    near = set(map.vertices) - far
    fresh = max(end.label for end in map.ends) + 1
    labels1 = frozenset(end.label for end in map.ends if end.vertex in near)
    routed = route_groups([cr.entries for cr in crossratios], labels1)
    # Unreachable after ``multiplicity`` above, which rejects such a cross-ratio as
    # having no satisfying vertex; kept so the cut never routes one the lemma
    # cannot split, should that check ever stop preceding it.
    if routed is None:
        raise ValueError(f"a cross-ratio has two entries on each side of edge {edge_id!r}")
    crs1, crs2 = ([crossratios[j] for j in group] for group in routed)
    side1, crs1, delta1 = _side_map(map, crs1, near, cut.tail, fresh)
    side2, crs2, delta2 = _side_map(map, crs2, far, cut.head, fresh + 1)
    kind = KIND_OF_DEFICIENCIES.get((delta1, delta2))
    if kind is None:
        raise ValueError(f"deficiencies {(delta1, delta2)} match no splitting identity")
    if kind != ONE_ONE:
        fixed1 = kind == TWO_ZERO_SIDE1_FIXED
        m1 = multiplicity(side1 if fixed1 else _retag(side1, EndTag.point()), crs1)
        m2 = multiplicity(_retag(side2, EndTag.point()) if fixed1 else side2, crs2)
        return SplitReport(kind, full, m1 * m2, (("side 1", m1), ("side 2", m2)))
    parts, relations = [], []
    for i, side, crs in ((1, side1, crs1), (2, side2, crs2)):
        l10, l01, l1_1 = (_retag(side, EndTag.degenerated(code)) for code in ("10", "01", "1-1"))
        parts += [(f"side {i}, L_{c}", multiplicity(v, crs)) for c, v in (("10", l10), ("01", l01))]
        relations.append(-ev_matrix(l10).det() + ev_matrix(l01).det() + ev_matrix(l1_1).det())
    (_, c1_10), (_, c1_01), (_, c2_10), (_, c2_01) = parts
    predicted = abs(c1_10 * c2_01 - c1_01 * c2_10)
    return SplitReport(ONE_ONE, full, predicted, tuple(parts), (relations[0], relations[1]))


def _is_vec(value: object) -> bool:
    """Whether a JSON value is a list of two integers, as ``json_checked(value, what, 2)`` wants."""
    return type(value) is list and len(value) == 2 and type(value[0]) is type(value[1]) is int


def _edge_from_dict(e: Mapping) -> BoundedEdge:
    """One edge of a document; its fields are named only when one of them misfits."""
    id, tail, head, direction = e.get("id"), e.get("tail"), e.get("head"), e.get("direction")
    weight = e.get("weight", 1)
    if type(id) is type(tail) is type(head) is str and type(weight) is int and _is_vec(direction):
        return BoundedEdge(id, tail, head, tuple(direction), weight)
    return BoundedEdge(
        json_checked(e["id"], "edge id", leaf=str),
        json_checked(e["tail"], f"tail of edge {e['id']}", leaf=str),
        json_checked(e["head"], f"head of edge {e['id']}", leaf=str),
        json_checked(e["direction"], f"direction of edge {e['id']}", 2),
        json_checked(e.get("weight", 1), f"weight of edge {e['id']}"),
    )


def _end_from_dict(item: Mapping) -> End:
    """One end of a document; its fields are named only when one of them misfits."""
    label, vertex, direction = item.get("label"), item.get("vertex"), item.get("direction")
    if type(label) is int and type(vertex) is str and _is_vec(direction):
        return End(label, vertex, tuple(direction), _tag(item.get("condition"), label))
    label = json_checked(item["label"], "end label")
    tag = _tag(item.get("condition"), label)
    direction = json_checked(item["direction"], f"direction of end {label}", 2)
    vertex = json_checked(item["vertex"], f"vertex of end {label}", leaf=str)
    return End(label, vertex, direction, tag)


def _tag(condition: object, label: Label) -> EndTag | None:
    """The tag that the condition of end ``label`` gives it, if it has one."""
    if condition is None:
        return None
    if type(condition) is not dict:
        json_checked(condition, f"condition of end {label}", leaf=dict)
    kind = condition.get("kind")
    if kind == "point":
        return EndTag.point()
    if kind == "line":
        normal = json_checked(condition["normal"], f"normal of end {label}", 2)
        weight = json_checked(condition.get("weight", 1), f"weight of end {label}")
        return EndTag.line(normal, weight)
    if kind == "degenerated line":
        return EndTag.degenerated(json_checked(condition["type"], "type", leaf=str))
    if kind == "free":
        return EndTag.free()
    raise ValueError(f"end {label}: unknown condition kind {kind!r}")


def stablemap_from_dict(data: Mapping) -> tuple[StableMap, list[CrossRatio]]:
    """Parse a ``stablemap/1`` document into a map and its cross-ratios.

    Each edge and end has its fields typed in one test; only on a misfit
    are they checked one by one, in document order, so that the error
    names the field.
    """
    if data.get("schema") != "stablemap/1":
        raise ValueError(f"expected schema stablemap/1, got {data.get('schema')!r}")
    try:
        vertices = json_checked(data["vertices"], "vertices", 0, leaf=str)
        edges = tuple(map(_edge_from_dict, json_checked(data["edges"], "edges", 0, leaf=dict)))
        ends = tuple(map(_end_from_dict, json_checked(data["ends"], "ends", 0, leaf=dict)))
        plane_map = StableMap(vertices, edges, ends, json_checked(data["base"], "base"))
        crossratios = [
            CrossRatio.of(*entry)
            for entry in json_checked(data.get("crossratios", []), "crossratios", 0, 0)
        ]
    except KeyError as missing:
        raise ValueError(f"missing field {missing} in stablemap file") from None
    return plane_map, crossratios
