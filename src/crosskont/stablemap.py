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
from typing import Iterable, Mapping, Optional, Sequence

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
from .resolution import VertexProfile, cross_ratio_multiplicity
from .splits import (
    KIND_OF_DEFICIENCIES,
    ONE_ONE,
    TWO_ZERO_SIDE1_FIXED,
    route_groups,
)

Vec = tuple[int, int]

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
        return cls(POINT)

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
        return cls(FREE)


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

        Checks tree shape, the balancing condition at every vertex, the
        degree pattern of the non-contracted ends, and that the base is
        a contracted end.
        """
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        labels = [end.label for end in self.ends]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate end labels")
        known = set(self.vertices)
        for edge in self.edges:
            if edge.tail not in known or edge.head not in known:
                raise ValueError(f"edge {edge.id} touches an unknown vertex")
        ends_at: dict[str, list[Vec]] = {vertex: [] for vertex in self.vertices}
        for end in self.ends:
            if end.vertex not in known:
                raise ValueError(f"end {end.label} sits at an unknown vertex")
            ends_at[end.vertex].append(end.direction)
        ids = [edge.id for edge in self.edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")
        if len(self.edges) != len(self.vertices) - 1:
            raise ValueError("the underlying graph is not a tree")
        if self.vertices and len(self._parents(self.vertices[0])) != len(self.vertices) - 1:
            raise ValueError("the underlying graph is not connected")
        adjacency = self._adjacency()
        for vertex in self.vertices:
            vectors = [(sign * e.vector[0], sign * e.vector[1]) for _, e, sign in adjacency[vertex]]
            vectors += ends_at[vertex]
            if (sum(x for x, _ in vectors), sum(y for _, y in vectors)) != (0, 0):
                raise ValueError(f"vertex {vertex} is not balanced")
        counts = {direction: 0 for direction in _STANDARD_DIRECTIONS}
        for end in self.ends:
            if end.contracted:
                continue
            if end.direction not in counts:
                raise ValueError(
                    f"end {end.label} has direction {end.direction}, not a standard one"
                )
            counts[end.direction] += 1
        if len(set(counts.values())) != 1:
            raise ValueError(f"end directions do not follow the degree pattern: {counts}")
        base = self.end(self.base)
        if not base.contracted:
            raise ValueError("the base must be a contracted end")

    def _adjacency(self) -> dict[str, list[tuple[str, BoundedEdge, int]]]:
        """vertex -> (neighbor, edge, +1 if the edge leaves tail-first)."""
        table: dict[str, list[tuple[str, BoundedEdge, int]]] = {v: [] for v in self.vertices}
        for edge in self.edges:
            table[edge.tail].append((edge.head, edge, 1))
            table[edge.head].append((edge.tail, edge, -1))
        return table

    def _parents(
        self, root: str, cut: BoundedEdge | None = None
    ) -> dict[str, tuple[str, BoundedEdge, int]]:
        """Search tree towards ``root``, not crossing ``cut``; sign +1 when the edge points away."""
        parents: dict[str, tuple[str, BoundedEdge, int]] = {}
        adjacency = self._adjacency()
        frontier = [root]
        seen = {root}
        while frontier:
            here = frontier.pop()
            for other, edge, sign in adjacency[here]:
                if other not in seen and edge is not cut:
                    seen.add(other)
                    parents[other] = (here, edge, sign)
                    frontier.append(other)
        return parents

    def path(self, root: str, goal: str) -> list[tuple[BoundedEdge, int]]:
        """Edges from ``root`` to ``goal`` with their traversal signs."""
        parents = self._parents(root)
        walk: list[tuple[BoundedEdge, int]] = []
        here = goal
        while here != root:
            here, edge, sign = parents[here]
            walk.append((edge, sign))
        walk.reverse()
        return walk

    def path_vertices(self, start: str, goal: str) -> list[str]:
        return [start] + [e.head if sign == 1 else e.tail for e, sign in self.path(start, goal)]


def find_satisfying_vertex(
    map: StableMap, cr: CrossRatio, pairing: Pairing | None = None
) -> Optional[str]:
    """Vertex at which the cross-ratio is satisfied, if any.

    The paths induced by the two pairs must meet in exactly one vertex;
    satisfaction is independent of the chosen pairing, so the default
    pairing (two smallest entries grouped) decides it.
    """
    if pairing is None:
        pairing = all_pairings(cr)[0]
    vertex_of = {}
    for label in cr:
        vertex_of[label] = map.end(label).vertex
    first = map.path_vertices(vertex_of[pairing.first[0]], vertex_of[pairing.first[1]])
    second = map.path_vertices(vertex_of[pairing.second[0]], vertex_of[pairing.second[1]])
    common = set(first) & set(second)
    if len(common) == 1:
        return common.pop()
    return None


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

    Rows become ``{column: nonzero entry}``; per column, Euclid's algorithm
    on the rows holding it leaves one, which Laplace expansion removes.
    Made for the sparse rows of :func:`ev_matrix`; slower than Bareiss on dense ones.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    alive = [{j: x for j, x in enumerate(row) if x} for row in rows]
    det = 1
    for k in range(n):
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
        # expanding along column k: the sign is that of the row's position among the alive rows
        position = holding[0]
        det *= alive.pop(position)[k] * (-1) ** position
    return det


def ev_matrix(map: StableMap) -> EvMatrix:
    """Assemble the evaluation matrix of a balanced map.

    The entry of a length column on a condition row is the direction
    contribution of that edge on the unique path from the base to the
    conditioned end, zero off the path.
    """
    base_vertex = map.end(map.base).vertex
    parents = map._parents(base_vertex)
    length_edges = [edge for edge in map.edges if not edge.contracted]
    column_of = {edge.id: 2 + i for i, edge in enumerate(length_edges)}
    rows: list[tuple[int, ...]] = []
    row_labels: list[str] = []
    for end in sorted(map.ends, key=lambda e: e.label):
        if end.tag is None or end.tag.kind == FREE:
            continue
        # climb to the base; each edge owns its column, so the order of the shifts is immaterial
        shifts: list[tuple[int, Vec]] = []
        here = end.vertex
        while here != base_vertex:
            here, edge, sign = parents[here]
            if not edge.contracted:
                shifts.append((column_of[edge.id], (sign * edge.vector[0], sign * edge.vector[1])))
        # a point is cut out by both coordinate covectors, a line by its weighted normal
        if end.tag.kind == POINT:
            covectors = {f"{end.label}.x": (1, 0), f"{end.label}.y": (0, 1)}
        else:
            w = end.tag.weight
            covectors = {str(end.label): (w * end.tag.normal[0], w * end.tag.normal[1])}
        for name, (cx, cy) in covectors.items():
            row = [cx, cy] + [0] * len(length_edges)
            for column, (vx, vy) in shifts:
                row[column] = cx * vx + cy * vy
            rows.append(tuple(row))
            row_labels.append(name)
    columns = ("x", "y") + tuple(edge.id for edge in length_edges)
    return EvMatrix(tuple(rows), tuple(row_labels), columns)


def _vertex_profiles(
    map: StableMap, crossratios: Sequence[CrossRatio]
) -> dict[str, VertexProfile]:
    """Profiles of every vertex, cross-ratios routed to their slots.

    Slot ids are end labels for ends and fresh integers past the
    largest label for bounded edges.
    """
    slot_base = max((end.label for end in map.ends), default=0) + 1
    edge_slot = {edge.id: slot_base + i for i, edge in enumerate(map.edges)}
    routes: dict[str, dict[int, dict[Label, int]]] = {vertex: {} for vertex in map.vertices}
    for j, cr in enumerate(crossratios):
        vertex = find_satisfying_vertex(map, cr)
        if vertex is None:
            raise ValueError(f"cross-ratio {sorted(cr.entries)} has no satisfying vertex")
        table = routes[vertex][j] = {}
        for entry in cr:
            end = map.end(entry)
            if end.vertex == vertex:
                table[entry] = entry
            else:
                first_edge = map.path(vertex, end.vertex)[0][0]
                table[entry] = edge_slot[first_edge.id]
    adjacency = map._adjacency()
    slots = {v: {edge_slot[edge.id] for _, edge, _ in adjacency[v]} for v in map.vertices}
    for end in map.ends:
        slots[end.vertex].add(end.label)
    return {vertex: VertexProfile(slots[vertex], routes[vertex]) for vertex in map.vertices}


def multiplicity(map: StableMap, crossratios: Sequence[CrossRatio] = ()) -> Count:
    """Multiplicity of the map under its conditions.

    The absolute determinant of the evaluation matrix times the
    product, over all vertices, of the cross-ratio multiplicity of the
    vertex's profile.  Raises if the map is malformed, if the matrix is
    not square (the conditions do not make the map rigid), if some
    cross-ratio has no satisfying vertex, or if some vertex violates
    the valence equation.
    """
    map.check()
    profiles = _vertex_profiles(map, crossratios)
    product = 1
    for profile in profiles.values():
        if profile.routes:
            product *= cross_ratio_multiplicity(profile)
        else:
            profile.check_valence()  # a trivalent vertex without cross-ratios counts 1
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
    tag: EndTag,
) -> tuple[StableMap, list[CrossRatio]]:
    """One side of a cut, with the new end ``fresh`` tagged at ``attach``.

    ``crossratios`` are those that follow this side; each has its entry
    from the other side, if any, replaced by ``fresh``.
    """
    vertices = tuple(v for v in map.vertices if v in component)
    edges = tuple(e for e in map.edges if e.tail in component and e.head in component)
    ends = [e for e in map.ends if e.vertex in component]
    own = {end.label for end in ends}
    ends.append(End(fresh, attach, (0, 0), tag))
    adapted = [CrossRatio(frozenset(x if x in own else fresh for x in cr)) for cr in crossratios]
    base = min(
        (end.label for end in ends if end.tag is not None and end.tag.kind == POINT),
        default=fresh,
    )
    side = StableMap(vertices, edges, tuple(sorted(ends, key=lambda e: e.label)), base)
    return side, adapted


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
    det(M_1-1) = 0 is reported per side.
    """
    map.check()
    cut = map.edge(edge_id)
    if not cut.contracted:
        raise ValueError(f"edge {edge_id!r} is not contracted")
    full = multiplicity(map, crossratios)
    component1 = {cut.tail, *map._parents(cut.tail, cut)}
    component2 = {cut.head, *map._parents(cut.head, cut)}
    fresh1 = max(end.label for end in map.ends) + 1
    fresh2 = fresh1 + 1
    labels1 = frozenset(end.label for end in map.ends if end.vertex in component1)
    routed = route_groups([cr.entries for cr in crossratios], labels1)
    if routed is None:
        raise ValueError(f"a cross-ratio has two entries on each side of edge {edge_id!r}")
    crs1 = [crossratios[j] for j in routed[0]]
    crs2 = [crossratios[j] for j in routed[1]]

    def side_deficiency(component: set[str], crs: list[CrossRatio]) -> int:
        ends = [e for e in map.ends if e.vertex in component]
        degree = sum(1 for e in ends if e.direction == (-1, 0))
        return deficiency(degree, [e.tag.kind for e in ends if e.tag is not None], len(crs))

    delta = (side_deficiency(component1, crs1), side_deficiency(component2, crs2))
    kind = KIND_OF_DEFICIENCIES.get(delta)
    if kind is None:
        raise ValueError(f"deficiencies {delta} match no splitting identity")
    sides = ((crs1, component1, cut.tail, fresh1), (crs2, component2, cut.head, fresh2))

    def cut_side(which: int, tag: EndTag) -> tuple[StableMap, Count]:
        crs, component, attach, fresh = sides[which - 1]
        side, adapted = _side_map(map, crs, component, attach, fresh, tag)
        return side, multiplicity(side, adapted)

    if kind != ONE_ONE:
        fixed1 = kind == TWO_ZERO_SIDE1_FIXED
        _, m1 = cut_side(1, EndTag.free() if fixed1 else EndTag.point())
        _, m2 = cut_side(2, EndTag.point() if fixed1 else EndTag.free())
        return SplitReport(kind, full, m1 * m2, (("side 1", m1), ("side 2", m2)))
    values: dict[tuple[int, str], Count] = {}
    determinants: dict[tuple[int, str], int] = {}
    for which in (1, 2):
        for code in ("10", "01", "1-1"):
            variant, values[which, code] = cut_side(which, EndTag.degenerated(code))
            determinants[which, code] = ev_matrix(variant).det()
    predicted = abs(values[1, "10"] * values[2, "01"] - values[1, "01"] * values[2, "10"])
    relations = tuple(
        -determinants[i, "10"] + determinants[i, "01"] + determinants[i, "1-1"]
        for i in (1, 2)
    )
    parts = tuple(
        (f"side {i}, L_{code}", values[i, code]) for i in (1, 2) for code in ("10", "01")
    )
    return SplitReport(ONE_ONE, full, predicted, parts, (relations[0], relations[1]))


def stablemap_from_dict(data: Mapping) -> tuple[StableMap, list[CrossRatio]]:
    """Parse a ``stablemap/1`` document into a map and its cross-ratios."""
    if data.get("schema") != "stablemap/1":
        raise ValueError(f"expected schema stablemap/1, got {data.get('schema')!r}")
    try:
        vertices = json_checked(data["vertices"], "vertices", 0, leaf=str)
        edges = tuple(
            BoundedEdge(
                json_checked(e["id"], "edge id", leaf=str),
                json_checked(e["tail"], f"tail of edge {e['id']}", leaf=str),
                json_checked(e["head"], f"head of edge {e['id']}", leaf=str),
                json_checked(e["direction"], f"direction of edge {e['id']}", 2),
                json_checked(e.get("weight", 1), f"weight of edge {e['id']}"),
            )
            for e in json_checked(data["edges"], "edges", 0, leaf=dict)
        )
        ends = []
        for item in json_checked(data["ends"], "ends", 0, leaf=dict):
            label = json_checked(item["label"], "end label")
            condition = item.get("condition")
            tag = None
            if condition is not None:
                kind = json_checked(condition, f"condition of end {label}", leaf=dict).get("kind")
                if kind == "point":
                    tag = EndTag.point()
                elif kind == "line":
                    normal = json_checked(condition["normal"], f"normal of end {label}", 2)
                    weight = json_checked(condition.get("weight", 1), f"weight of end {label}")
                    tag = EndTag.line(normal, weight)
                elif kind == "degenerated line":
                    tag = EndTag.degenerated(json_checked(condition["type"], "type", leaf=str))
                elif kind == "free":
                    tag = EndTag.free()
                else:
                    raise ValueError(f"end {label}: unknown condition kind {kind!r}")
            direction = json_checked(item["direction"], f"direction of end {label}", 2)
            vertex = json_checked(item["vertex"], f"vertex of end {label}", leaf=str)
            ends.append(End(label, vertex, direction, tag))
        map = StableMap(vertices, edges, tuple(ends), json_checked(data["base"], "base"))
        crossratios = [
            CrossRatio.of(*entry)
            for entry in json_checked(data.get("crossratios", []), "crossratios", 0, 0)
        ]
    except KeyError as missing:
        raise ValueError(f"missing field {missing} in stablemap file") from None
    return map, crossratios
