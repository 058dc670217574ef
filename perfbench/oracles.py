"""Answers for the benchmark items, computed without the package.

Nothing here imports ``crosskont``: each oracle is written from the
mathematics, so a wrong count in the package cannot also be a wrong
expected value here.

* ``cr1_closed_form``: the one-cross-ratio count of Gathmann and
  Markwig, *Kontsevich's formula and the WDVV equations in tropical
  geometry*, Adv. Math. 217 (2008).
* ``map_multiplicity_oracle``: the evaluation matrix of a ``stablemap/1``
  document, built from its paths, and its determinant by Gaussian
  elimination over ``Fraction``.
* ``check_resolution_trees``: structural checks on the trees the package
  returns for a vertex profile.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def kontsevich_numbers(dmax: int) -> list[int]:
    """``N[d]`` for d = 0..dmax, with N[0] = 0 and N[1] = 1."""
    n = [0, 1]
    for d in range(2, dmax + 1):
        n.append(
            sum(
                (
                    d1 * d1 * (d - d1) ** 2 * comb(3 * d - 4, 3 * d1 - 2)
                    - d1**3 * (d - d1) * comb(3 * d - 4, 3 * d1 - 1)
                )
                * n[d1]
                * n[d - d1]
                for d1 in range(1, d)
            )
        )
    return n[: dmax + 1]


def cr1_closed_form(d: int, wa: int, wb: int) -> int:
    """Count for 3d-2 points, lines a, b of weights wa, wb and cross-ratio {p1, p2, a, b}.

    w_a * w_b * sum over d1 + d2 = d of C(3d-4, 3d1-2) d1^2 d2^2 N_d1 N_d2.
    """
    n = kontsevich_numbers(d)
    return wa * wb * sum(
        comb(3 * d - 4, 3 * d1 - 2) * d1 * d1 * (d - d1) ** 2 * n[d1] * n[d - d1]
        for d1 in range(1, d)
    )


def fraction_determinant(rows: list[list[int]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            if factor:
                for j in range(k, n):
                    m[i][j] -= factor * m[k][j]
    return det


_DEGENERATED = {"10": (1, 0), "01": (0, 1), "1-1": (1, -1)}


def evaluation_rows(doc: dict) -> list[list[int]]:
    """Evaluation matrix of a ``stablemap/1`` document.

    Columns are the base vertex's two coordinates and one length per
    non-contracted bounded edge; a conditioned end's position is the base
    plus the weighted directions along its path from the base.  A point
    gives two rows, a line or degenerated line one (its weighted normal
    applied to the position), a free end none.
    """
    adjacency: dict[str, list[tuple[str, dict, int]]] = {v: [] for v in doc["vertices"]}
    for edge in doc["edges"]:
        adjacency[edge["tail"]].append((edge["head"], edge, 1))
        adjacency[edge["head"]].append((edge["tail"], edge, -1))
    lengths = [e for e in doc["edges"] if tuple(e["direction"]) != (0, 0)]
    column = {e["id"]: 2 + i for i, e in enumerate(lengths)}
    width = 2 + len(lengths)
    base = next(end["vertex"] for end in doc["ends"] if end["label"] == doc["base"])
    # position[v] = (x row, y row): linear forms in the columns
    position = {base: ([1, 0] + [0] * (width - 2), [0, 1] + [0] * (width - 2))}
    frontier = [base]
    while frontier:
        here = frontier.pop()
        for other, edge, sign in adjacency[here]:
            if other in position:
                continue
            px, py = list(position[here][0]), list(position[here][1])
            if edge["id"] in column:
                w = edge.get("weight", 1)
                c = column[edge["id"]]
                px[c] += sign * w * edge["direction"][0]
                py[c] += sign * w * edge["direction"][1]
            position[other] = (px, py)
            frontier.append(other)
    rows = []
    for end in sorted(doc["ends"], key=lambda e: e["label"]):
        condition = end.get("condition")
        if condition is None or condition["kind"] == "free":
            continue
        px, py = position[end["vertex"]]
        if condition["kind"] == "point":
            rows += [px, py]
            continue
        if condition["kind"] == "line":
            (nx, ny), w = condition["normal"], condition.get("weight", 1)
        else:
            (nx, ny), w = _DEGENERATED[condition["type"]], 1
        rows.append([w * (nx * a + ny * b) for a, b in zip(px, py)])
    return rows


def map_multiplicity_oracle(doc: dict) -> int:
    """|det| of the evaluation matrix, for maps whose vertices resolve uniquely.

    Every vertex of the benchmark's maps is trivalent or carries at most
    the cross-ratios of the four repository fixtures, each of which has
    exactly one resolution, so the multiplicity is the determinant alone.
    """
    rows = evaluation_rows(doc)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"evaluation matrix is {len(rows)}x{len(rows[0])}, not square")
    det = fraction_determinant(rows)
    if det.denominator != 1:
        raise ValueError("integer matrix gave a non-integer determinant")
    return abs(det.numerator)


def check_resolution_trees(slots, crossratios, trees) -> list[str]:
    """Problems with the trees returned for a vertex profile; empty when sound.

    ``trees`` holds ``(splits, edge_of)`` pairs: the leaf sets of the
    internal edges (each avoiding the smallest slot) and the edge each
    cross-ratio id produced.  A sound answer has distinct trivalent trees
    whose splits are pairwise compatible, and gives every cross-ratio its
    own edge that separates the pair of its two smallest entries from the
    pair of its two largest.
    """
    slots = frozenset(slots)
    anchor = min(slots)
    r = len(crossratios)
    problems = []
    seen = set()
    for index, (splits, edge_of) in enumerate(trees):
        splits = frozenset(frozenset(s) for s in splits)
        if splits in seen:
            problems.append(f"tree {index} is a repeat")
        seen.add(splits)
        if len(splits) != len(slots) - 3:
            problems.append(f"tree {index} has {len(splits)} edges, not {len(slots) - 3}")
        for s in splits:
            if not (s <= slots and anchor not in s and 2 <= len(s) <= len(slots) - 2):
                problems.append(f"tree {index} has an improper split {sorted(s)}")
        for s in splits:
            for t in splits:
                if not (s <= t or t <= s or not (s & t)):
                    problems.append(f"tree {index}: splits {sorted(s)} and {sorted(t)} cross")
        edges = {cr: frozenset(s) for cr, s in edge_of}
        if sorted(edges) != list(range(r)) or len(set(edges.values())) != r:
            problems.append(f"tree {index} does not give each cross-ratio its own edge")
            continue
        for cr, entries in enumerate(crossratios):
            a, b, c, d = sorted(entries)
            if edges[cr] not in splits or (edges[cr] & {a, b, c, d}) not in ({a, b}, {c, d}):
                problems.append(f"tree {index}: edge of cross-ratio {cr} does not separate {a}{b}|{c}{d}")
    return problems
