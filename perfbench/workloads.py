"""Seeded inputs for the four benchmark workloads.

Each workload turns a seed into a list of items: one input file for the
CLI plus what the checks need to know about it.  The same seed always
gives the same files.  Nothing here imports ``crosskont``; the program
under test sees only the JSON files written here.

Why these four (each loads a different layer, and each has a twin that
leaves that layer idle):

* ``eval-cr1``: one cross-ratio {p1, p2, a, b} over 3d-2 points and two
  lines, d = 2..5.  Split enumeration is the largest layer and grows
  fastest with d, over few distinct sub-instances, so this is where
  orbit-aware splits and an O(1) ``Instance.condition`` show.  Checked
  against a closed form.
* ``eval-multi``: d = 3..5 with 2-4 cross-ratios, lines and free ends.
  ``canonical_key`` is the largest layer, over six times as many distinct
  sub-instances as ``eval-cr1``.
* ``multcr``: vertex profiles with r = 8..14 cross-ratios.  All cost is
  in ``resolution``; engine, splits and keys stay idle.
* ``mult``: explicit rigid stable maps.  ``stablemap`` does the work and
  the engine does none.

The golden pools behind ``eval-multi`` and ``multcr`` are ladders of
shapes, cheap to frontier, with recorded answers (see
``record_golden.py``).  Every seed poses every shape, renamed by a random
order-preserving map of its labels and with its lists shuffled.  The
engine picks its pairing and its split order by label order, so a rename
that changed the order would change the work, and with it the timings,
from seed to seed; picking different shapes per seed did the same.
``mult`` draws its maps from stored draw numbers for the same reason.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
# The repository's stablemap/1 fixtures, read from where the package's own tests keep them.
FIXTURES = HERE.parent / "tests" / "fixtures"
MAP_FIXTURES = ("c2_01", "c2_10", "split_1_1", "split_2_0")

WORKLOADS = ("eval-cr1", "eval-multi", "multcr", "mult")

# eval-cr1: items per degree in one batch.  d = 5 is the frontier rung.
CR1_ITEMS = {2: 3, 3: 4, 4: 4, 5: 2}
CR1_MAX_WEIGHT = 5

_STANDARD = ((-1, 0), (0, -1), (1, 1))


@dataclass
class Item:
    """One CLI question: ``crosskont <command> <path>``.

    ``doc`` is the document written to ``path``; ``meta`` carries what
    the oracle needs (closed-form parameters or the golden answer).
    """

    name: str
    command: str
    doc: dict
    meta: dict = field(default_factory=dict)
    path: str = ""


def _order_preserving(labels, rng: random.Random) -> dict[int, int]:
    """A random injective map of ``labels`` into 1..4n that keeps their order."""
    old = sorted(set(labels))
    new = sorted(rng.sample(range(1, 4 * len(old) + 1), len(old)))
    return dict(zip(old, new))


def _instance_doc(degree, points, lines, free, crossratios, rng) -> dict:
    points, free = list(points), list(free)
    lines = [{"label": x, "weight": w} for x, w in lines]
    for part in (points, lines, free):
        rng.shuffle(part)
    return {
        "schema": "instance/1",
        "degree": degree,
        "points": points,
        "lines": lines,
        "free": free,
        "crossratios": [rng.sample(list(cr), 4) for cr in crossratios],
    }


def eval_cr1(seed: int) -> list[Item]:
    rng = random.Random(f"eval-cr1/{seed}")
    items = []
    for d, count in CR1_ITEMS.items():
        for k in range(count):
            n = 3 * d - 2
            # points first, then a and b: p1 and p2 are the two smallest
            # cross-ratio entries, so the engine resolves {p1 p2 | a b}
            rename = _order_preserving(range(1, n + 3), rng)
            points = [rename[x] for x in range(1, n + 1)]
            a, b = rename[n + 1], rename[n + 2]
            wa, wb = rng.randint(1, CR1_MAX_WEIGHT), rng.randint(1, CR1_MAX_WEIGHT)
            doc = _instance_doc(d, points, [(a, wa), (b, wb)], [], [[points[0], points[1], a, b]], rng)
            items.append(Item(f"cr1-d{d}-{k}", "eval", doc, {"d": d, "wa": wa, "wb": wb}))
    return items


def _load_pool(name: str) -> dict:
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def eval_multi(seed: int) -> list[Item]:
    rng = random.Random(f"eval-multi/{seed}")
    items = []
    for shape in _load_pool("eval_multi")["shapes"]:
        labels = shape["points"] + [x for x, _ in shape["lines"]] + shape["free"]
        m = _order_preserving(labels, rng)
        doc = _instance_doc(
            shape["degree"],
            [m[x] for x in shape["points"]],
            [(m[x], w) for x, w in shape["lines"]],
            [m[x] for x in shape["free"]],
            [[m[x] for x in cr] for cr in shape["crossratios"]],
            rng,
        )
        items.append(Item(shape["id"], "eval", doc, {"golden": shape["count"]}))
    return items


def multcr(seed: int) -> list[Item]:
    rng = random.Random(f"multcr/{seed}")
    items = []
    for shape in _load_pool("multcr")["shapes"]:
        m = _order_preserving(shape["slots"], rng)
        slots = [m[x] for x in shape["slots"]]
        rng.shuffle(slots)
        crs = [[m[x] for x in cr] for cr in shape["crossratios"]]
        doc = {"schema": "profile/1", "slots": slots, "crossratios": [rng.sample(cr, 4) for cr in crs]}
        items.append(Item(shape["id"], "multcr", doc, {"golden": shape["count"]}))
    return items


def _random_binary_tree(leaves: list, rng: random.Random, fresh) -> list[tuple]:
    """Edges of a random trivalent tree on ``leaves`` (at least 3)."""
    hub = fresh()
    edges = [(hub, leaf) for leaf in leaves[:3]]
    for leaf in leaves[3:]:
        u, v = edges.pop(rng.randrange(len(edges)))
        w = fresh()
        edges += [(u, w), (w, v), (w, leaf)]
    return edges


def draw_map(d: int, draw: int) -> dict | None:
    """Draw number ``draw`` of a random rigid degree-d map through 3d-1 points.

    The curve is built from 3d components, each holding exactly one
    unbounded end, glued in a tree by the 3d-1 point vertices; with that
    shape the evaluation matrix is square and its determinant is the
    product of the vertex multiplicities.  A draw with a contracted
    bounded edge or a vertex of multiplicity zero gives None.  About one
    draw in 200 succeeds at d = 8, so the successful draw numbers are
    stored in ``golden/maps.json`` instead of searched for at set-up.
    """
    rng = random.Random(f"map/{d}/{draw}")
    components = 3 * d
    parent = [None] + [rng.randrange(i) for i in range(1, components)]
    directions = [v for v in _STANDARD for _ in range(d)]
    rng.shuffle(directions)
    counter = iter(range(10**6))

    def fresh():
        return ("v", next(counter))

    # point j glues component j + 1 to its parent; its vertex is ("p", j)
    touching = {c: [] for c in range(components)}
    for j in range(components - 1):
        touching[j + 1].append(j)
        touching[parent[j + 1]].append(j)
    adjacency: dict = {("p", j): [] for j in range(components - 1)}
    end_at = {}
    for c in range(components):
        leaves = [("end", c)] + [("p", j) for j in touching[c]]
        if len(leaves) == 2:
            end_at[c] = leaves[1]
            continue
        for u, v in _random_binary_tree(leaves, rng, fresh):
            for a, b in ((u, v), (v, u)):
                if a[0] == "end":
                    end_at[a[1]] = b
                else:
                    adjacency.setdefault(a, [])
                    if b[0] != "end":
                        adjacency[a].append(b)
    ends_of = {}
    for c, vertex in end_at.items():
        ends_of.setdefault(vertex, []).append(directions[c])
    # orient every bounded edge away from the first point vertex; its
    # vector is the sum of the end directions beyond it
    root = ("p", 0)
    order, seen, tree_parent = [root], {root}, {}
    for here in order:
        for other in adjacency[here]:
            if other not in seen:
                seen.add(other)
                tree_parent[other] = here
                order.append(other)
    beyond = {}
    for vertex in reversed(order):
        sx = sum(x for x, _ in ends_of.get(vertex, ()))
        sy = sum(y for _, y in ends_of.get(vertex, ()))
        for other in adjacency[vertex]:
            if tree_parent.get(other) == vertex:
                sx += beyond[other][0]
                sy += beyond[other][1]
        beyond[vertex] = (sx, sy)
    if any(beyond[vertex] == (0, 0) for vertex in order[1:]):
        return None
    for vertex in order:
        if vertex[0] == "p":
            continue
        out = [(-beyond[vertex][0], -beyond[vertex][1])] if vertex in tree_parent else []
        out += [beyond[o] for o in adjacency[vertex] if tree_parent.get(o) == vertex]
        out += ends_of.get(vertex, [])
        (ux, uy), (vx, vy) = out[0], out[1]
        if ux * vy - uy * vx == 0:
            return None

    name = {v: f"v{i}" for i, v in enumerate(order)}
    edges = []
    for i, vertex in enumerate(order[1:]):
        x, y = beyond[vertex]
        g = gcd(x, y)
        edges.append(
            {"id": f"e{i}", "tail": name[tree_parent[vertex]], "head": name[vertex], "direction": [x // g, y // g], "weight": g}
        )
    ends = [
        {"label": j + 1, "vertex": name[("p", j)], "direction": [0, 0], "condition": {"kind": "point"}}
        for j in range(components - 1)
    ]
    ends += [
        {"label": components + c, "vertex": name[end_at[c]], "direction": list(directions[c])}
        for c in range(components)
    ]
    return {"schema": "stablemap/1", "vertices": list(name.values()), "edges": edges, "ends": ends, "base": 1, "crossratios": []}


def _rename(doc: dict, rng: random.Random) -> dict:
    """The same map with end labels, vertex names and listing orders shuffled."""
    labels = [end["label"] for end in doc["ends"]]
    label = dict(zip(labels, rng.sample(labels, len(labels))))
    names = rng.sample(range(len(doc["vertices"])), len(doc["vertices"]))
    name = {v: f"v{n}" for v, n in zip(doc["vertices"], names)}
    ends = [dict(end, label=label[end["label"]], vertex=name[end["vertex"]]) for end in doc["ends"]]
    edges = [dict(edge, tail=name[edge["tail"]], head=name[edge["head"]]) for edge in doc["edges"]]
    for part in (ends, edges):
        rng.shuffle(part)
    points = [end["label"] for end in ends if end.get("condition")]
    vertices = list(name.values())
    rng.shuffle(vertices)
    return dict(doc, vertices=vertices, edges=edges, ends=ends, base=min(points))


def mult(seed: int) -> list[Item]:
    rng = random.Random(f"mult/{seed}")
    items = []
    for stem in MAP_FIXTURES:
        with open(FIXTURES / f"{stem}.json", encoding="utf-8") as handle:
            items.append(Item(f"fixture-{stem}", "mult", json.load(handle)))
    for degree, draws in _load_pool("maps")["draws"].items():
        for draw in draws:
            doc = draw_map(int(degree), draw)
            if doc is None:
                raise ValueError(f"stored draw {draw} at d={degree} gives no rigid map")
            items.append(Item(f"map-d{degree}-{draw}", "mult", _rename(doc, rng)))
    return items


GENERATORS = {"eval-cr1": eval_cr1, "eval-multi": eval_multi, "multcr": multcr, "mult": mult}


def generate(workload: str, seed: int, workdir: Path) -> list[Item]:
    """Generate a workload's items and write one input file per item."""
    items = GENERATORS[workload](seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for index, item in enumerate(items):
        item.path = str(workdir / f"{index:03d}-{item.name}.json")
        with open(item.path, "w", encoding="utf-8") as handle:
            json.dump(item.doc, handle)
    return items
