"""The workload generators are deterministic per seed and draw valid inputs."""

import json

import pytest

from workloads import GENERATORS, WORKLOADS, _load_pool, draw_map, generate


def _docs(workload, seed):
    return [(item.name, item.command, item.doc, item.meta) for item in GENERATORS[workload](seed)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _docs(workload, 7) == _docs(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert _docs(workload, 7) != _docs(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_files_hold_the_documents(workload, tmp_path):
    for item in generate(workload, 3, tmp_path):
        with open(item.path, encoding="utf-8") as handle:
            assert json.load(handle) == item.doc


@pytest.mark.parametrize("workload, pool", [("eval-multi", "eval_multi"), ("multcr", "multcr")])
def test_every_pool_shape_is_posed_once(workload, pool):
    ids = [shape["id"] for shape in _load_pool(pool)["shapes"]]
    assert [item.name for item in GENERATORS[workload](5)] == ids


def test_eval_instances_are_dimensionally_sound():
    for workload in ("eval-cr1", "eval-multi"):
        for item in GENERATORS[workload](11):
            doc = item.doc
            assert 3 * doc["degree"] - 1 == len(doc["points"]) + len(doc["crossratios"]) - len(doc["free"])


def test_stored_map_draws_are_rigid():
    for d, draws in _load_pool("maps")["draws"].items():
        for draw in draws:
            assert draw_map(int(d), draw) is not None


def test_rigid_map_has_one_unbounded_end_per_point_free_component():
    doc = draw_map(5, _load_pool("maps")["draws"]["5"][0])
    points = {e["vertex"] for e in doc["ends"] if e.get("condition")}
    adjacency = {v: set() for v in doc["vertices"]}
    for edge in doc["edges"]:
        adjacency[edge["tail"]].add(edge["head"])
        adjacency[edge["head"]].add(edge["tail"])
    unbounded = {}
    for end in doc["ends"]:
        if end["direction"] != [0, 0]:
            unbounded.setdefault(end["vertex"], 0)
            unbounded[end["vertex"]] += 1
    # components of the graph with the point vertices cut out; an end
    # sitting on a point vertex is a component of its own
    seen, components = set(), []
    for start in doc["vertices"]:
        if start in points or start in seen:
            continue
        stack, members = [start], set()
        while stack:
            v = stack.pop()
            if v in members:
                continue
            members.add(v)
            stack += [w for w in adjacency[v] if w not in points]
        seen |= members
        components.append(sum(unbounded.get(v, 0) for v in members))
    components += [unbounded[v] for v in points if v in unbounded]
    assert components and all(count == 1 for count in components)
    assert len(components) == 3 * 5
