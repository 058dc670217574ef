"""End-to-end checks of the command line front end."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosskont import cli, engine, evaluate_invariance_battery
from crosskont.cli import main

from corpus import free_row_ladder

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main([str(part) for part in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_prints_the_count(capsys):
    code, out, err = run(capsys, "eval", FIXTURES / "worked_example.json")
    assert code == 0
    assert err == ""
    assert out == "1\n"


def test_eval_weighted_variant(capsys):
    code, out, err = run(capsys, "eval", FIXTURES / "worked_example_23.json")
    assert code == 0
    assert err == ""
    assert out == "6\n"


EXPECTED_TRACE = """\
d=2 p1 p2 p3 L4 L5 cr{1,2,3,4} cr{1,2,3,5}
  resolve cr (1 2 | 3 5)
  split [2/0 side 1 fixed] (d=1: p1 p2 L4 cr{1,2,3,4} | d=1: p3 L5)
    side 1: d=1 p1 p2 L4 f6 cr{1,2,4,6}
      resolve cr (1 2 | 4 6)
      split [1/1] (d=1: p1 p2 | d=0: L4 f6)
        side 1: d=1 p1 p2 L7
          = 1 (base)
        side 2: d=0 L4 f6 L8
          = 2 (base)
      term 1 * 2 = 2
      = 2
    side 2: d=1 p3 L5 p7
      = 3 (base)
  term 2 * 3 = 6
  = 6
6
"""


def test_trace_walks_the_recursion(capsys):
    code, out, err = run(capsys, "eval", "--trace", FIXTURES / "worked_example_23.json")
    assert code == 0
    assert err == ""
    assert out == EXPECTED_TRACE


def test_trace_names_both_splits_in_order(capsys):
    _, out, _ = run(capsys, "eval", "--trace", FIXTURES / "worked_example_23.json")
    lines = out.splitlines()
    splits = [line for line in lines if "split [" in line]
    assert len(splits) == 2
    assert splits[0].strip() == (
        "split [2/0 side 1 fixed] (d=1: p1 p2 L4 cr{1,2,3,4} | d=1: p3 L5)"
    )
    assert splits[1].strip() == "split [1/1] (d=1: p1 p2 | d=0: L4 f6)"
    stripped = [line.strip() for line in lines]
    assert "term 1 * 2 = 2" in stripped
    assert "term 2 * 3 = 6" in stripped
    # the count stays the last stdout line even with a trace above it
    assert lines[-1] == "6"


def test_check_reports_invariance(capsys):
    code, out, err = run(capsys, "eval", "--check", FIXTURES / "worked_example.json")
    assert code == 0
    assert err == ""
    assert out.splitlines() == ["invariance ok over 6 variants", "1"]


def test_check_passes_on_six_lines_with_two_cross_ratios(capsys, tmp_path):
    # both pairs of a resolved pairing may sit alone on a degree-zero side
    path = tmp_path / "six_lines.json"
    lines = [{"label": x, "weight": 1} for x in range(1, 7)]
    document = _instance_document(points=[], lines=lines, crossratios=[[1, 2, 3, 4], [1, 2, 5, 6]])
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "eval", "--check", path)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["invariance ok over 6 variants", "2"]


def test_budget_error_can_follow_streamed_trace_lines(capsys, tmp_path):
    # eval-multi-92 needs 29 recursion nodes to evaluate and 335 to trace (332
    # before the memo dropped the relabelling-invariant key)
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "eval_multi.json"
    shape = next(s for s in json.loads(golden.read_text())["shapes"] if s["id"] == "eval-multi-92")
    document = _instance_document(
        degree=shape["degree"],
        points=shape["points"],
        lines=[{"label": label, "weight": weight} for label, weight in shape["lines"]],
        free=shape["free"],
        crossratios=shape["crossratios"],
    )
    path = tmp_path / "eval_multi_92.json"
    path.write_text(json.dumps(document))
    code, full, err = run(capsys, "eval", "--trace", path)
    assert (code, err, full.splitlines()[-1]) == (0, "", str(shape["count"]))
    trace = full[: full.rindex("\n", 0, -1) + 1]
    assert run(capsys, "eval", "--trace", "--max-nodes", "335", path) == (0, full, "")
    code, out, err = run(capsys, "eval", "--trace", "--max-nodes", "334", path)
    assert code == 1
    assert err.startswith("error: more than 334 recursion nodes ")
    assert err.count("\n") == 1
    assert 0 < len(out) < len(trace)
    assert trace.startswith(out)


def test_kontsevich_table(capsys):
    code, out, err = run(capsys, "kontsevich", "5")
    assert code == 0
    assert err == ""
    assert out.splitlines() == ["1 1", "2 1", "3 12", "4 620", "5 87304"]


@pytest.mark.parametrize(
    "name, expected",
    [("profile5.json", "1"), ("profile6.json", "2")],
)
def test_multcr_on_profiles(capsys, name, expected):
    code, out, err = run(capsys, "multcr", FIXTURES / name)
    assert code == 0
    assert err == ""
    assert out == expected + "\n"


@pytest.mark.parametrize(
    "name, expected",
    [
        ("c2_01.json", "1"),
        ("c2_10.json", "0"),
        ("split_2_0.json", "1"),
        ("split_1_1.json", "1"),
    ],
)
def test_mult_on_map_fixtures(capsys, name, expected):
    code, out, err = run(capsys, "mult", FIXTURES / name)
    assert code == 0
    assert err == ""
    assert out == expected + "\n"


def test_four_valent_vertex_without_cross_ratios_gets_one_error_line(capsys, tmp_path):
    point = {"label": 1, "vertex": "v", "direction": [0, 0], "condition": {"kind": "point"}}
    free = [
        {"label": label, "vertex": "v", "direction": [0, 0], "condition": {"kind": "free"}}
        for label in (2, 3, 4)
    ]
    star = {"schema": "stablemap/1", "vertices": ["v"], "edges": [], "ends": [point, *free],
            "base": 1, "crossratios": []}
    path = tmp_path / "four_valent.json"
    path.write_text(json.dumps(star))
    code, out, err = run(capsys, "mult", path)
    assert code == 1
    assert out == ""
    assert err == "error: vertex has 4 slots but 3 + 0 are required\n"


def test_dimension_error_goes_to_stderr(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "schema": "instance/1",
                "degree": 1,
                "points": [1, 2, 3, 4],
                "lines": [],
                "free": [],
                "crossratios": [],
            }
        )
    )
    code, out, err = run(capsys, "eval", bad)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "dimension count off" in err
    assert "#points + #crossratios - #free" in err


def test_malformed_json_names_the_line(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"schema": "instance/1",\n  "degree": }\n')
    code, out, err = run(capsys, "eval", bad)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "broken.json: line 2" in err


def test_wrong_schema_is_rejected(capsys, tmp_path):
    rogue = tmp_path / "rogue.json"
    rogue.write_text(json.dumps({"schema": "bogus/9"}))
    code, _, err = run(capsys, "eval", rogue)
    assert code == 1
    assert "expected schema instance/1" in err

    code, _, err = run(capsys, "multcr", rogue)
    assert code == 1
    assert "expected schema profile/1" in err

    code, _, err = run(capsys, "mult", rogue)
    assert code == 1
    assert "expected schema stablemap/1" in err


@pytest.mark.parametrize("command", ["eval", "multcr", "mult"])
def test_non_object_document_is_rejected(capsys, tmp_path, command):
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([{"schema": "instance/1"}]))
    code, out, err = run(capsys, command, listed)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "listed.json: the document must be a JSON object" in err


@pytest.mark.parametrize("command", ["eval", "multcr", "mult"])
def test_deeply_nested_document_is_rejected(capsys, tmp_path, command):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    code, out, err = run(capsys, command, nested)
    assert code == 1
    assert out == ""
    assert err == f"error: {nested}: the document is nested too deeply\n"


def _cross_ratio_chain(r: int) -> dict:
    """A valid instance whose recursion nests one level per cross-ratio (1 2 L_i L_i+1)."""
    degree = (r + 21) // 3
    return {
        "schema": "instance/1",
        "degree": degree,
        "points": list(range(1, 3 * degree - r)),
        "lines": [{"label": 1000 + i, "weight": 1} for i in range(r + 1)],
        "crossratios": [[1, 2, 1000 + i, 1001 + i] for i in range(r)],
    }


def test_recursion_deeper_than_the_stack_is_one_error_line(capsys, tmp_path):
    # At the default limit 340 cross-ratios at degree 120 overflow the stack
    # after 3.4 s; a limit 100 frames above this one overflows on 40 of them.
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(_cross_ratio_chain(40)))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        code, out, err = run(capsys, "eval", chain)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 1
    assert out == ""
    assert err.startswith("error: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_distinct_free_rows_up_to_forty_answer_quickly(capsys, tmp_path):
    # Trying every set of distinct free rows took 1.2 s and 462 MB at k = 22;
    # the steps stop such a loop at k = 16, before it can exhaust memory.
    ladder = tmp_path / "ladder.json"
    tracemalloc.start()
    try:
        for k in (10, 16, 22, 40):
            ladder.write_text(json.dumps(free_row_ladder(k)))
            tracemalloc.reset_peak()
            start = time.perf_counter()
            assert run(capsys, "eval", ladder) == (0, "0\n", ""), k
            assert time.perf_counter() - start < 1, k
            assert tracemalloc.get_traced_memory()[1] < 2 << 20, k
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("field", ["vertices", "edges", "ends"])
def test_map_missing_a_field_is_rejected(capsys, tmp_path, field):
    document = json.loads((FIXTURES / "c2_01.json").read_text())
    del document[field]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(document))
    code, out, err = run(capsys, "mult", partial)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert f"missing field '{field}' in stablemap file" in err


def _kontsevich_residue(dmax: int, prime: int) -> int:
    """N_dmax mod ``prime`` from the classical recursion, binomials by Pascal's rule mod ``prime``."""
    n = [0, 1]
    row = [1]
    for d in range(2, dmax + 1):
        while len(row) < 3 * d - 3:  # row[k] = C(3d - 4, k) mod prime
            row = [(a + b) % prime for a, b in zip([0, *row], [*row, 0])]
        total = sum(
            (d1 * d1 * (d - d1) ** 2 * row[3 * d1 - 2] - d1**3 * (d - d1) * row[3 * d1 - 1])
            * n[d1]
            * n[d - d1]
            for d1 in range(1, d)
        )
        n.append(total % prime)
    return n[dmax]


def test_eval_answers_a_point_only_degree_500_instance(capsys, tmp_path):
    # 1,499 points pin down N_500; the smaller degrees are cached bottom-up,
    # so no degree may reach the interpreter's recursion limit
    points = tmp_path / "points.json"
    points.write_text(
        json.dumps({"schema": "instance/1", "degree": 500, "points": list(range(1, 1500))})
    )
    code, out, err = run(capsys, "eval", points)
    assert code == 0
    assert err == ""
    count = out.splitlines()[-1]
    assert len(count) == 3673
    prime = 2**61 - 1
    assert int(count) % prime == _kontsevich_residue(500, prime)


def test_missing_file_is_an_error(capsys, tmp_path):
    code, out, err = run(capsys, "eval", tmp_path / "nowhere.json")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_node_budget_is_enforced(capsys):
    code, out, err = run(
        capsys, "eval", "--max-nodes", "1", FIXTURES / "worked_example_23.json"
    )
    assert code == 1
    assert out == ""
    assert "more than 1 recursion nodes" in err


def test_least_node_budget_of_the_worked_example(capsys):
    # five distinct instances: the root, one inner split node and three sides without cross-ratios
    example = FIXTURES / "worked_example_23.json"
    code, out, err = run(capsys, "eval", "--max-nodes", "4", example)
    assert (code, out) == (1, "")
    assert err == "error: more than 4 recursion nodes after 1 split terms\n"
    assert run(capsys, "eval", "--max-nodes", "5", example) == (0, "6\n", "")


def test_jobs_do_not_change_the_output(capsys):
    _, serial, _ = run(capsys, "eval", "--jobs", "1", FIXTURES / "worked_example_23.json")
    _, threaded, _ = run(capsys, "eval", "--jobs", "8", FIXTURES / "worked_example_23.json")
    assert serial == threaded == "6\n"


def test_nonpositive_arguments_are_rejected_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(FIXTURES / "worked_example.json"), "--jobs", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["kontsevich", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def _captured(argv):
    """(exit code, stdout, stderr) of one ``main`` call; a parser exit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_answers_like_a_fresh_one(monkeypatch):
    example = str(FIXTURES / "worked_example_23.json")
    calls = [
        ["eval", example, "--jobs", "0"],
        ["eval", "--max-nodes", "1", example],
        ["eval", "--trace", example],
        ["eval", example],
    ]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    reused = [_captured(argv) for argv in calls + calls]
    assert len(built) == 1
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(_captured(argv))
    assert reused == fresh + fresh
    assert [code for code, _, _ in fresh] == [2, 1, 0, 0]
    assert fresh[1][2].startswith("error:")
    assert fresh[3][1] == "6\n"


def _rejected(capsys, tmp_path, command, document, message):
    """Run ``command`` on ``document``: exit 1, no stdout, one ``error:`` line naming the field."""
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, command, path)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert message in err


def _instance_document(**fields):
    document = {"schema": "instance/1", "degree": 1, "points": [1, 2], "crossratios": []}
    document.update(fields)
    return document


def test_string_degree_is_rejected(capsys, tmp_path):
    document = _instance_document(degree="2", points=[1, 2, 3, 4, 5])
    _rejected(capsys, tmp_path, "eval", document, 'degree: expected an integer, got "2"')


def test_bare_int_line_is_rejected(capsys, tmp_path):
    document = _instance_document(lines=[3])
    _rejected(capsys, tmp_path, "eval", document, "lines: expected an object, got 3")


def test_one_element_edge_direction_is_rejected(capsys, tmp_path):
    document = json.loads((FIXTURES / "c2_01.json").read_text())
    document["edges"][0]["direction"] = [0]
    _rejected(
        capsys, tmp_path, "mult", document, "direction of edge l1: expected a list of 2 items"
    )


def test_string_slots_are_rejected(capsys, tmp_path):
    document = {"schema": "profile/1", "slots": "abc"}
    message = 'slots: expected a list of any number of items, got "abc"'
    _rejected(capsys, tmp_path, "multcr", document, message)


def test_repeated_slot_is_rejected(capsys, tmp_path):
    # four listed slots, not the three distinct ones the valence 3 + 0 allows
    document = {"schema": "profile/1", "slots": [1, 1, 2, 3]}
    message = "slots: expected distinct slots, got [1, 1, 2, 3]"
    _rejected(capsys, tmp_path, "multcr", document, message)


@pytest.mark.parametrize(
    "crossratio, slots",
    [
        ([1, 1, 2, 3], [1, 2, 3, 4, 5]),
        ([1, 2, 3], [1, 2, 3, 4]),
        ([1, 2, 3, 4, 5], [1, 2, 3, 4]),
        ([1, 2, 3, 9], [1, 2, 3, 4]),
    ],
    ids=["repeated entry", "three entries", "five entries", "slot outside"],
)
def test_malformed_profile_crossratio_is_rejected(capsys, tmp_path, crossratio, slots):
    document = {"schema": "profile/1", "slots": slots, "crossratios": [crossratio]}
    message = "cross-ratio 0 must route 4 entries to 4 distinct slots of the profile"
    _rejected(capsys, tmp_path, "multcr", document, message)


def test_boolean_weight_is_rejected(capsys, tmp_path):
    document = _instance_document(lines=[{"label": 3, "weight": True}])
    _rejected(capsys, tmp_path, "eval", document, "line weight: expected an integer, got true")


def test_float_label_is_rejected(capsys, tmp_path):
    document = _instance_document(points=[1.0, 2])
    _rejected(capsys, tmp_path, "eval", document, "points: expected an integer, got 1.0")


def _split_map(edit):
    """The ``split_2_0.json`` map document after ``edit`` changed it in place."""
    document = json.loads((FIXTURES / "split_2_0.json").read_text())
    edit(document)
    return document


def _edge(document, edge_id):
    return next(edge for edge in document["edges"] if edge["id"] == edge_id)


def _end(document, label):
    return next(end for end in document["ends"] if end["label"] == label)


@pytest.mark.parametrize(
    "command, document, message",
    [
        pytest.param(
            "mult", _split_map(lambda d: _edge(d, "x").update(head="W")),
            "edge x is a loop", id="loop edge",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _edge(d, "x").update(weight=0)),
            "edge x weight must be positive", id="edge weight 0",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _edge(d, "x").update(direction=[-2, 0])),
            "edge x direction must be primitive", id="edge direction not primitive",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _end(d, 7).update(condition={"kind": "point"})),
            "non-contracted end 7 cannot carry a condition", id="ray with a condition",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _end(d, 3)["condition"].update(normal=[0, 0])),
            "line tags need a nonzero normal covector", id="line normal 0",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _end(d, 3)["condition"].update(weight=0)),
            "line weight must be positive", id="line weight 0",
        ),
        pytest.param(
            "mult",
            _split_map(
                lambda d: _end(d, 3).update(condition={"kind": "degenerated line", "type": "11"})
            ),
            "degenerated line type must be 10, 01 or 1-1, got '11'", id="degenerated line type 11",
        ),
        pytest.param(
            "mult", _split_map(lambda d: d["vertices"].append("W")),
            "duplicate vertex names", id="repeated vertex",
        ),
        pytest.param(
            "mult", _split_map(lambda d: d["ends"].append(d["ends"][0])),
            "duplicate end labels", id="repeated end",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _edge(d, "x").update(head="Q")),
            "edge x touches an unknown vertex", id="edge to an unknown vertex",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _end(d, 1).update(vertex="Q")),
            "end 1 sits at an unknown vertex", id="end at an unknown vertex",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _edge(d, "y").update(id="x")),
            "duplicate edge ids", id="repeated edge id",
        ),
        pytest.param(
            "mult", _split_map(lambda d: d["edges"].pop()),
            "the underlying graph is not a tree", id="edge missing",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _edge(d, "epsv").update(tail="X", head="Y")),
            "the underlying graph is not connected", id="cycle",
        ),
        pytest.param(
            "mult", _split_map(lambda d: d.update(base=7)),
            "the base must be a contracted end", id="base on a ray",
        ),
        pytest.param(
            "mult", _split_map(lambda d: d.update(base=99)),
            "no end labelled 99", id="base not an end",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _edge(d, "x").update(id=3)),
            "edge id: expected a string, got 3", id="edge id 3",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _edge(d, "x").update(tail=3)),
            "tail of edge x: expected a string, got 3", id="edge tail 3",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _edge(d, "x").update(head=["v"])),
            'head of edge x: expected a string, got ["v"]', id="edge head a list",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _edge(d, "x").update(weight=True)),
            "weight of edge x: expected an integer, got true", id="edge weight true",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _edge(d, "x").update(weight=1.5)),
            "weight of edge x: expected an integer, got 1.5", id="edge weight 1.5",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _edge(d, "x").update(direction=[1, True])),
            "direction of edge x: expected an integer, got true", id="edge direction [1, true]",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _end(d, 1).update(direction=[0.0, 0])),
            "direction of end 1: expected an integer, got 0.0", id="end direction [0.0, 0]",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _end(d, 1).update(vertex=3)),
            "vertex of end 1: expected a string, got 3", id="end vertex 3",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _end(d, 5).update(label="5")),
            'end label: expected an integer, got "5"', id="end label a string",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _end(d, 1).update(condition="point")),
            'condition of end 1: expected an object, got "point"', id="condition a string",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _end(d, 3)["condition"].update(normal=[1])),
            "normal of end 3: expected a list of 2 items, got [1]", id="line normal [1]",
        ),
        pytest.param(
            "mult", _split_map(lambda d: d.update(base="1")),
            'base: expected an integer, got "1"', id="base a string",
        ),
        pytest.param(
            "mult", _split_map(lambda d: _end(d, 2).update(condition={"kind": "free"})),
            "evaluation matrix is 6x8: the conditions do not make the map rigid",
            id="map not rigid",
        ),
        pytest.param(
            "eval", _instance_document(degree=-1),
            "degree must be >= 0, got -1", id="negative degree",
        ),
        pytest.param(
            "multcr", {"schema": "profile/1"},
            "missing field 'slots' in profile file", id="profile without slots",
        ),
    ],
)
def test_each_input_rejection_gets_one_error_line(capsys, tmp_path, command, document, message):
    _rejected(capsys, tmp_path, command, document, message)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 9) | st.floats(-2, 9) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def _field_paths(node, prefix=()):
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


@pytest.mark.parametrize(
    "command, name",
    [("eval", "worked_example_23.json"), ("multcr", "profile6.json"), ("mult", "split_1_1.json")],
)
@given(data=st.data())
def test_any_field_replaced_gets_an_answer_or_one_error_line(command, name, data):
    document = json.loads((FIXTURES / name).read_text())
    path = data.draw(st.sampled_from(sorted(_field_paths(document), key=repr)))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(_JSON_VALUES)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        changed = Path(directory) / "changed.json"
        changed.write_text(json.dumps(document))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(changed)])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1


def test_cli_output_digest_is_pinned():
    # The byte-identity gate of tools/cli_digest.py: a change meant to
    # alter what the command line prints updates this pin and says so.
    path = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.digest() == (
        204,
        "e5c938e2acb7374b630301de7f6198539b26f752cc8337544a44578949062bd9",
    )


@pytest.mark.parametrize(
    "fields",
    [
        # a free end meeting a line: the root choices used to disagree
        dict(
            lines=[1, 2, 3, 4, 5], free=[6], crossratios=[[1, 2, 3, 4], [1, 2, 3, 5], [1, 4, 5, 6]]
        ),
        dict(lines=[1, 2, 3, 4, 5, 6], crossratios=[[1, 2, 3, 4], [1, 2, 5, 6]]),
    ],
)
def test_check_reports_each_mismatch_of_the_battery(capsys, tmp_path, fields):
    lines = [{"label": x, "weight": 1} for x in fields["lines"]]
    document = _instance_document(**(fields | {"points": [], "lines": lines}))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(document))
    report = evaluate_invariance_battery(cli.instance_from_dict(document))
    code, out, err = run(capsys, "eval", "--check", path)
    assert code == (0 if report.ok else 1)
    expected = [
        f"mismatch: cr {v.last} pairing ({v.pairing.first[0]} {v.pairing.first[1]} | "
        f"{v.pairing.second[0]} {v.pairing.second[1]}) gave {v.value}, expected {report.value}"
        for v in report.mismatches
    ]
    assert err.splitlines() == expected
    summary = [f"invariance ok over {len(report.variants)} variants", str(report.value)]
    assert out.splitlines() == (summary if report.ok else [])


def test_check_prints_the_mismatch_of_a_disagreeing_root_choice(capsys, tmp_path, monkeypatch):
    # Every root choice agrees here (count 1); the battery is handed one more
    # that keeps no pair of its pairing, so it counts 0.
    listed = engine.resolution_choices

    def with_one_more(inst):
        choices = list(listed(inst))
        pairing, (last, pinned, _) = choices[-1]
        return iter([*choices, (pairing, (last, pinned, ()))])

    monkeypatch.setattr("crosskont.engine.resolution_choices", with_one_more)
    lines = [{"label": x, "weight": 1} for x in range(1, 6)]
    crossratios = [[1, 2, 3, 4], [1, 2, 3, 5], [1, 4, 5, 6]]
    document = _instance_document(points=[], lines=lines, free=[6], crossratios=crossratios)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "eval", "--check", path)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["mismatch: cr 0 pairing (1 2 | 3 4) gave 0, expected 1"]
