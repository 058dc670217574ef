"""Tests for tools/bench_record.py on made-up benchmark results."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    path = ROOT / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spec() -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    groups = ("end_to_end", "per_layer")
    return {group: {m["name"]: m for m in benchmark[group]} for group in groups}


def _write(path: Path, runs: list[tuple[str, int, int, dict]], **context) -> None:
    """One sweep.py line per (workload, seed, trace, metric values); ``context`` overrides."""
    context = {"python": "3", "nproc": 2, "commit": "abc", "src_lines": 10,
               "src_sha256": "0123456789abcdef", **context}
    with open(path, "w", encoding="utf-8") as handle:
        for workload, seed, trace, values in runs:
            metrics = {name: {"value": value, "unit": ""} for name, value in values.items()}
            result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
            record = {"workload": workload, "seed": seed, "trace": trace, "context": context,
                      "result": result}
            handle.write(json.dumps(record) + "\n")


def _end_to_end(wall_s: float) -> dict:
    return {"wall_s": wall_s, "largest_item_s": 0.01, "item_p50_ms": 1.0, "peak_rss_mb": 25.0,
            "answered_share": 1.0, "setup_s": 0.04}


def test_pairs_carry_quartiles_wins_and_verdicts(tmp_path):
    tool = _tool()
    _write(tmp_path / "p.jsonl", [("w", s, 0, _end_to_end(0.30 + 0.001 * s)) for s in range(1, 11)])
    # seed 11 has no partner and must not be paired
    _write(tmp_path / "c.jsonl", [("w", s, 0, _end_to_end(0.20 + 0.001 * s)) for s in range(1, 12)])
    pairs = tool._pairs(tool.load(tmp_path / "p.jsonl"), tool.load(tmp_path / "c.jsonl"), _spec())
    assert list(pairs) == ["w"]
    assert pairs["w"]["seeds"] == list(range(1, 11)) and pairs["w"]["pairs"] == 10
    wall = pairs["w"]["metrics"]["wall_s"]
    assert wall["change_wins"] == 10 and wall["verdict"] == "improved"
    assert wall["parent"]["median"] == 0.3055 and wall["change"]["median"] == 0.2055
    assert wall["bound"] == 0.25
    assert pairs["w"]["metrics"]["peak_rss_mb"]["verdict"] == "unchanged"
    assert pairs["w"]["metrics"]["peak_rss_mb"]["change_wins"] == 0


def test_traced_metrics_come_from_the_least_seed_on_both_sides():
    tool = _tool()
    run = lambda seed, nodes: {"workload": "w", "seed": seed, "result": {
        "correct": True, "metrics": {"engine.nodes": {"value": nodes}, "other": {"value": 1}}}}
    name, traced = tool._traced([run(2, 7), run(3, 9)], [run(1, 5), run(2, 6)], _spec())
    assert name == "traced_seed_2"
    assert traced == {"w": {"correct": {"parent": True, "change": True},
                            "metrics": {"engine.nodes": {"parent": 7, "change": 6}}}}


def test_record_names_the_measured_code_by_line_count_and_hash(tmp_path, monkeypatch):
    # sweeps run in copies without .git report no commit; the src/ hash still tells them apart
    tool = _tool()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "digest", lambda: (204, "feed"))
    runs = lambda wall: [("w", s, 0, _end_to_end(wall + 0.001 * s)) for s in range(1, 11)]
    _write(tmp_path / "p.jsonl", runs(0.30), commit="unknown", src_sha256="aaaa", src_lines=12)
    _write(tmp_path / "c.jsonl", runs(0.20), commit="unknown", src_sha256="bbbb", src_lines=11)
    argv = ["--number", "99", "--parent", str(tmp_path / "p.jsonl"),
            "--change", str(tmp_path / "c.jsonl"), "--claim", "w:wall_s", "--note", "n",
            "--extra", 'calls={"parent": 9, "change": 3}']
    assert tool.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert record["parent_commit"] == "unknown"
    assert record["src_sha256"] == {"parent": "aaaa", "change": "bbbb"}
    assert record["src_lines"] == {"parent": 12, "change": 11}
    assert record["claim"]["verdict"] == "improved" and record["cli_digest"]["runs"] == 204
    assert record["calls"] == {"parent": 9, "change": 3}
