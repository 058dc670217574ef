"""Acceptance gate: one test per release criterion.

Each test prints a single ``criterion N (...): PASS`` or ``FAIL`` line
on the real stdout, so the gate can be read off a plain pytest run.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from crosskont.cli import main
from crosskont.conditions import CrossRatio, Instance, all_pairings, validate
from crosskont.engine import evaluate, evaluate_invariance_battery, kontsevich
from crosskont.resolution import VertexProfile, cross_ratio_multiplicity, total_resolutions
from crosskont.splits import ONE_ONE, TWO_ZERO_SIDE1_FIXED, enumerate_splits
from crosskont.stablemap import check_split_multiplicity, multiplicity, stablemap_from_dict

from corpus import CORPUS
from test_resolution import separates
from test_splits import brute_splits

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def banner(number, title):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number} ({title}): FAIL")
            raise
        with capsys.disabled():
            print(f"criterion {number} ({title}): PASS")

    return banner


def load_map(name):
    with open(FIXTURES / name, encoding="utf-8") as handle:
        return stablemap_from_dict(json.load(handle))


def test_criterion_1_classical_count_table(criterion, capsys):
    with criterion(1, "classical count table"):
        start = time.perf_counter()
        assert [kontsevich(d) for d in range(1, 6)] == [1, 1, 12, 620, 87304]
        assert main(["kontsevich", "5"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["1 1", "2 1", "3 12", "4 620", "5 87304"]
        assert time.perf_counter() - start < 1.0


def test_criterion_2_worked_example_end_to_end(criterion, capsys):
    with criterion(2, "worked example end to end"):
        start = time.perf_counter()

        def worked(w4, w5):
            return Instance.build(
                2,
                points=[1, 2, 3],
                lines={4: w4, 5: w5},
                crossratios=[[1, 2, 3, 4], [1, 2, 3, 5]],
            )

        assert evaluate(worked(1, 1)) == 1
        assert evaluate(worked(2, 3)) == 6

        assert main(["eval", "--trace", str(FIXTURES / "worked_example_23.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "6"
        splits = [line.strip() for line in lines if "split [" in line]
        assert splits == [
            "split [2/0 side 1 fixed] (d=1: p1 p2 L4 cr{1,2,3,4} | d=1: p3 L5)",
            "split [1/1] (d=1: p1 p2 | d=0: L4 f6)",
        ]
        stripped = [line.strip() for line in lines]
        assert "term 1 * 2 = 2" in stripped
        assert "term 2 * 3 = 6" in stripped

        assert main(["eval", str(FIXTURES / "worked_example.json")]) == 0
        assert capsys.readouterr().out == "1\n"
        assert time.perf_counter() - start < 1.0


def test_criterion_3_vertex_multiplicity_examples(criterion):
    with criterion(3, "vertex multiplicity examples"):
        five = VertexProfile.of([1, 2, 3, 4, 5], [[1, 2, 3, 4], [1, 2, 3, 5]])
        six = VertexProfile.of(
            [1, 2, 3, 4, 5, 6], [[1, 2, 5, 6], [3, 4, 5, 6], [1, 2, 3, 4]]
        )
        assert cross_ratio_multiplicity(five) == 1
        assert cross_ratio_multiplicity(six) == 2


def test_criterion_4_degenerated_line_fixtures(criterion):
    with criterion(4, "degenerated line fixtures"):
        plane_map, crossratios = load_map("c2_01.json")
        assert multiplicity(plane_map, crossratios) == 1
        plane_map, crossratios = load_map("c2_10.json")
        assert multiplicity(plane_map, crossratios) == 0


def test_criterion_5_invariance_battery_over_corpus(criterion):
    with criterion(5, "invariance battery over the corpus"):
        start = time.perf_counter()
        assert len(CORPUS) >= 50
        for inst in CORPUS:
            assert validate(inst)
            assert inst.degree <= 2
            assert len(inst.crossratios) <= 3
            assert len(inst.lines) <= 3
            assert len(inst.free) <= 2
        mismatched = [inst for inst in CORPUS if not evaluate_invariance_battery(inst).ok]
        assert mismatched == []
        assert time.perf_counter() - start < 300.0


def test_criterion_6_resolution_count_invariance(criterion):
    with criterion(6, "resolution count invariance"):
        start = time.perf_counter()
        profiles = 0
        for r in range(4):
            slots = tuple(range(1, 4 + r))
            quads = list(itertools.combinations(slots, 4))
            for crs in itertools.combinations_with_replacement(quads, r):
                prof = VertexProfile.of(slots, crs)
                baseline = len(total_resolutions(prof))
                assert cross_ratio_multiplicity(prof) == baseline
                choices = [tuple(all_pairings(CrossRatio.of(*cr))) for cr in crs]
                for order in itertools.permutations(range(r)):
                    for combo in itertools.product(*choices):
                        trees = total_resolutions(
                            prof, pairings=dict(enumerate(combo)), order=order
                        )
                        assert len(trees) == baseline
                        for tree in trees:
                            for i, pairing in enumerate(combo):
                                assert separates(tree.split_for(i), pairing, slots)
                profiles += 1
        assert profiles == 697
        assert time.perf_counter() - start < 120.0


def test_criterion_7_split_enumerator_matches_brute_force(criterion):
    with criterion(7, "split enumerator matches brute force"):
        small = [inst for inst in CORPUS if len(inst.labels) <= 8]
        assert len(small) >= 30
        for inst in small:
            for last in range(len(inst.crossratios)):
                for pairing in all_pairings(inst.crossratios[last]):
                    got = enumerate_splits(inst, last, pairing)
                    assert len(set(got)) == len(got)
                    assert set(got) == brute_splits(inst, last, pairing)


def test_criterion_8_multiplicity_splitting_identities(criterion):
    with criterion(8, "multiplicity splitting identities"):
        plane_map, crossratios = load_map("split_2_0.json")
        report = check_split_multiplicity(plane_map, "e", crossratios)
        assert report.kind == TWO_ZERO_SIDE1_FIXED
        assert report.multiplicity == report.predicted == 1
        assert report.relations is None
        assert report.ok

        plane_map, crossratios = load_map("split_1_1.json")
        report = check_split_multiplicity(plane_map, "e", crossratios)
        assert report.kind == ONE_ONE
        assert report.multiplicity == report.predicted == 1
        # per side: -det(M_10) + det(M_01) + det(M_1-1) vanishes
        assert report.relations == (0, 0)
        assert report.ok


def test_criterion_9_output_is_independent_of_job_count(criterion, capsys, tmp_path):
    with criterion(9, "output is independent of job count"):
        serial = []
        threaded = []
        for i, inst in enumerate(CORPUS):
            document = {
                "schema": "instance/1",
                "degree": inst.degree,
                "points": list(inst.points),
                "lines": [
                    {"label": label, "weight": inst.condition(label).weight}
                    for label in inst.lines
                ],
                "free": list(inst.free),
                "crossratios": [sorted(cr) for cr in inst.crossratios],
            }
            path = tmp_path / f"instance_{i}.json"
            path.write_text(json.dumps(document))
            assert main(["eval", "--jobs", "1", str(path)]) == 0
            serial.append(capsys.readouterr().out)
            assert main(["eval", "--jobs", "8", str(path)]) == 0
            threaded.append(capsys.readouterr().out)
        assert serial == threaded
        assert "".join(serial).encode() == "".join(threaded).encode()
