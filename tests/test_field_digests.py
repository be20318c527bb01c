import dataclasses
import importlib.util
from pathlib import Path

from wulffkit import distance

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "field_digests.py"
spec = importlib.util.spec_from_file_location("field_digests", SCRIPT)
field_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(field_digests)

WULFF = ROOT / "scenes" / "wulff_d2.json"


def test_every_field_of_wulff_d2_is_listed(capsys):
    assert field_digests.main([str(WULFF), "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # steiner reads the scene integrand's field, reach also the Euclidean one
    assert [line.split()[:4] for line in lines] == [
        ["wulff_d2", "w1", "QuadraticNorm", "119600"],
        ["wulff_d2", "w1", "EuclideanNorm", "119600"],
    ]
    assert all(len(line.split()[4]) == len(line.split()[5]) == 32 for line in lines)


def test_a_delta_off_by_one_part_in_1e12_changes_its_digest(monkeypatch):
    plain = field_digests.field_lines(WULFF)
    scan = distance._FieldPlan.scan

    def scaled(plan):
        field = scan(plan)
        field.delta[...] *= 1.0 + 1e-12
        return field

    monkeypatch.setattr(distance._FieldPlan, "scan", scaled)
    moved = field_digests.field_lines(WULFF)
    for before, after in zip(plain, moved):
        before, after = before.split(), after.split()
        assert before[:4] == after[:4]
        assert before[4] != after[4] and before[5] == after[5]


def test_queries_add_a_digest_of_the_projections(capsys):
    assert field_digests.main([str(WULFF), "--seed", "1", "--queries", "4"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    plain = [line.split() for line in field_digests.field_lines(WULFF, 1)]
    assert [line[:6] for line in lines] == plain
    assert all(len(line) == 7 and len(line[6]) == 32 for line in lines)
    # the query points are drawn from the scene's seed
    assert field_digests.field_lines(WULFF, 2, 4)[0].split()[6] != lines[0][6]


def test_a_projection_off_by_one_part_in_1e12_changes_its_digest(monkeypatch):
    plain = field_digests.field_lines(WULFF, queries=4)
    project = distance.project

    def scaled(field, x):
        res = project(field, x)
        return dataclasses.replace(res, delta=res.delta * (1.0 + 1e-12))

    monkeypatch.setattr(distance, "project", scaled)
    moved = field_digests.field_lines(WULFF, queries=4)
    for before, after in zip(plain, moved):
        before, after = before.split(), after.split()
        assert before[:6] == after[:6] and before[6] != after[6]
