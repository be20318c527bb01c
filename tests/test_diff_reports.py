import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_reports.py"
spec = importlib.util.spec_from_file_location("diff_reports", SCRIPT)
diff_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_reports)


def _tree(root, report, csv):
    (root / "scene").mkdir(parents=True)
    (root / "scene" / "report.json").write_text(json.dumps(report, indent=2))
    (root / "scene" / "field.csv").write_text(csv)
    return root


REPORT = {"suites": [{"name": "reach", "passed": True, "metrics": {"r": 0.5, "n": 3}}]}


def test_identical_trees_exit_0(tmp_path, capsys):
    old = _tree(tmp_path / "old", REPORT, "a,b\n1,2\n")
    new = _tree(tmp_path / "new", REPORT, "a,b\n1,2\n")
    assert diff_reports.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == ""


def test_each_difference_is_printed(tmp_path, capsys):
    changed = {"suites": [{"name": "reach", "passed": False, "metrics": {"r": 0.75, "n": 3}}]}
    old = _tree(tmp_path / "old", REPORT, "a,b\n1,2\n")
    new = _tree(tmp_path / "new", changed, "a,b\n1,3\n")
    (new / "extra.csv").write_text("x\n")
    assert diff_reports.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "extra.csv only in NEW",
        "scene/field.csv:b 1 1 0.5",
        "scene/report.json.suites[0].metrics.r 0.5 0.75 0.25 0.5",
        "scene/report.json.suites[0].passed true false",
    ]


def test_csv_columns_compare_by_value(tmp_path, capsys):
    old = _tree(tmp_path / "old", REPORT, "x,y,z\n1.0,2,nan\n3,4,5\n")
    new = _tree(tmp_path / "new", REPORT, "x,y,z\n1.0,2.5,1\n3,4.25,5\n")
    assert diff_reports.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "scene/field.csv:y 2 0.5 0.25",
        "scene/field.csv:z 1 inf inf",
    ]


def test_relative_change_is_printed(tmp_path, capsys):
    # a change at rounding level reads as one whatever the size of the
    # number; a change from 0 is infinitely large
    old_report = {"checks": [{"value": 2e-6}, {"value": 0.0}, {"value": 300.0}]}
    new_report = {"checks": [{"value": 2.000002e-6}, {"value": 1e-12}, {"value": 300.0}]}
    old = _tree(tmp_path / "old", old_report, "x,y\n4,1e-9\n0,5\n")
    new = _tree(tmp_path / "new", new_report, "x,y\n5,1.5e-9\n0,5\n")
    assert diff_reports.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "scene/field.csv:x 1 1 0.25",
        "scene/field.csv:y 1 5e-10 0.5",
        "scene/report.json.checks[0].value 2e-06 2.000002e-06 2e-12 1e-06",
        "scene/report.json.checks[1].value 0.0 1e-12 1e-12 inf",
    ]


@pytest.mark.parametrize(
    "new_csv, expected",
    [
        ("a,c\n1,2\n", "scene/field.csv: header a,b -> a,c\n"),
        ("a,b\n1,2\n3,4\n", "scene/field.csv: rows 1 -> 2\n"),
        ("a,b\n1,x\n", "scene/field.csv differs\n"),
        ("a,b\n1.0,2\n", "scene/field.csv differs\n"),
    ],
    ids=["header", "row count", "not a number", "same values"],
)
def test_csv_that_cannot_compare_by_value_differs(tmp_path, capsys, new_csv, expected):
    old = _tree(tmp_path / "old", REPORT, "a,b\n1,2\n")
    new = _tree(tmp_path / "new", REPORT, new_csv)
    assert diff_reports.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out == expected


def test_csv_shape_change_prints_header_and_rows(tmp_path, capsys):
    old = _tree(tmp_path / "old", REPORT, "x1,x2\n1,2\n3,4\n5,6\n")
    new = _tree(tmp_path / "new", REPORT, "x1,x2,nu1\n1,2,0\n")
    (new / "empty.csv").write_text("")
    (old / "empty.csv").write_text("a\n1\n")
    assert diff_reports.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "empty.csv: header a -> (empty)",
        "empty.csv: rows 1 -> 0",
        "scene/field.csv: header x1,x2 -> x1,x2,nu1",
        "scene/field.csv: rows 3 -> 1",
    ]


def test_reformatted_json_differs(tmp_path, capsys):
    old = _tree(tmp_path / "old", REPORT, "")
    new = _tree(tmp_path / "new", REPORT, "")
    (new / "scene" / "report.json").write_text(json.dumps(REPORT))
    assert diff_reports.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out == "scene/report.json differs\n"


def _checks(*entries):
    return {"checks": [{"name": n, "value": v} for n, v in entries]}


def test_lists_of_unequal_length_match_by_name(tmp_path, capsys):
    # a removed or added check prints alone and its neighbours compare by
    # name; lists of equal length keep their index paths
    old = _tree(tmp_path / "old", _checks(("a", 1.0), ("b", 2.0)), "")
    new = _tree(tmp_path / "new", _checks(("a", 1.0), ("c", 2.0)), "")
    (old / "var.json").write_text(json.dumps(_checks(("a", 1.0), ("gone", 0.0), ("b", 2.0))))
    (new / "var.json").write_text(json.dumps(_checks(("a", 1.0), ("b", 2.5), ("c", 3.0), ("d", 4.0))))
    # without a unique name on every entry the lists compare as one value
    (old / "twice.json").write_text(json.dumps([{"name": "x"}, {"name": "x"}]))
    (new / "twice.json").write_text(json.dumps([{"name": "x"}]))
    assert diff_reports.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        'scene/report.json.checks[1].name "b" "c"',
        'twice.json [{"name": "x"}, {"name": "x"}] [{"name": "x"}]',
        'var.json.checks[gone] {"name": "gone", "value": 0.0} (missing)',
        "var.json.checks[b].value 2.0 2.5 0.5 0.25",
        'var.json.checks[c] (missing) {"name": "c", "value": 3.0}',
        'var.json.checks[d] (missing) {"name": "d", "value": 4.0}',
    ]
