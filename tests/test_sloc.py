import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sloc.py"
spec = importlib.util.spec_from_file_location("sloc", SCRIPT)
sloc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sloc)

# 8 code lines: the import, the dict's three lines, the two lines of the
# multi-line string (not a docstring), and the def and return of f
MODULE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps the line

# a comment line

TABLE = {
    "a": 1,
}
TEXT = """not a
docstring"""


def f():
    """Function docstring."""

    return os.sep
'''

CLASS = '''class C:
    """Class docstring,

    three lines."""

    x = 1
'''


def test_code_lines_leave_out_blank_comment_and_docstring_lines():
    assert sloc.code_lines(MODULE) == 8
    assert sloc.code_lines(CLASS) == 2
    assert sloc.code_lines("") == 0


def test_package_counts_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text(CLASS)
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert sloc.count_package(tmp_path) == {"a.py": 8, "sub/b.py": 2}
    assert sloc.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split() == ["10", "total"]
