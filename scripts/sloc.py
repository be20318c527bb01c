"""Count the code lines of each module of a Python package.

    python3 scripts/sloc.py [PACKAGE_DIR]     (default: src/wulffkit)

A code line is a physical line that holds at least one token other than a
comment, and that is not part of a docstring: the string statement that
opens a module, class or function body.  Blank lines, comment lines and
docstring lines are left out; a line of a multi-line expression or of a
multi-line string that is not a docstring counts.  Prints one line per
module, ``count path``, and then ``count total``.  Needs only the standard
library.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_package(root: Path) -> dict:
    """{relative path: code lines} for every ``*.py`` file under ``root``."""
    return {
        path.relative_to(root).as_posix(): code_lines(path.read_text())
        for path in sorted(root.rglob("*.py"))
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/wulffkit")
    counts = count_package(root)
    for path, n in counts.items():
        print(f"{n:6d} {path}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
