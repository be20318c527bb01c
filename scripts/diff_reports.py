"""Compare two ``wulffkit all`` output trees and print what differs.

    python3 scripts/diff_reports.py OLD NEW

Every file under either tree is matched by its relative path.  In JSON
files each differing number prints as ``path old new |new - old| rel``, with
rel = |new - old| / |old| (inf where old is 0), so a change at rounding level
reads as one; any other differing value prints as ``path old new``.
JSON lists of unequal length whose entries all carry a unique string
``"name"`` are matched by it: a matched entry prints under ``path[name]``
and an unmatched one as ``path[name] old (missing)`` or ``path[name]
(missing) new``; lists of equal length compare index by index.  In CSV
files with the same header and row count, each column with differing numbers
prints as ``file:column n_cells max|new - old| max rel``, the largest
absolute and the largest relative change of its cells; a changed header prints as
``file: header OLD -> NEW`` and a changed count of data rows as
``file: rows A -> B``.  Every other file is compared by its bytes, and a
differing one prints as ``file differs``.  Exits 1 if anything
differs, 0 otherwise.  Needs only the standard library.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _relative(old: float, new: float) -> float:
    """|new - old| / |old|, inf where old is 0 and new is not."""
    delta = abs(new - old)
    return delta / abs(old) if old else math.inf


def _by_name(entries):
    """{name: entry} of a list whose entries all carry a unique string
    "name", in list order, else None."""
    named = {}
    for entry in entries:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name in named:
            return None
        named[name] = entry
    return named


def _diff_keyed(old: dict, new: dict, keys, path):
    """Lines for the entries of two keyed collections, under ``path(key)``."""
    lines = []
    for key in keys:
        sub = path(key)
        if key not in new:
            lines.append(f"{sub} {json.dumps(old[key])} (missing)")
        elif key not in old:
            lines.append(f"{sub} (missing) {json.dumps(new[key])}")
        else:
            lines += diff_values(old[key], new[key], sub)
    return lines


def diff_values(old, new, path: str):
    """Lines for each leaf that differs between two parsed JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        return _diff_keyed(old, new, sorted(old.keys() | new.keys()), lambda k: f"{path}.{k}")
    if isinstance(old, list) and isinstance(new, list):
        if len(old) == len(new):
            lines = []
            for i, (a, b) in enumerate(zip(old, new)):
                lines += diff_values(a, b, f"{path}[{i}]")
            return lines
        a, b = _by_name(old), _by_name(new)
        if a is not None and b is not None:
            keys = list(a) + [k for k in b if k not in a]
            return _diff_keyed(a, b, keys, lambda k: f"{path}[{k}]")
    if _is_number(old) and _is_number(new):
        if old == new:
            return []
        return [f"{path} {old!r} {new!r} {abs(new - old):.3g} {_relative(old, new):.3g}"]
    if old == new and type(old) is type(new):
        return []
    return [f"{path} {json.dumps(old)} {json.dumps(new)}"]


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _header(rows) -> str:
    return ",".join(rows[0]) if rows else "(empty)"


def diff_csv(old: str, new: str, rel: str):
    """A line per column whose numbers differ between two CSV texts with the
    same header and row count, else no lines; a line for the header and one
    for the row count where those differ; None when a differing cell is not
    a number on both sides."""
    a, b = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    shape = []
    if a[:1] != b[:1]:
        shape.append(f"{rel}: header {_header(a)} -> {_header(b)}")
    if len(a) != len(b):
        shape.append(f"{rel}: rows {max(len(a) - 1, 0)} -> {max(len(b) - 1, 0)}")
    if shape:
        return shape
    counts, worst, worst_rel = [0] * len(a[0]), [0.0] * len(a[0]), [0.0] * len(a[0])
    for row_a, row_b in zip(a[1:], b[1:]):
        if len(row_a) != len(a[0]) or len(row_b) != len(a[0]):
            return None
        for k, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            fx, fy = _float(x), _float(y)
            if fx is None or fy is None:
                return None
            if fx == fy or math.isnan(fx) and math.isnan(fy):
                continue
            delta = abs(fy - fx)
            counts[k] += 1
            # a NaN on one side is as far off as a difference gets
            if math.isnan(delta):
                worst[k] = worst_rel[k] = math.inf
            else:
                worst[k] = max(worst[k], delta)
                worst_rel[k] = max(worst_rel[k], _relative(fx, fy))
    return [
        f"{rel}:{name} {n} {d:.3g} {r:.3g}"
        for name, n, d, r in zip(a[0], counts, worst, worst_rel)
        if n
    ]


def diff_trees(old: Path, new: Path):
    """Lines for each file of the two trees that differs."""
    lines = []
    files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    files |= {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    for rel in sorted(files):
        a, b = old / rel, new / rel
        if not a.is_file() or not b.is_file():
            lines.append(f"{rel} only in {'NEW' if b.is_file() else 'OLD'}")
        elif a.read_bytes() == b.read_bytes():
            continue
        elif rel.suffix == ".json":
            values = diff_values(json.loads(a.read_text()), json.loads(b.read_text()), str(rel))
            # equal values in other formatting still differ
            lines += values or [f"{rel} differs"]
        elif rel.suffix == ".csv":
            values = diff_csv(a.read_text(), b.read_text(), str(rel))
            lines += values or [f"{rel} differs"]
        else:
            lines.append(f"{rel} differs")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = Path(args[0]), Path(args[1])
    for root in (old, new):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    lines = diff_trees(old, new)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
