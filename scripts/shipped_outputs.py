"""Record what ``wulffkit all`` writes on every shipped scene, as a test oracle.

    python3 scripts/shipped_outputs.py

Runs ``all`` on each scene under ``scenes/`` at the scene's own seed, in a
temporary directory, and writes ``tests/shipped/manifest.json``: per scene,
the sha256 of every output file by its path relative to the scene's output
directory.  A copy of each scene's ``report.json`` goes to
``tests/shipped/<scene>/report.json``.  ``tests/test_acceptance.py`` runs
the same scenes and compares their outputs against both.  Rerun this when a
change moves an output on purpose, and explain the move with
``scripts/diff_reports.py``.  Needs numpy; imports wulffkit from ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ROOT / "tests" / "shipped"


def digests(out: Path) -> dict:
    """The sha256 of every file under ``out``, by its relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from wulffkit.cli import run

    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scene in sorted((ROOT / "scenes").glob("*.json")):
            out = Path(tmp) / scene.stem
            run("all", scene, out)
            manifest[scene.stem] = digests(out)
            (SHIPPED / scene.stem).mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out / "report.json", SHIPPED / scene.stem / "report.json")
    text = json.dumps(manifest, indent=1, sort_keys=True)
    (SHIPPED / "manifest.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
