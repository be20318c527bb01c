"""Batch runner: parse a scene, run verification suites, emit reports.

    wulffkit [COMMAND] --scene PATH --out DIR [--seed N]

COMMAND is one suite or ``all`` (the default), which runs the scene's
suites.  The scene runs as its file is written; ``--seed`` alone overrides
a field of it, under the scene file's own seed rule, and the report records
the seed it ran with.

Exit codes: 0 all executed suites passed; 1 input/scene error; 2-9 first
failing suite in the canonical order dual, wulff, curv, hk, mr, steiner,
reach, var.  Reports are deterministic: the same scene and seed produce
byte-identical report.json files (no timestamps, seeded generators only).

``suites.run_suites`` runs the suites body by body, as the ``suites``
module docstring sets out.  The items run in forked workers, one per
usable CPU, where ``fanout`` splits them, else in-process.  The exit code,
the messages and the bytes of report.json and the CSVs do not depend on
the split.  A refusal (exit 1) is the first in the canonical order, then
in body order; the suites and bodies after it still run, so their CSVs
may exist.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import InputError, SceneError, WulffkitError
from .scene import load_scene, reseed
from .suites import SUITE_ORDER, run_suites

__all__ = ["main", "run"]

SCHEMA_VERSION = "1.0"
COMMANDS = SUITE_ORDER + ("all",)


def run(command: str, scene_path, out_dir, seed=None) -> int:
    """Execute ``command`` on a scene file; write report.json and CSVs.

    The command and the scene are checked before ``out_dir`` is created.
    """
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}; expected one of {COMMANDS}")
    scene = load_scene(scene_path)
    if seed is not None:
        scene = reseed(scene, seed)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out}: {exc.strerror}") from None

    requested = [s for s in SUITE_ORDER if s in scene.suites] if command == "all" else [command]
    results = run_suites(requested, scene, out)
    failed = [SUITE_ORDER.index(r.name) for r in results if not r.passed]
    exit_code = 2 + failed[0] if failed else 0

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "scene": Path(scene_path).name,
        "seed": scene.seed,
        "rng": "numpy-default-pcg64",
        "resolution": scene.resolution,
        "suites": [{**asdict(r), "passed": r.passed} for r in results],
        "exit_code": exit_code,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    (out / "report.json").write_text(text + "\n")
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wulffkit",
        description="Run anisotropic-geometry verification suites on a scene file.",
    )
    parser.add_argument("command", nargs="?", default="all", choices=COMMANDS)
    parser.add_argument("--scene", required=True, help="scene JSON path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the scene seed")
    args = parser.parse_args(argv)

    try:
        return run(args.command, args.scene, args.out, seed=args.seed)
    except SceneError as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 1
    except WulffkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
