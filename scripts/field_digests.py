"""Print a digest of every distance field ``wulffkit all`` reads, for a bit-identity check.

    python3 scripts/field_digests.py [SCENE ...] [--seed N] [--queries Q] > digests.txt

For each scene (default: every scene under ``scenes/``), at its own seed or
at ``--seed N``, plans the fields that ``all`` reads through the run's
``RunCache`` (``RunCache.fields``), scans them, and prints one line per
field: the scene, the body id, the norm, the cell count, and the blake2b
digests of delta and of the gap.  With ``--queries Q`` each line ends in a
third digest, of the ``distance.project`` results at Q points drawn
uniformly in the grid box from the scene's seed: per point its foot,
delta, gap, ambiguity, foot index and cross-check deviation (NaN for
none), as doubles.  A scene without fields prints nothing.  Two
checkouts' outputs are then one ``diff`` apart: a change to the scan, or
with ``--queries`` to ``project``, that keeps every bit prints the same
lines.  Needs numpy; imports wulffkit from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digest(values) -> str:
    """The blake2b digest of an array's bytes, 16 bytes as hex."""
    return hashlib.blake2b(values.tobytes(), digest_size=16).hexdigest()


def query_digest(field, count: int, seed: int) -> str:
    """The digest of the ``project`` results of ``field`` at ``count`` points
    drawn uniformly in its grid box from ``seed``, one row of doubles per
    result."""
    import numpy as np

    from wulffkit import distance

    grid = field.grid
    points = grid.lo + np.random.default_rng(seed).uniform(size=(count, grid.dim)) * (
        grid.hi - grid.lo
    )
    rows = []
    for x in points:
        res = distance.project(field, x)
        dev = np.nan if res.grad_check_dev is None else res.grad_check_dev
        rows.append([*res.point, res.delta, res.gap, res.ambiguous, res.foot_index, dev])
    return digest(np.array(rows, dtype=float))


def field_lines(scene_path: Path, seed=None, queries=0) -> list:
    """One line per field that ``all`` reads on the scene, in plan order,
    with the digest of ``queries`` projections when there are any."""
    from wulffkit.scene import SUITE_ORDER, load_scene, reseed
    from wulffkit.suites import RunCache

    scene = load_scene(scene_path)
    if seed is not None:
        scene = reseed(scene, seed)
    cache = RunCache(scene)
    cache.fields([s for s in SUITE_ORDER if s in scene.suites])
    lines = []
    for plan in cache.plans:
        field = plan.scan()
        body = next(
            name
            for name, b in scene.bodies
            if cache.complement_source(b) is field.source
        )
        line = (
            f"{Path(scene_path).stem} {body} {type(field.f).__name__} {field.delta.size} "
            f"{digest(field.delta)} {digest(field.gap)}"
        )
        lines.append(f"{line} {query_digest(field, queries, scene.seed)}" if queries else line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenes", nargs="*", type=Path, help="scene files (default: scenes/*.json)")
    parser.add_argument("--seed", type=int, default=None, help="override each scene's seed")
    parser.add_argument(
        "--queries", type=int, default=0, help="digest this many projections per field"
    )
    args = parser.parse_args(argv)
    if args.queries < 0:
        parser.error("--queries must be at least 0")
    sys.path.insert(0, str(ROOT / "src"))
    for scene in args.scenes or sorted((ROOT / "scenes").glob("*.json")):
        for line in field_lines(scene, args.seed, args.queries):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
