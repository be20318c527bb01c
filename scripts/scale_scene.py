"""Write a scene scaled exactly by a power of two.

    python3 scripts/scale_scene.py SCENE K [OUT]

Reads the scene file SCENE and writes the same scene dilated by 2^K about
the origin to OUT (default: standard output).  Lengths are multiplied by
2^K: each body's centre, a Wulff body's radius, a superellipse's semi-axes,
the grid bounds and ``steiner.reference_radius``.  An ellipsoid's matrix M
of x^T M x <= 1 is multiplied by 4^-K.  The integrand, a norm, and every
count (resolution, cells, seed) stay as they are.  Each product is
``math.ldexp``, so a value that stays a normal double is scaled without
rounding and K = 0 writes the scene's own values.
Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

# per body kind, the keys that hold lengths
_BODY_LENGTHS = {"wulff": ("center", "radius"), "ellipsoid": ("center",),
                 "superellipse": ("center", "semi_axes")}


def _times(value, k: int):
    """value, a number or nested lists of them, times 2^k."""
    if isinstance(value, list):
        return [_times(v, k) for v in value]
    return math.ldexp(value, k)


def scaled(raw: dict, k: int) -> dict:
    """The scene object ``raw``, as ``json.load`` reads it, dilated by 2^k."""
    out = json.loads(json.dumps(raw))
    for body in out.get("bodies", []):
        for key in _BODY_LENGTHS.get(body.get("kind"), ()):
            if key in body:
                body[key] = _times(body[key], k)
        if body.get("kind") == "ellipsoid" and "matrix" in body:
            body["matrix"] = _times(body["matrix"], -2 * k)
    if "bounds" in out.get("grid", {}):
        out["grid"]["bounds"] = _times(out["grid"]["bounds"], k)
    if out.get("steiner", {}).get("reference_radius") is not None:
        out["steiner"]["reference_radius"] = _times(out["steiner"]["reference_radius"], k)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scene", type=Path, help="scene file")
    parser.add_argument("k", type=int, help="scale by 2^k")
    parser.add_argument("out", type=Path, nargs="?", help="output file (default: stdout)")
    args = parser.parse_args(argv)
    text = json.dumps(scaled(json.loads(args.scene.read_text()), args.k), indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
