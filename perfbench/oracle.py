"""Independent checks on wulffkit outputs; nothing here calls into wulffkit.

The weighted-sum energy F(x) = a|x| + (1-a) sqrt(x'Mx) and its conjugate
F*(w) = max_u w.u / F(u) are evaluated from their definitions, so a query's
distance is checked against the Wulff-ball closed form r - F*(x - c) without
the library's Newton solver or direction table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

_DIRECTIONS = 8192  # angular error of the brute-force maximum is O((2 pi / 8192)^2)


def weighted_norm(x, a, m):
    """F(x) = a |x| + (1 - a) sqrt(x'Mx) along the last axis."""
    x = np.asarray(x, dtype=float)
    return a * np.linalg.norm(x, axis=-1) + (1.0 - a) * np.sqrt(
        np.einsum("...i,ij,...j->...", x, m, x)
    )


def conjugate_2d(w, a, m, chunk=128):
    """F*(w) = max over unit directions u of w.u / F(u), by dense sampling."""
    theta = np.arange(_DIRECTIONS) * (2 * np.pi / _DIRECTIONS)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    scaled = u / weighted_norm(u, a, m)[:, None]
    w = np.atleast_2d(np.asarray(w, dtype=float))
    return np.concatenate([(w[i : i + chunk] @ scaled.T).max(axis=1) for i in range(0, len(w), chunk)])


@dataclass
class Verdict:
    """One operation's outcome: failed covers refusals; wrong marks a bad value."""

    op: str
    failed: bool
    wrong: bool = False
    reason: str = ""


def check_scene(name, outcome, report_path, expected_class) -> Verdict:
    """Exit code 0, a report, every check passed, and the expected HK class.

    ``outcome`` is the exit code of the run, or the error it raised.
    """
    if isinstance(outcome, str):
        return Verdict(name, True, reason=outcome)
    if not report_path.exists():
        return Verdict(name, True, reason=f"exit {outcome}, no report.json")
    report = json.loads(report_path.read_text())
    verdicts = [s["metrics"].get("class_verdict") for s in report["suites"] if s["name"] == "hk"]
    if verdicts and verdicts[0] != expected_class:
        return Verdict(name, True, wrong=True, reason=f"class_verdict {verdicts[0]}")
    reasons = [f"exit {outcome}"] if outcome != 0 else []
    reasons += [
        f"{s['name']}:{c['name']} {c['value']:.4g} > {c['tol']:.4g}"
        for s in report["suites"]
        for c in s["checks"]
        if not c["passed"]
    ]
    if not verdicts:
        reasons.append("no hk class_verdict")
    return Verdict(name, bool(reasons), reason="; ".join(reasons))


def check_queries(points, results, a, m, center, radius, h):
    """Distance within 2h of r - F*(x - c) inside the ball; no ambiguity where 0 < delta <= 0.9 r.

    ``results`` holds (delta, ambiguous) per point, or an error string.
    """
    exact = conjugate_2d(np.asarray(points) - center, a, m) - radius
    verdicts = []
    for k, (res, signed) in enumerate(zip(results, exact)):
        op = f"query[{k}]"
        if isinstance(res, str):
            verdicts.append(Verdict(op, True, reason=res))
            continue
        delta, ambiguous = res
        depth = abs(signed)
        if signed < 0 and abs(delta - depth) > 2 * h:
            verdicts.append(
                Verdict(op, True, wrong=True, reason=f"delta {delta:.6g} vs {depth:.6g}")
            )
        elif ambiguous and 0 < depth <= 0.9 * radius:
            verdicts.append(Verdict(op, True, reason=f"ambiguous at depth {depth:.4g}"))
        else:
            verdicts.append(Verdict(op, False))
    return verdicts
