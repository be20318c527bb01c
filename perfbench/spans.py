"""Spans around the public functions of each wulffkit layer, installed at run time.

``install()`` wraps every traced function and rebinds it in each loaded
``wulffkit.*`` namespace that holds it (including the suite table and the
methods of ``DualNorm`` and the ``Integrand`` classes), so calls made from
inside the library are seen without touching its source.  A span records its
name, start, end and the index of the span it was called from; spans stay in
memory until ``write`` dumps them.  A layer's self time is its span time minus
the time covered by its child spans.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import json
import sys
import time

import numpy as np

# (module, function) -> layer name of the span
FUNCTIONS = {
    ("wulffkit.scene", "load_scene"): "scene.load_scene",
    ("wulffkit.hypersurface", "sample_surface"): "hypersurface.sample_surface",
    ("wulffkit.hypersurface", "volume"): "hypersurface.volume",
    ("wulffkit.curvature", "curvature_table"): "curvature.curvature_table",
    ("wulffkit.curvature", "umbilicity_classify"): "curvature.umbilicity_classify",
    ("wulffkit.distance", "build_field"): "distance.build_field",
    ("wulffkit.distance", "boundary_source"): "distance.boundary_source",
    ("wulffkit.distance", "reach_comparison"): "distance.reach_comparison",
    ("wulffkit.distance", "project"): "distance.project",
    ("wulffkit.steiner", "tube_volumes"): "steiner.tube_volumes",
    ("wulffkit.steiner", "claim5_coefficients"): "steiner.claim5_coefficients",
    ("wulffkit.steiner", "fit_polynomial"): "steiner.fit_polynomial",
    ("wulffkit.hk", "hk_evaluate"): "hk.hk_evaluate",
    ("wulffkit.hk", "montiel_ros_integral"): "hk.montiel_ros_integral",
    ("wulffkit.variation", "first_variation"): "variation.first_variation",
    ("wulffkit.variation", "flow_energy_derivative"): "variation.flow_energy_derivative",
    ("wulffkit.variation", "criticality_residual"): "variation.criticality_residual",
}
# (module, class) -> methods traced as "<layer>.<method>"
METHODS = {
    ("wulffkit.integrand", "EuclideanNorm"): ("integrand", ("value", "grad", "hess")),
    ("wulffkit.integrand", "QuadraticNorm"): ("integrand", ("value", "grad", "hess")),
    ("wulffkit.integrand", "WeightedSum"): ("integrand", ("value", "grad", "hess")),
    ("wulffkit.duality", "DualNorm"): (
        "duality", ("batch_value", "batch_grad", "batch_value_fast")
    ),
}


def fingerprint(*objs) -> str:
    """Digest of argument content: arrays by bytes, dataclasses by public fields."""
    h = hashlib.blake2b(digest_size=16)
    for obj in objs:
        _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if not f.name.startswith("_"):
                _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    else:
        h.update(repr(obj).encode())


def _rows(tracer, name, args, kwargs, result):
    tracer.counts[name + ".rows"] += int(np.shape(args[1])[0]) if np.ndim(args[1]) == 2 else 1


def _sample_surface(tracer, name, args, kwargs, result):
    tracer.counts[name + ".nodes"] += len(result)
    tracer.distinct[name].add(fingerprint(*args, *kwargs.values()))


def _build_field(tracer, name, args, kwargs, result):
    source, f, grid = args[:3]
    tracer.counts[name + ".cells"] += int(result.delta.size)
    tracer.counts[name + ".gap_cells"] += int(np.count_nonzero(result.gap))
    tracer.distinct[name].add(fingerprint(source.points, f, grid))


def _project(tracer, name, args, kwargs, result):
    tracer.counts[name + ".ambiguous"] += int(result.ambiguous)


COUNTERS = {
    "duality.batch_value": _rows,
    "duality.batch_grad": _rows,
    "duality.batch_value_fast": _rows,
    "hypersurface.sample_surface": _sample_surface,
    "distance.build_field": _build_field,
    "distance.project": _project,
}
SPAN_NAMES = list(FUNCTIONS.values()) + [
    f"{layer}.{m}" for layer, methods in METHODS.values() for m in methods
]
COUNTS = (
    "duality.batch_value.rows",
    "duality.batch_grad.rows",
    "duality.batch_value_fast.rows",
    "hypersurface.sample_surface.nodes",
    "distance.build_field.cells",
    "distance.build_field.gap_cells",
    "distance.project.ambiguous",
)
DISTINCT = ("hypersurface.sample_surface", "distance.build_field")


class Tracer:
    """In-memory span list: [name, start_ns, end_ns, parent index or -1]."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.distinct = collections.defaultdict(set)
        self._stack = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self, name, args, kwargs, result)
            return result

        return traced

    def metrics(self) -> dict:
        """.s (span time), .self_s and .calls per span name, plus the counts."""
        from wulffkit.suites import SUITE_ORDER

        total = collections.Counter()
        child = collections.Counter()
        calls = collections.Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_ns = collections.Counter()
        for i, (name, start, end, _parent) in enumerate(self.spans):
            self_ns[name] += end - start - child[i]
        out = {}
        for name in SPAN_NAMES + [f"suites.{s}" for s in SUITE_ORDER]:
            out[name + ".s"] = total[name] / 1e9
            out[name + ".self_s"] = self_ns[name] / 1e9
            out[name + ".calls"] = calls[name]
        out.update({key: self.counts[key] for key in COUNTS})
        out.update({f"{name}.distinct": len(self.distinct[name]) for name in DISTINCT})
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)


def install() -> Tracer:
    """Wrap the traced functions and methods in every loaded wulffkit namespace."""
    import wulffkit  # noqa: F401  (loads every submodule)
    import wulffkit.cli
    import wulffkit.suites

    tracer = Tracer()
    modules = [m for n, m in sys.modules.items() if n == "wulffkit" or n.startswith("wulffkit.")]
    for (mod_name, attr), layer in FUNCTIONS.items():
        original = getattr(sys.modules[mod_name], attr)
        wrapped = tracer.wrap(layer, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for (mod_name, cls_name), (layer, methods) in METHODS.items():
        cls = getattr(sys.modules[mod_name], cls_name)
        for m in methods:
            setattr(cls, m, tracer.wrap(f"{layer}.{m}", cls.__dict__[m]))
    table = wulffkit.suites._SUITES
    for key in list(table):
        table[key] = tracer.wrap(f"suites.{key}", table[key])
    return tracer
