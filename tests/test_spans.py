"""The benchmark's span table names only functions and methods that exist."""

import importlib
import runpy
from pathlib import Path

SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))


def test_every_traced_function_exists():
    missing = [
        f"{module}.{name}"
        for module, name in SPANS["FUNCTIONS"]
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_every_traced_method_exists():
    missing = [
        f"{module}.{cls}.{method}"
        for (module, cls), (_, methods) in SPANS["METHODS"].items()
        for method in methods
        if method not in vars(getattr(importlib.import_module(module), cls, object))
    ]
    assert missing == []
