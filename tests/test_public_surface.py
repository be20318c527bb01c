"""Every public name of ``src/wulffkit`` is one the program runs or documents,
and every value the library stores has a reader.

A name in a module's ``__all__``, or a public method of a class listed
there, needs one of: a reference in ``src/`` outside its own ``def``, a
reference in ``perfbench/`` or ``scripts/``, or a mention in the README's
"Library example" section.  A name that only tests call belongs in the tests.
A field of a dataclass in ``src/wulffkit`` needs an attribute read of its
name in ``src/``, ``tests/``, ``scripts/`` or ``perfbench/``.
Needs only ``ast`` and the standard library.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "wulffkit").glob("*.py"))}


def _names(tree, skip=None, strings=False):
    """Identifiers that ``tree`` reads as names or attributes, outside the node
    ``skip``; with ``strings``, also imported names and the identifiers inside
    string constants (the span tables name functions by string)."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"\w+", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _surface():
    """(label, name, module path, defining node) of every name in an
    ``__all__`` and every public method of a class listed there."""
    for path, tree in SRC.items():
        defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        for node in tree.body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__":
                for name in (e.value for e in node.value.elts):
                    yield f"{path.stem}.{name}", name, path, defs.get(name)
                    for item in getattr(defs.get(name), "body", []):
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            yield f"{path.stem}.{name}.{item.name}", item.name, path, item


SURFACE = list(_surface())
# the names on scripts/traffic.py's allowlist are no callers
OUTSIDE = set().union(
    *(_names(ast.parse(p.read_text()), strings=True) for d in ("perfbench", "scripts")
      for p in sorted((ROOT / d).rglob("*.py")) if p.name != "traffic.py")
)
README = (ROOT / "README.md").read_text()
EXAMPLE = set(re.findall(r"\w+", re.search(r"## Library example\n(.*?)\n## ", README, re.S)[1]))


@pytest.mark.parametrize("name, path, node", [s[1:] for s in SURFACE], ids=[s[0] for s in SURFACE])
def test_public_name_has_a_caller(name, path, node):
    in_src = any(name in _names(tree, node if p == path else None) for p, tree in SRC.items())
    assert in_src or name in OUTSIDE or name in EXAMPLE, (
        f"{name} is public in {path.name}, but nothing in src/, perfbench/, scripts/ "
        f"or the README's library example uses it"
    )


def test_surface_is_scanned():
    # a moved folder or renamed README section must not leave nothing to check
    labels = {s[0] for s in SURFACE}
    assert {"distance.project", "duality.DualNorm.batch_value"} <= labels
    assert "project" in OUTSIDE and "hk_row" in EXAMPLE


# cli.run writes every field of a SuiteResult, with dataclasses.asdict
WRITTEN_WHOLE = {"SuiteResult"}


def _is_dataclass(decorator):
    return getattr(getattr(decorator, "func", decorator), "id", "") == "dataclass"


def _fields():
    """(Class.field, field) of every field of every dataclass in src/wulffkit,
    but the ones written whole."""
    for tree in SRC.values():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name not in WRITTEN_WHOLE
                and any(_is_dataclass(d) for d in node.decorator_list)
            ):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{node.name}.{item.target.id}", item.target.id


def test_every_dataclass_field_has_a_reader():
    # lenient: a field passes when its name is read on any object, so a
    # name that another type also has (such as center) always passes
    read = {
        node.attr
        for folder in ("src", "tests", "scripts", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = list(_fields())
    assert {"SurfaceQuadrature.rho", "CriticalityResult.flux"} <= {label for label, _ in fields}
    assert [label for label, name in fields if name not in read] == []
