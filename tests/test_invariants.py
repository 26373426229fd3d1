"""Invariants the package guarantees are checked with typed errors, never
with ``assert``: ``python -O`` strips asserts, and a check that can vanish
cannot decide a claim. The public API is what something uses."""

import ast
from pathlib import Path

import pytest

import limprof
from limprof import engine
from limprof.errors import InternalError
from limprof.kernel import RatMatrix

PACKAGE = Path(limprof.__file__).parent
ROOT = PACKAGE.parent.parent


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from limprof import *", namespace)
    assert [name for name in limprof.__all__ if name not in namespace] == []


def test_refute_witness_that_does_not_escape_raises(monkeypatch):
    m = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert engine.refute_interval(m, 2, 0).escapes
    # a multiplicity inside [n, n+d] means the construction is broken
    monkeypatch.setattr(engine, "_multiplicity", lambda cols, alpha: 2)
    with pytest.raises(InternalError):
        engine.refute_interval(m, 2, 0)


def _referenced_names(path: Path) -> set[str]:
    """Names a module's code uses: loaded or stored names and attributes,
    not strings or docstrings."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_user():
    """Each name in ``__all__`` is used by the code of a package module
    other than __init__, which defines ``__all__`` and only re-exports, by
    the benchmark (perfbench/*.py, read only) or by the acceptance tests."""
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*map(_referenced_names, sources))
    assert [name for name in limprof.__all__ if name not in used] == []


def test_no_module_imports_a_private_name_of_another():
    """A name with a leading underscore is its module's own: another limprof
    module that needs it needs a public name instead (dunders such as
    ``__version__`` are public)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("limprof"):
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not found, found


def test_every_cap_constant_has_its_edge_in_the_cap_tests():
    """A module-level ``*_CAP`` constant is a resource contract, and
    ``tests/test_caps.py`` is where each one's edge is tested."""
    caps = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)]
            caps += [t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_CAP")]
    assert caps
    tested = _referenced_names(ROOT / "tests" / "test_caps.py")
    assert [name for name in caps if name not in tested] == []
