"""Invariants the package guarantees are checked with typed errors, never
with ``assert``: ``python -O`` strips asserts, and a check that can vanish
cannot decide a claim."""

import ast
from pathlib import Path

import pytest

import limprof
from limprof import engine
from limprof.errors import InternalError
from limprof.kernel import RatMatrix

PACKAGE = Path(limprof.__file__).parent


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
    monkeypatch.setattr(engine, "multiplicity", lambda mat, alpha: 2)
    with pytest.raises(InternalError):
        engine.refute_interval(m, 2, 0)
