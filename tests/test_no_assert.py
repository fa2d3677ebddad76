"""Internal invariants under raagdyn raise AssertionError explicitly.

`python -O` strips `assert` statements, so a broken invariant behind one
would pass silently there.  This parses each module with ast and fails on
any `assert` statement; it imports nothing of the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "raagdyn"
MODULES = sorted(SRC.glob("*.py"))


def test_modules_are_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}; raise AssertionError instead"
