"""Verification in the package never uses `assert`: `python -O` strips
assert statements, so a check written that way would stop checking."""

import ast
from pathlib import Path

import wiretapnc


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(wiretapnc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
