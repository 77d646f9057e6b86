"""Static checks over the package source.

Verification in the package never uses `assert`: `python -O` strips
assert statements, so a check written that way would stop checking.  And
no module imports a name it never uses: a dead import is code that nothing
calls, left behind when its last caller went.
"""

import ast
from pathlib import Path

import wiretapnc


def package_trees():
    for path in sorted(Path(wiretapnc.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_package_has_no_assert_statements():
    found = []
    for path, tree in package_trees():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_package_modules_use_every_name_they_import():
    # __init__.py imports names to re-export them
    found = []
    for path, tree in package_trees():
        if path.name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert not found, f"imported names never used: {found}"
