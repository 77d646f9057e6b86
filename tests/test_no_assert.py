"""Static checks over the package source.

Verification in the package never uses `assert`: `python -O` strips
assert statements, so a check written that way would stop checking.  And
no module imports a name it never uses: a dead import is code that nothing
calls, left behind when its last caller went; likewise every function,
method and class is referenced by name in the package or exported, but
for a pinned few with their reasons.  No module reads the
environment: every cap is a module constant, so a result depends only on
the inputs and the seed.  And every library error is raised somewhere: an
exception class nothing raises is a refusal that no longer exists.
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


def test_package_modules_read_no_environment_variables():
    found = []
    for path, tree in package_trees():
        for node in ast.walk(tree):
            reads = (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id == "os" and node.attr in ("environ", "getenv"))
            imports = (isinstance(node, ast.ImportFrom) and node.module == "os"
                       and {a.name for a in node.names} & {"environ", "getenv"})
            if reads or imports:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"environment reads in the package: {found}"


def test_every_library_error_is_raised_somewhere():
    raised, classes = set(), set()
    for path, tree in package_trees():
        if path.name == "exceptions.py":
            classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    unraised = sorted(classes - raised - {"WiretapNCError"})
    assert not unraised, f"exception classes nothing raises: {unraised}"


# definitions that nothing in the package names, each kept for its reason
UNREFERENCED = {
    "Network.min_cut": "the one public reading of a receiver's max-flow value",
    "CosetChannelOracle.entropy_terms": "checked against conftest.reference_entropy_terms",
    "_Parser.error": "argparse calls it",
}


def test_every_definition_is_referenced_or_exported():
    defined, referenced = {}, set()

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                defined[name] = f"{path.name}:{child.lineno}"
                visit(child, name + ".", path)
            else:
                visit(child, prefix, path)

    for path, tree in package_trees():
        visit(tree, "", path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    referenced |= {name for names in wiretapnc._EXPORTS.values() for name in names}
    unused = {}
    for name, where in defined.items():
        short = name.rsplit(".", 1)[-1]
        if short not in referenced and not (short.startswith("__") and short.endswith("__")):
            unused[name] = where  # dunders are called by Python itself
    found = sorted(f"{where} {name}" for name, where in unused.items() if name not in UNREFERENCED)
    assert not found, f"definitions nothing references: {found}"
    stale = sorted(set(UNREFERENCED) - set(unused))
    assert not stale, f"pinned as unreferenced, but referenced or gone: {stale}"
