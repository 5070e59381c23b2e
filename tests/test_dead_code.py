"""Every module-level name in the package, private or public, is used
somewhere in it, and every name a module imports is used in that module.
A name that ``__init__`` re-exports counts as used."""

import ast
from pathlib import Path

import fastlight

SOURCES = sorted(Path(fastlight.__file__).parent.glob("*.py"))


def _defined(tree: ast.Module) -> list:
    """Names bound at module level: functions, classes and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _used(tree: ast.Module) -> set:
    """Each name read, as a bare name, an attribute or an imported name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = set().union(*map(_used, trees.values()))
    unused = [
        f"{module}:{name}" for module, tree in trees.items() for name in _defined(tree)
        if name not in used
    ]
    assert not unused


def _imported(tree: ast.Module) -> list:
    """Names a module binds by import; ``from __future__`` binds none."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_every_import_is_used_in_its_module():
    # __init__ imports to re-export
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{name}" for name in _imported(tree) if name not in read]
    assert not unused
