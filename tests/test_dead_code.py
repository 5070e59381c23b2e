"""Every module-level private name in the package is used somewhere in it."""

import ast
from pathlib import Path

import fastlight

SOURCES = sorted(Path(fastlight.__file__).parent.glob("*.py"))


def _defined(tree: ast.Module) -> list:
    """Private names bound at module level: functions, classes and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


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
