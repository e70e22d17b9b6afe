"""Static hygiene of the package, read with the standard ``ast`` module.

Every module of ``src/ordertopo`` uses each name it imports, and every
module-level private function or class is referenced somewhere in the
package.  ``__init__`` is exempt from the import rule: its imports are the
public interface.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ordertopo"


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _imported(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _referenced(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def test_modules_use_every_import():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{name}: {imp}" for imp in _imported(tree) if imp not in used]
    assert unused == []


def test_private_definitions_are_referenced():
    modules = _modules()
    refs = set().union(*(_referenced(tree) for tree in modules.values()))
    dead = [
        f"{name}: {node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in refs
    ]
    assert dead == []
