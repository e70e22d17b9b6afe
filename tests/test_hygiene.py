"""Static hygiene of the package, read with the standard ``ast`` module.

Every module of ``src/ordertopo`` uses each name it imports, and every
module-level private function or class is referenced somewhere in the
package.  ``__init__`` is exempt from the import rule: its imports are the
public interface.  Every cache is bounded: each ``functools.lru_cache`` is
called with an integer ``maxsize``, and ``functools.cache`` is not used.
No module imports ``dataclasses``: the value types are ``records.record``
classes, and importing the CLI loads neither ``dataclasses`` nor
``inspect``, since every CLI verdict runs in a fresh process.  No class
writes its own equality, hash, frozen setters or slots: ``records.record``
is the one implementation of a frozen value.
"""

import ast
import os
import subprocess
import sys
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


def _maxsize(call: ast.Call):
    args = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return args[0].value if args and isinstance(args[0], ast.Constant) else None


def test_caches_are_bounded():
    unbounded = []
    for name, tree in _modules().items():
        calls = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                # spelled functools.lru_cache so that this check sees each use
                unbounded += [f"{name}: from functools import {a.name}" for a in node.names
                              if a.name in ("cache", "lru_cache")]
            if isinstance(node, ast.Attribute) and node.attr == "cache" and (
                    isinstance(node.value, ast.Name) and node.value.id == "functools"):
                unbounded.append(f"{name}:{node.lineno}: functools.cache")
            if isinstance(node, ast.Call) and _is_lru_cache(node.func):
                size = _maxsize(node)
                if type(size) is not int:
                    unbounded.append(f"{name}:{node.lineno}: lru_cache maxsize {size!r}")
            elif _is_lru_cache(node) and id(node) not in calls:
                unbounded.append(f"{name}:{node.lineno}: lru_cache without maxsize")
    assert unbounded == []


def _is_lru_cache(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "lru_cache"
            and isinstance(node.value, ast.Name) and node.value.id == "functools")


def test_no_module_imports_dataclasses():
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{name}: import {a.name}" for a in node.names
                          if a.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.append(f"{name}: from dataclasses import ...")
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys, ordertopo.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


RECORD_MACHINERY = {"__eq__", "__hash__", "__setattr__", "__delattr__"}


def _class_body_names(node: ast.ClassDef):
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, None
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    yield target.id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id, stmt.value


def test_no_class_writes_record_machinery_by_hand():
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for attr, value in _class_body_names(node):
                empty_slots = (isinstance(value, (ast.Tuple, ast.List)) and not value.elts
                               or isinstance(value, ast.Constant) and not value.value)
                if attr in RECORD_MACHINERY or (attr == "__slots__" and not empty_slots):
                    found.append(f"{name}:{node.lineno}: {node.name}.{attr}")
    assert found == []
