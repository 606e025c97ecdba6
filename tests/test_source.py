"""Checks on the package source itself."""

import ast
from pathlib import Path

import foon

PACKAGE = Path(foon.__file__).parent


def self_calls(source: str) -> list[str]:
    """Names of the functions in ``source`` whose body calls the function
    itself, by its bare name or as ``self.name``/``cls.name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if (isinstance(func, ast.Name) and func.id == node.name) or (
                isinstance(func, ast.Attribute)
                and func.attr == node.name
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
            ):
                found.append(f"{node.name} (line {call.lineno})")
    return found


def test_scan_finds_direct_recursion():
    source = (
        "def walk(n):\n    return walk(n - 1)\n"
        "class Tree:\n    def depth(self):\n        return self.depth()\n"
        "    @classmethod\n    def build(cls):\n        return cls.build()\n"
        "def fine(n):\n    return other.fine(n)\n"
    )
    assert self_calls(source) == ["walk (line 2)", "depth (line 5)", "build (line 8)"]


def test_no_function_in_the_package_calls_itself():
    # deep graphs must never meet Python's recursion limit
    offenders = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if (calls := self_calls(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def package_imports(source: str) -> set[str]:
    """Modules of the package that ``source`` imports by relative import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_scan_finds_relative_imports():
    source = (
        "import json\nfrom typing import Mapping\n"
        "from .core import ObjectKey\nfrom . import oracle as oracle_mod\nfrom .parser.sub import x\n"
    )
    assert package_imports(source) == {"core", "oracle", "parser"}


def module_level_imports(source: str) -> set[str]:
    """Top-level names of the modules that ``source`` imports at module
    level, absolute imports only; an import inside a function is skipped."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_scan_finds_module_level_imports():
    source = (
        "import json, os.path\nfrom dataclasses import dataclass\nfrom .core import ObjectKey\n"
        "def draw():\n    import hashlib\n"
    )
    assert module_level_imports(source) == {"json", "os", "dataclasses"}


def test_layers_import_only_the_layers_below():
    # the domain types stand alone, and the searches need nothing but them
    layers = {"core": set(), "retrieval": {"core"}}
    assert {
        name: package_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8")) for name in layers
    } == layers
    # and no module makes every process load what only some commands need:
    # creating dataclasses costs milliseconds, and hashlib loads OpenSSL
    assert {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := module_level_imports(path.read_text(encoding="utf-8")) & {"dataclasses", "hashlib"})
    } == {}


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports at module level and never reads, with
    annotations, quoted ones too, counting as reads; a ``__future__``
    import binds no name."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.AnnAssign, ast.arg)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    quoted = [
        ast.parse(part.value, mode="eval")
        for annotation in annotations
        if annotation is not None
        for part in ast.walk(annotation)
        if isinstance(part, ast.Constant) and isinstance(part.value, str)
    ]
    read = {
        node.id
        for root in (tree, *quoted)
        for node in ast.walk(root)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\nimport json, os.path\nimport re as regex\n"
        "from typing import Mapping, Optional\nfrom .core import FoonGraph, ObjectKey, TaskTree\n"
        "def tree(graph: Mapping[str, 'FoonGraph']) -> list['ObjectKey']:\n"
        "    import hashlib\n    TaskTree = None\n    return os.sep\n"
    )
    assert unused_imports(source) == ["json (line 2)", "regex (line 3)", "Optional (line 4)", "TaskTree (line 5)"]


def test_no_module_keeps_an_unused_import():
    assert {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    } == {}
