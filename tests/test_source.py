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
