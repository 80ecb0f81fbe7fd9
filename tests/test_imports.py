"""Import rules of the `kmh` package: every import sits at module level, and
no module imports another module's `_private` names."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kmh"


def function_imports(tree: ast.Module) -> list:
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return [
        inner.lineno
        for outer in ast.walk(tree)
        if isinstance(outer, functions)
        for inner in ast.walk(outer)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]


def private_imports(tree: ast.Module) -> list:
    return [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "kmh")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def test_import_rules():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        tree = ast.parse(path.read_text())
        assert function_imports(tree) == [], path.name
        assert private_imports(tree) == [], path.name
