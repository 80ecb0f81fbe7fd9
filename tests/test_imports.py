"""Import rules of the `kmh` package: every import sits at module level, no
module imports another module's `_private` names, `kmh.__all__` names exactly
what the package imports, and importing the CLI loads nothing beyond numpy,
scipy and the standard library."""

import ast
import os
import pathlib
import subprocess
import sys

import kmh

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


def test_all_names_exactly_the_package_imports():
    # a stale entry would make `from kmh import *` raise
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert len(set(kmh.__all__)) == len(kmh.__all__)
    assert [name for name in kmh.__all__ if not hasattr(kmh, name)] == []
    assert sorted(kmh.__all__) == sorted(imported)


def numpy_scipy_imports() -> list:
    """The numpy and scipy modules named by import statements in src/kmh."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return sorted(name for name in names if name.split(".")[0] in ("numpy", "scipy"))


def top_level_modules_loaded_by(statement: str) -> set:
    code = (
        f"import sys; before = set(sys.modules); {statement}; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return {name.split(".")[0] for name in run.stdout.split()}


def test_cli_import_loads_only_numpy_scipy_and_stdlib():
    loaded = top_level_modules_loaded_by("import kmh.cli")
    assert {"kmh", "numpy", "scipy"} <= loaded
    foreign = loaded - {"kmh", "numpy", "scipy"} - set(sys.stdlib_module_names)
    # helpers numpy and scipy load themselves (Cython runtime, optional
    # codecs) come with them whoever imports them
    foreign -= top_level_modules_loaded_by("import " + ", ".join(numpy_scipy_imports()))
    assert sorted(foreign) == []
