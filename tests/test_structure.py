"""Import layout of the package: every module's imports sit at its top, and
the realization of m alpha in lattice depends on nothing above it."""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "latdisc"


def relative_imports(tree, in_function=False):
    """(line, module, in_function) of every relative import in a tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node.lineno, node.module, in_function
        yield from relative_imports(node, in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_no_relative_import_inside_a_function():
    found = [f"{path.name}:{line} .{module}"
             for path in sorted(SRC.glob("*.py"))
             for line, module, inside in relative_imports(
                 ast.parse(path.read_text()))
             if inside]
    assert found == []


def test_lattice_imports_only_cf():
    tree = ast.parse((SRC / "lattice.py").read_text())
    assert {(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names} == {("cf", "PrecisionExhausted")}
