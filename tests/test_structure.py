"""Import layout of the package: every module's imports sit at its top, and
the realization of m alpha in lattice depends on nothing above it."""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "latdisc"


# the one import inside a function: mpmath stays out of `import latdisc`
# and loads only when the integer Gauss mantissa cannot decide its floor
DEFERRED = ["metric.py:_gauss_mantissa import mpmath"]


def imports_in_functions(tree, function=None):
    """(function, import statement) of every import inside a function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and function:
            yield function, ast.unparse(node)
        yield from imports_in_functions(node, node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)


def test_no_import_inside_a_function():
    found = [f"{path.name}:{function} {statement}"
             for path in sorted(SRC.glob("*.py"))
             for function, statement in imports_in_functions(
                 ast.parse(path.read_text()))]
    assert found == DEFERRED


def test_lattice_imports_only_cf():
    tree = ast.parse((SRC / "lattice.py").read_text())
    assert {(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names} == {("cf", "PrecisionExhausted")}
