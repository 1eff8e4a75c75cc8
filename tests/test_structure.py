"""Layout of the package: every module's imports sit at its top, the
realization of m alpha in lattice depends on nothing above it, every
top-level definition and every method has a reader in the package itself,
Euclid's algorithm and the convergent recurrence are each written once,
and the test oracles read no private name of it."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "latdisc"

# the top-level definitions that nothing under src/ reads, each with the
# file outside src/ that does
OUTSIDE_READERS = {
    "metric.farey_count": "perfbench/workloads.py",
    "metric.farey_sample": "tests/test_metric.py",
}

# the same for the methods and properties of classes under src/
OUTSIDE_METHOD_READERS = {
    "intervals.Interval.contains": "perfbench/workloads.py",
}


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
            for alias in node.names} == {("cf", "PrecisionExhausted"),
                                          ("cf", "Truncated")}


def loops_calling(kind, call):
    """'module.Class.function' of each function under src/ with a loop of
    the given kind (For, While) whose body or test calls call(node)."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for loop in ast.walk(tree):
            if not (isinstance(loop, kind) and any(
                    isinstance(n, ast.Call) and call(n.func)
                    for part in loop.body + [getattr(loop, "test", None)]
                    if part
                    for n in ast.walk(part))):
                continue
            names, node = [], loop
            while node in parent:
                node = parent[node]
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.append(node.name)
            found.add(".".join([path.stem, *reversed(names)]))
    return sorted(found)


def test_one_euclid_loop():
    # Euclid's algorithm is written once: the other readers of partial
    # quotients and remainders, rational or fixed point, run cf.Truncated
    assert loops_calling((ast.For, ast.While), lambda f: isinstance(
        f, ast.Name) and f.id == "divmod") == ["cf.Truncated.grow"]


def test_one_convergent_recurrence():
    # q_(k+1) = a_(k+1) q_k + q_(k-1) is written once, and no numerator
    # recurrence is kept beside it
    assert loops_calling(ast.While, lambda f: isinstance(
        f, ast.Attribute) and f.attr == "quotient") == ["cf.denominators"]


def defined(node):
    """The names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign) else
               [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def read(node):
    """The names a statement reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_import_names_its_home():
    # `from .m import name` takes name from the module that defines it at
    # top level, never from one that only imports it
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    homes = {m: {name for node in tree.body for name in defined(node)}
             for m, tree in trees.items()}
    strays = [f"{m}: from .{node.module} import {alias.name}"
              for m, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level
              and node.module for alias in node.names
              if alias.name not in homes[node.module]]
    assert strays == []


def test_every_definition_is_read_in_src():
    # __init__ only re-exports, so an export alone is no reader
    nodes = [(path.stem, node) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"
             for node in ast.parse(path.read_text()).body]
    reads = [read(node) for _, node in nodes]
    unread = [f"{module}.{name}" for i, (module, node) in enumerate(nodes)
              for name in defined(node)
              if not any(name in r for j, r in enumerate(reads) if j != i)]
    assert sorted(unread) == sorted(OUTSIDE_READERS)
    for qualified, reader in OUTSIDE_READERS.items():
        assert qualified.split(".")[1] in (ROOT / reader).read_text()


def test_every_method_is_read_in_src():
    # a method read only by its own body, or only by tests, has no reader
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    names = [n for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))]
    methods = [(f"{module}.{cls.name}.{fn.name}", fn)
               for module, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (fn.name.startswith("__") and fn.name.endswith("__"))]
    unread = []
    for qualified, fn in methods:
        own = set(map(id, ast.walk(fn)))
        if not any(id(n) not in own and fn.name == (
                n.id if isinstance(n, ast.Name) else n.attr) for n in names):
            unread.append(qualified)
    assert sorted(unread) == sorted(OUTSIDE_METHOD_READERS)
    for qualified, reader in OUTSIDE_METHOD_READERS.items():
        assert qualified.split(".")[2] in (ROOT / reader).read_text()


def test_parseval_imports_nothing_from_discrepancy():
    tree = ast.parse((SRC / "parseval.py").read_text())
    assert "discrepancy" not in {node.module for node in ast.walk(tree)
                                 if isinstance(node, ast.ImportFrom)}


def test_oracles_import_no_private_name():
    # a reference that imports the library's private helpers shares the code
    # it is meant to check
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("latdisc")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
