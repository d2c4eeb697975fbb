"""The package's relative imports: acyclic, all at module top, and used."""

import ast
from pathlib import Path

import c2quadrics

PACKAGE = Path(c2quadrics.__file__).resolve().parent


def _relative_imports():
    """{module: (top-level imported modules, function-level import lines)}."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level}
        nested = [
            "%s: from .%s import %s" % (path.stem, node.module, ", ".join(a.name for a in node.names))
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, ast.ImportFrom) and node.level
        ]
        out[path.stem] = (top, nested)
    return out


def test_top_level_relative_imports_form_a_dag():
    graph = {mod: top for mod, (top, _) in _relative_imports().items()}
    done, path = set(), []

    def visit(mod):
        assert mod not in path, "import cycle: %s" % " -> ".join(path + [mod])
        if mod in done:
            return
        path.append(mod)
        for dep in sorted(graph[mod]):
            visit(dep)
        path.pop()
        done.add(mod)

    for mod in sorted(graph):
        visit(mod)


def test_no_function_level_relative_import():
    # every relative import sits at module top, where the DAG test sees it
    nested = [line for _, lines in _relative_imports().values() for line in lines]
    assert nested == []


# names a module imports for another one to read there
READ_ELSEWHERE = {
    # perfbench/tracer.py wraps catalog.eta_of_element to count its calls
    ("catalog", "eta_of_element"),
}


def test_every_imported_name_is_used():
    # __init__ imports its names to export them
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            (path.stem, alias.asname or alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if (alias.asname or alias.name) not in used
        ]
    assert sorted(set(unused) - READ_ELSEWHERE) == []
