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


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_private_name_is_referenced():
    # a private function, method, class or module-level name that nothing in
    # the package reads is dead code
    defined, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
        defined += [
            (path.stem, target.id)
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        ]
    assert sorted((mod, name) for mod, name in defined if _private(name) and name not in referenced) == []


def test_no_call_of_the_builtin_id():
    # a cache keyed by id() is sound only while its keys never die, since a
    # dead object's id may be given to a new one
    calls = [
        "%s:%d" % (path.stem, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert calls == []
