"""No function in gacalc recurses, so no input depth meets Python's recursion limit.

The call graph is read from the source: an edge for each call, by name, of a
function of the package (a module-level function of the same module, one
imported from a sibling module, or one reached as ``alias.name`` through a
module imported as ``alias``), and of a method through ``self.`` or ``cls.``.
A nested function's calls count as its enclosing function's.  A function
on a cycle of this graph, a direct self-call included, fails the test.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gacalc"


def call_graph(package: Path) -> dict[str, set[str]]:
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    top = {mod: {node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
           for mod, tree in modules.items()}
    graph: dict[str, set[str]] = {}
    for mod, tree in modules.items():
        names = {name: f"{mod}.{name}" for name in top[mod]}  # callable name -> node
        aliases = {}  # local name of a sibling module -> its stem
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None and alias.name in modules:
                        aliases[local] = alias.name
                    elif alias.name in top.get(node.module, ()):
                        names[local] = f"{node.module}.{alias.name}"

        def callees(fn, cls):
            out = set()
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if isinstance(f, ast.Name) and f.id in names:
                    out.add(names[f.id])
                elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                    owner = f.value.id
                    if owner in ("self", "cls") and cls is not None:
                        out.add(f"{mod}.{cls}.{f.attr}")
                    elif owner in aliases and f.attr in top[aliases[owner]]:
                        out.add(f"{aliases[owner]}.{f.attr}")
            return out

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                graph[f"{mod}.{node.name}"] = callees(node, None)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        graph[f"{mod}.{node.name}.{item.name}"] = callees(item, node.name)
    return graph


def on_cycles(graph: dict[str, set[str]]) -> set[str]:
    """The nodes that reach themselves."""
    found = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            node = todo.pop()
            if node == start:
                found.add(start)
                break
            if node not in seen:
                seen.add(node)
                todo.extend(graph.get(node, ()))
    return found


def test_finds_direct_and_mutual_recursion(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b as bee\n"
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    return bee.h()\n"
        "class P:\n"
        "    def m(self):\n        return self.n()\n"
        "    def n(self):\n        return self.m()\n"
        "    def leaf(self):\n        return self.m()\n")
    (tmp_path / "b.py").write_text("from .a import g\ndef h():\n    return g()\n")
    assert on_cycles(call_graph(tmp_path)) == {"a.f", "a.g", "b.h", "a.P.m", "a.P.n"}


def test_nothing_in_gacalc_recurses():
    graph = call_graph(PACKAGE)
    assert "expr.parse" in graph and "fixtures._load_connection" in graph
    assert on_cycles(graph) == set()
