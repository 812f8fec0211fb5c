"""No module of gacalc runs generated source or raises the recursion limit.

Read from the source: a call of the builtin ``eval``, ``exec`` or ``compile``
is a call of that bare name (so ``re.compile`` stays allowed), and a call of
``setrecursionlimit`` is one by that name, bare or as an attribute
(``sys.setrecursionlimit``).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gacalc"

BANNED = {"eval", "exec", "compile", "setrecursionlimit"}


def shortcuts(package: Path) -> list[tuple[str, int, str]]:
    """Every banned call in the package's modules, as (module, line, source)."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id in BANNED
                    or isinstance(f, ast.Attribute) and f.attr == "setrecursionlimit"):
                found.append((path.stem, node.lineno, ast.unparse(node)))
    return sorted(found)


def test_finds_each_banned_call_and_allows_re_compile(tmp_path):
    (tmp_path / "a.py").write_text(
        "import re, sys\nfrom sys import setrecursionlimit\n"
        "PATTERN = re.compile('x')\n"
        "def f(src):\n    return eval(src)\n"
        "def g(src):\n    exec(compile(src, 'g', 'exec'))\n"
        "sys.setrecursionlimit(20000)\nsetrecursionlimit(20000)\n")
    assert [(line, call.split("(")[0]) for _, line, call in shortcuts(tmp_path)] == [
        (5, "eval"), (7, "compile"), (7, "exec"), (8, "sys.setrecursionlimit"),
        (9, "setrecursionlimit")]


def test_no_module_of_gacalc_takes_a_shortcut():
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert shortcuts(PACKAGE) == []
