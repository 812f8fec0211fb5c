"""Every identity check of gacalc runs through one runner, `suites._SuiteRun.check`,
and every frame sum through one function, `connection.frame_sum`.

Read from the source: a `CheckResult` is built (a call of the name
``CheckResult`` or of an attribute of that name) in one function only,
outside `report` where the class lives, and `cartan` holds mathematics
alone, so it imports nothing from `report`.  Only `frame_sum` asks for a
frame's fields (`const_frames`) to sum over them, so no hand-written frame
sum is left; `extensor_cov_derivative` asks for the canonical ones as the
columns of its matrix.  Symmetry is decided in one place, generators are
built only by the runner's keyed `_SuiteRun.rng` and by that one decision's
probe, and the cartan rows are one table.
Exactly the pure connection operators are memo functions.  Each function
of the expression grammar is one row of `expr._FUNCTIONS`, and its name is
written nowhere else in `expr`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gacalc"


def constructions(package: Path, name: str) -> list[str]:
    """``module.function`` (or ``module.Class.method``) of each call of ``name``."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        stack = [(node, path.stem) for node in tree.body]
        while stack:
            node, where = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{where}.{node.name}"
            if isinstance(node, ast.Call):
                f = node.func
                if (isinstance(f, ast.Name) and f.id == name) or (
                        isinstance(f, ast.Attribute) and f.attr == name):
                    found.append(where)
            stack.extend((child, where) for child in ast.iter_child_nodes(node))
    return sorted(found)


def imports_from(path: Path, module: str) -> list[int]:
    """Line numbers of the statements of ``path`` that import sibling ``module``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level == 0:
                target = target.removeprefix("gacalc.") if target != "gacalc" else ""
            if target == module or (target == "" and any(a.name == module for a in node.names)):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name == f"gacalc.{module}" for a in node.names):
                lines.append(node.lineno)
    return lines


def decorated(package: Path, name: str) -> list[str]:
    """``module.function`` of each module-level function decorated with ``name``."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    (isinstance(d, ast.Name) and d.id == name)
                    or (isinstance(d, ast.Attribute) and d.attr == name)
                    for d in node.decorator_list):
                found.append(f"{path.stem}.{node.name}")
    return sorted(found)


def test_finders_see_calls_and_imports(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .report import CheckResult\n"
        "import gacalc.report\n"
        "from . import report, fields\n"
        "from gacalc import report as r\n"
        "def f():\n    return CheckResult(1)\n"
        "class K:\n    def m(self):\n        return [r.CheckResult(2)]\n")
    assert constructions(tmp_path, "CheckResult") == ["a.K.m", "a.f"]
    assert imports_from(tmp_path / "a.py", "report") == [1, 2, 3, 4]
    assert imports_from(tmp_path / "a.py", "fields") == [3]
    (tmp_path / "b.py").write_text("@memo\ndef f():\n    pass\n@mf.memo\ndef g():\n    pass\n"
                                   "@other\ndef h():\n    pass\n")
    assert decorated(tmp_path, "memo") == ["b.f", "b.g"]


def test_one_place_builds_a_check_result():
    built = [where for where in constructions(PACKAGE, "CheckResult")
             if not where.startswith("report.")]
    assert built == ["suites._SuiteRun.check"]


def test_cartan_imports_nothing_from_report():
    assert imports_from(PACKAGE / "cartan.py", "report") == []


def test_one_function_sums_over_a_frame():
    assert constructions(PACKAGE, "const_frames") == [
        "connection.extensor_cov_derivative", "connection.frame_sum"]


def test_symmetry_is_decided_once_per_run():
    assert constructions(PACKAGE, "asymmetry") == ["suites.run_fixture_checks"]


def test_one_function_checks_a_map_dim():
    assert constructions(PACKAGE, "check_map_dim") == [
        "cli._cmd_christoffel", "fixtures._load_connection", "suites.transform_suite"]


def test_only_the_runner_and_the_symmetry_probe_build_a_generator():
    assert constructions(PACKAGE, "default_rng") == [
        "suites._SuiteRun.rng", "suites.run_fixture_checks"]


def test_cartan_rows_run_through_one_table_at_the_runner_sample():
    tree = ast.parse((PACKAGE / "suites.py").read_text())
    suite = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "cartan_rows")
    tables = [node.value for node in ast.walk(suite) if isinstance(node, ast.Return)
              and isinstance(node.value, ast.List)]
    assert len(tables) == 1
    rows = [row for row in tables[0].elts if isinstance(row, ast.Tuple)]
    assert len(rows) > 10
    assert all(len(row.elts) == 4 for row in rows)  # (name, tag, draws, build): no point set


def test_exactly_the_pure_connection_operators_are_memo_functions():
    assert decorated(PACKAGE, "memo") == [
        "cartan.curvature", "cartan.torsion", "connection.const_frames",
        "connection.cov_derivative", "connection.gamma_apply", "connection.gamma_matrix",
        "connection.gauge_bivector", "fields.lie_bracket"]
    assert constructions(PACKAGE, "memo") == []  # and none is wrapped by a call


def test_each_function_name_is_written_only_in_the_function_table():
    source = (PACKAGE / "expr.py").read_text()
    grammar = next(line for line in source.splitlines() if line.strip().startswith("func"))
    names = [name.strip() for name in grammar.split(":=")[1].split("|")]
    tree = ast.parse(source)
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_FUNCTIONS"])
    assert sorted(key.value for key in table.keys) == sorted(names)  # one row per name
    in_table = {id(node) for node in ast.walk(table)}
    outside = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
               and node.value in names and id(node) not in in_table]
    assert outside == []
    # inside the table, a derivative rule names its own row (a fresh call, not the
    # node itself) or, for sin and cos only, the other one
    named = sorted((key.value, node.value) for key, row in zip(table.keys, table.values)
                   for node in ast.walk(row) if isinstance(node, ast.Constant)
                   and node.value in names and node.value != key.value)
    assert named == [("cos", "sin"), ("sin", "cos")]
