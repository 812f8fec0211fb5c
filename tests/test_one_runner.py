"""Every identity check of gacalc runs through one runner, `suites._SuiteRun.check`,
and every frame sum through one function, `fields.frame_sum`.

Read from the source: a `CheckResult` is built (a call of the name
``CheckResult`` or of an attribute of that name) in one function only,
outside `report` where the class lives, and `cartan` holds mathematics
alone, so it imports nothing from `report`.  Only `frame_sum` asks for a
frame's fields (`const_frames`) to sum over them, so no hand-written frame
sum is left, and `basis` hands out the canonical frame's own fields, so a
basis field is the one a frame sum sees.  A fixture config is built only by
the loader, from a box the loader reads, and in `fixtures` a coordinate map
only by the map loader, so each built-in fixture and map is a config it
reads.  The flat derivative is one function too: among the calculus modules
only `fields.directional_derivative` differentiates (by partials or by a
tangent), and in `fields` only
`_product` reads the blade table's signs and targets.  Symmetry
is decided from the expressions in one place per run (and once by the
transformation law, which keeps a proved symmetry), generators are built
only by the runner's keyed `_SuiteRun.rng`, only `suites` imports `random`,
and the cartan rows are one table.  A list of expressions is summed by one
function, `expr.total`: no hand-written fold from ``ex.ZERO`` is left.
Exactly the pure connection operators are memo functions.  Each function
of the expression grammar is one row of `expr._FUNCTIONS`, and its name is
written nowhere else in `expr`.  A tape's program runs in one interpreter
loop: only `expr._run` calls an instruction's callable.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gacalc"


def located(path: Path):
    """Each AST node of ``path`` with the ``module.function`` (or
    ``module.Class.method``) it sits in."""
    stack = [(node, path.stem) for node in ast.parse(path.read_text()).body]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        yield node, where
        stack.extend((child, where) for child in ast.iter_child_nodes(node))


def constructions(package: Path, name: str) -> list[str]:
    """``module.function`` (or ``module.Class.method``) of each call of ``name``."""
    return sorted(where for path in sorted(package.glob("*.py")) for node, where in located(path)
                  if isinstance(node, ast.Call) and (
                      (isinstance(node.func, ast.Name) and node.func.id == name)
                      or (isinstance(node.func, ast.Attribute) and node.func.attr == name)))


def attribute_reads(path: Path, names: set[str]) -> list[str]:
    """``module.function`` of each use of an attribute named in ``names``."""
    return sorted(where for node, where in located(path)
                  if isinstance(node, ast.Attribute) and node.attr in names)


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
    """``module.function`` (or ``module.Class.method``) of each function decorated
    with ``name``."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node, where in located(path):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    (isinstance(d, ast.Name) and d.id == name)
                    or (isinstance(d, ast.Attribute) and d.attr == name)
                    for d in node.decorator_list):
                found.append(where)
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
                                   "@other\ndef h():\n    pass\n"
                                   "class K:\n    @memo\n    def __call__(self):\n        pass\n")
    assert decorated(tmp_path, "memo") == ["b.K.__call__", "b.f", "b.g"]
    (tmp_path / "c.py").write_text("def f(t):\n    return t.sign, t.target\n"
                                   "def g(t):\n    return t.signs\n")
    assert attribute_reads(tmp_path / "c.py", {"sign", "target"}) == ["c.f", "c.f"]


def instruction_runs(package: Path) -> list[str]:
    """``module.function`` of each function that calls an instruction's callable:
    a name it unpacks first of four, as in ``for fn, a, b, dead in program``
    (a loop, an assignment or a comprehension, nested in a tuple or not), or
    item 0 of a subscript, as in ``program[slot][0](x)``."""
    unpacked, called = set(), set()
    for path in sorted(package.glob("*.py")):
        for node, where in located(path):
            targets = ([node.target] if isinstance(node, (ast.For, ast.comprehension)) else
                       node.targets if isinstance(node, ast.Assign) else [])
            unpacked |= {(where, t.elts[0].id) for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Tuple) and len(t.elts) == 4
                         and isinstance(t.elts[0], ast.Name)}
            if isinstance(node, ast.Call):
                fn = node.func
                if isinstance(fn, ast.Name):
                    called.add((where, fn.id))
                elif (isinstance(fn, ast.Subscript) and isinstance(fn.slice, ast.Constant)
                      and fn.slice.value == 0):
                    called.add((where, None))
    return sorted({where for where, name in called if name is None or (where, name) in unpacked})


def test_the_instruction_finder_sees_every_interpreter_loop(tmp_path):
    (tmp_path / "a.py").write_text(
        "def run(p, c):\n    for fn, a, b, dead in p:\n        fn(a)\n"
        "def freeing(p, c):\n    for s, (fn, a, b, dead) in enumerate(p):\n"
        "        c.append(fn(c[a], c[b]))\n"
        "def one(p, s):\n    return p[s][0](1.0)\n"
        "def read(p, s):\n    fn, a, b, _ = p[s]\n    return wrap(fn), [f for f, *_ in p]\n"
        "def parse(stack, e):\n    pending, _, left = stack.pop()\n    return pending(left, e)\n")
    assert instruction_runs(tmp_path) == ["a.freeing", "a.one", "a.run"]


def test_one_interpreter_loop_runs_every_tape_program():
    assert instruction_runs(PACKAGE) == ["expr._run"]


def test_one_place_builds_a_check_result():
    built = [where for where in constructions(PACKAGE, "CheckResult")
             if not where.startswith("report.")]
    assert built == ["suites._SuiteRun.check"]


def test_cartan_imports_nothing_from_report():
    assert imports_from(PACKAGE / "cartan.py", "report") == []


def test_one_function_sums_over_a_frame():
    assert constructions(PACKAGE, "const_frames") == ["fields.basis", "fields.frame_sum"]


def list_folds(package: Path) -> list[str]:
    """``module.function`` of each function outside `expr` that sets a name to
    ``ex.ZERO`` and, inside a loop, sets it again to ``ex.add(name, ...)``."""

    def is_ex(node, attr):
        return (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.value, ast.Name) and node.value.id == "ex")

    def refolds(step):  # name = ex.add(name, ...)
        return (isinstance(step, ast.Assign) and isinstance(step.targets[0], ast.Name)
                and isinstance(step.value, ast.Call) and is_ex(step.value.func, "add")
                and isinstance(step.value.args[0], ast.Name)
                and step.value.args[0].id == step.targets[0].id)

    zeroed, folded = set(), set()
    for path in sorted(package.glob("*.py")):
        if path.stem == "expr":
            continue
        for node, where in located(path):
            if isinstance(node, ast.Assign) and is_ex(node.value, "ZERO"):
                zeroed |= {(where, t.id) for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, (ast.For, ast.While)):
                folded |= {(where, step.targets[0].id) for step in ast.walk(node) if refolds(step)}
    return sorted(where for where, _ in zeroed & folded)


def test_the_fold_finder_sees_a_hand_written_list_sum(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(ts):\n    s = ex.ZERO\n    for t in ts:\n        s = ex.add(s, t)\n    return s\n"
        "def g(ts):\n    s = ex.ZERO\n    return ex.add(s, ts[0])\n"
        "def h(ts):\n    s = ex.ONE\n    for t in ts:\n        s = ex.add(s, t)\n    return s\n"
        "class K:\n    def m(self, ts):\n        s = ex.ZERO\n        while ts:\n"
        "            s = ex.add(s, ts.pop())\n        return s\n")
    (tmp_path / "expr.py").write_text((tmp_path / "a.py").read_text())
    assert list_folds(tmp_path) == ["a.K.m", "a.f"]


def test_one_function_sums_a_list_of_expressions():
    assert list_folds(PACKAGE) == []


def test_only_the_loader_builds_a_fixture_config():
    assert constructions(PACKAGE, "FixtureConfig") == ["fixtures.load_fixture"]


def test_only_the_box_loader_builds_a_box():
    assert constructions(PACKAGE, "Box") == ["fixtures._load_box"]


def test_only_the_map_loader_builds_a_coordinate_map_in_fixtures():
    assert [where for where in constructions(PACKAGE, "CoordinateMap")
            if where.startswith("fixtures.")] == ["fixtures.load_map"]


def test_one_function_differentiates_in_the_calculus_modules():
    calculus = ("fields.", "connection.", "cartan.")
    for derivative in ("diff", "tangent"):
        assert [where for where in constructions(PACKAGE, derivative)
                if where.startswith(calculus)] == ["fields.directional_derivative"]


def test_only_the_product_reads_the_blade_table_signs_in_fields():
    assert attribute_reads(PACKAGE / "fields.py", {"sign", "target"}) == [
        "fields._product", "fields._product"]


def test_symmetry_is_decided_once_per_run():
    # and once more by the transformation law, which keeps a proved symmetry
    assert constructions(PACKAGE, "asymmetry") == [
        "bridge.transform_connection", "suites.run_fixture_checks"]


def test_one_function_checks_a_map_dim():
    assert constructions(PACKAGE, "check_map_dim") == [
        "cli._cmd_christoffel", "fixtures._load_connection", "suites.run_transform_checks"]


def test_only_the_runner_builds_a_generator():
    # the symmetry decision samples nothing
    assert constructions(PACKAGE, "KeyedStream") == ["suites._SuiteRun.rng"]
    assert constructions(PACKAGE, "default_rng") == []
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if "numpy.random" in path.read_text() or "np.random" in path.read_text()] == []
    # the stream is the standard library's, and one module imports it
    assert [path.stem for path in sorted(PACKAGE.glob("*.py"))
            if any(isinstance(node, ast.Import) and any(a.name == "random" for a in node.names)
                   or isinstance(node, ast.ImportFrom) and node.level == 0
                   and node.module == "random"
                   for node in ast.walk(ast.parse(path.read_text())))] == ["suites"]


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
        "cartan.curvature", "cartan.torsion", "connection.ExtensorField11.__call__",
        "connection.cov_derivative",
        "connection.gamma_apply", "connection.gamma_matrix", "connection.gauge_bivector",
        "fields.const_frames", "fields.lie_bracket"]
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
