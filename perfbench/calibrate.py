"""Host-speed calibration: a fixed pure-Python job that does not use gacalc.

    python3 perfbench/calibrate.py

The job resembles gacalc's symbolic work without sharing any of its code:
it builds a tree of small tuples, folds equal subtrees through a dict,
differentiates and evaluates it at a few points.  A change to gacalc
cannot change its time; a busier or slower host does.  run.py times this
process between operations and scales its timings by the result.
"""

import math


def build(depth: int, i: int):
    if depth == 0:
        return ("x", i % 3) if i % 4 else ("c", float(i % 5) + 0.5)
    op = ("add", "mul", "sin")[i % 3]
    if op == "sin":
        return ("sin", build(depth - 1, 3 * i + 1))
    return (op, build(depth - 1, 2 * i + 1), build(depth - 1, 2 * i + 2))


def intern(node, table: dict):
    if node[0] in ("x", "c"):
        return table.setdefault(node, node)
    key = (node[0],) + tuple(intern(k, table) for k in node[1:])
    return table.setdefault(key, key)


def diff(node, var: int):
    tag = node[0]
    if tag == "x":
        return ("c", 1.0 if node[1] == var else 0.0)
    if tag == "c":
        return ("c", 0.0)
    if tag == "add":
        return ("add", diff(node[1], var), diff(node[2], var))
    if tag == "mul":
        return ("add", ("mul", diff(node[1], var), node[2]), ("mul", node[1], diff(node[2], var)))
    return ("mul", ("cos", node[1]), diff(node[1], var))


def evaluate(node, point) -> float:
    tag = node[0]
    if tag == "x":
        return point[node[1]]
    if tag == "c":
        return node[1]
    if tag == "add":
        return evaluate(node[1], point) + evaluate(node[2], point)
    if tag == "mul":
        return evaluate(node[1], point) * evaluate(node[2], point)
    if tag == "sin":
        return math.sin(evaluate(node[1], point))
    return math.cos(evaluate(node[1], point))


def main() -> None:
    tree = intern(build(13, 0), {})
    total = 0.0
    for var in range(3):
        d = diff(tree, var)
        for k in range(4):
            total += evaluate(d, (0.1 * k, 0.2, 0.3 * k))
    if not math.isfinite(total):
        raise SystemExit("calibration job went wrong")


if __name__ == "__main__":
    main()
