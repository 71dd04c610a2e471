"""Source checks: exact arithmetic on every path that can decide a verdict."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitkit"

# display only: a float rendering of an exact squared distance
ALLOWED = {"ClosureVerdict.distance_estimate"}


def _float_uses(name, source):
    """'file:line: what' for each float literal, float( or round( outside ALLOWED."""
    tree = ast.parse(source)
    allowed = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and f"{cls.name}.{fn.name}" in ALLOWED:
                allowed.update(id(n) for n in ast.walk(fn))
    out = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append(f"{name}:{node.lineno}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            out.append(f"{name}:{node.lineno}: {node.func.id}(")
    return out


def test_no_floats_outside_display_code():
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in _float_uses(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_scan_flags_floats_and_spares_the_display_method():
    source = ("def f(x):\n"
              "    return round(float(x) * 0.5)\n"
              "class ClosureVerdict:\n"
              "    def distance_estimate(self):\n"
              "        return float(self.d) ** 0.5\n")
    assert _float_uses("m.py", source) == [
        "m.py:2: round(", "m.py:2: float(", "m.py:2: float literal 0.5"]
