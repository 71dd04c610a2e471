"""Source checks: exact arithmetic on every path that can decide a verdict,
no definition that nothing refers to, and no import that nothing uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "orbitkit"


def _float_uses(name, source):
    """'file:line: what' for each float literal, float( or round(."""
    out = []
    for node in ast.walk(ast.parse(source)):
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


def test_the_scan_flags_floats_in_methods_too():
    source = ("def f(x):\n"
              "    return round(float(x) * 0.5)\n"
              "class ClosureVerdict:\n"
              "    def distance_estimate(self):\n"
              "        return float(self.d) ** 0.5\n")
    assert sorted(_float_uses("m.py", source)) == [
        "m.py:2: float literal 0.5", "m.py:2: float(", "m.py:2: round(",
        "m.py:5: float literal 0.5", "m.py:5: float("]


def _definitions(tree):
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _references(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _unreferenced(definition_sources, reference_sources):
    defined = set().union(*(_definitions(ast.parse(s)) for s in definition_sources))
    used = set().union(*(_references(ast.parse(s)) for s in reference_sources))
    return sorted(defined - used)


def test_every_definition_is_referenced():
    src = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    others = [p.read_text(encoding="utf-8")
              for d in ("tests", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    assert _unreferenced(src, src + others) == []


def test_the_reference_scan_flags_a_dead_definition():
    source = ("import os.path\n"
              "class Used:\n"
              "    def method(self):\n"
              "        return helper()\n"
              "    def dead(self):\n"
              "        return os.path\n"
              "def helper():\n"
              "    return Used().method, 'named'\n"
              "def named():\n"
              "    pass\n"
              "def __getattr__(name):\n"
              "    pass\n")
    assert _unreferenced([source], [source]) == ["dead"]


def _unused_imports(name, source):
    """'file:line: name' for each imported name that the module never uses;
    a listing in __all__ counts as a use, any other string does not."""
    imported, used = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported += [(alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in {
                t.id for t in node.targets if isinstance(t, ast.Name)}:
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{name}:{line}: {alias}" for alias, line in imported if alias not in used]


def test_no_unused_imports():
    found = [use for d in (SRC, ROOT / "tests") for path in sorted(d.glob("*.py"))
             for use in _unused_imports(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_import_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "import os.path\n"
              "from fractions import Fraction as F, gcd\n"
              "from .errors import Exported\n"
              "__all__ = ['Exported']\n"
              "from .catalog import named\n"
              "def f():\n"
              "    return os.path.join(F(1), 'named')\n")
    assert _unused_imports("m.py", source) == [
        "m.py:2: json", "m.py:4: gcd", "m.py:7: named"]
