"""Source checks: exact arithmetic on every path that can decide a verdict,
one denominator cap, no src function that no command or benchmark run
enters (outside an allow-list with reasons), no src raise of a class
outside orbitkit.errors (outside a few listed ones), no import that nothing uses,
no import of a package that pyproject.toml does not declare, no
module-level import of sympy or dataclasses in src and none of sympy,
dataclasses or inspect loaded by importing the command line, no layer
loaded by a command that does not run it, every name
that the benchmark's tracer wraps still there, no stdout write outside
the command line's main, no src read of the dense structure table outside
the view that defines it, and no file under tests/golden that no test
source names."""

import ast
import json
import os
import re
import subprocess
import sys
import tomllib
import types
from pathlib import Path

from orbitkit import envelop, errors, liealg
from orbitkit.symflow import ExpPoly

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


def _limit_denominator_uses(name, source, helper="_capped"):
    """'file:line: function' for each limit_denominator attribute outside the
    cap helper, with the function it is in."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "limit_denominator"
                and where != helper):
            out.append(f"{name}:{node.lineno}: {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return out


def test_only_the_cap_helper_limits_denominators():
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in _limit_denominator_uses(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_cap_scan_flags_limit_denominator_outside_the_helper():
    source = ("CAP = 10\n"
              "def _capped(n, d):\n"
              "    return Fraction(n, d).limit_denominator(CAP)\n"
              "class Search:\n"
              "    def pin(self, x):\n"
              "        return x.limit_denominator(CAP)\n"
              "ROUNDED = Fraction(1, 3).limit_denominator\n")
    assert _limit_denominator_uses("m.py", source) == ["m.py:6: pin", "m.py:7: <module>"]


# the closure search's integer kernel: module functions, and _Search methods
_KERNEL_FUNCTIONS = ("_capped", "_powers", "_step", "_at", "_fold", "_gram", "_restrict")
_KERNEL_METHODS = ("dist2", "descend", "_linear_pin", "_multipass_pin", "_pin_starts")


def _kernel_fraction_calls(name, source):
    """'file:line: function' for each Fraction(...) call inside the search
    kernel, and 'file: no function' for a kernel definition not found."""
    tree = ast.parse(source)
    kernel = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in _KERNEL_FUNCTIONS}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "_Search":
            kernel.update((node.name, node) for node in cls.body
                          if isinstance(node, ast.FunctionDef)
                          and node.name in _KERNEL_METHODS)
    out = [f"{name}: no {fn}" for fn in (*_KERNEL_FUNCTIONS, *_KERNEL_METHODS)
           if fn not in kernel]
    for fn, node in kernel.items():
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and "Fraction" in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                out.append(f"{name}:{call.lineno}: {fn}")
    return out


def test_the_search_kernel_builds_no_fraction():
    path = SRC / "invariants.py"
    assert _kernel_fraction_calls(path.name, path.read_text(encoding="utf-8")) == []


def test_the_kernel_scan_flags_fraction_calls_in_the_kernel_only():
    # descend is defined, but on another class
    functions = "".join(f"def {fn}(x):\n    return x\n" for fn in _KERNEL_FUNCTIONS[1:])
    methods = "".join(f"    def {fn}(self, x):\n        return x\n"
                      for fn in _KERNEL_METHODS[2:])
    source = ("def _capped(n, d):\n"
              "    return Fraction(n, d)\n"
              "class _Search:\n"
              "    def dist2(self, x):\n"
              "        f = lambda y: fractions.Fraction(y)\n"
              "        return f(x)\n"
              "    def run(self):\n"
              "        return Fraction(1)\n"
              + methods +
              "class Other:\n"
              "    def descend(self, x):\n"
              "        return Fraction(x)\n"
              + functions)
    assert _kernel_fraction_calls("m.py", source) == [
        "m.py: no descend", "m.py:2: _capped", "m.py:5: dist2"]


# Src code that no run of tests/reach_run.py enters, by the reason it stays
REACH_ALLOWED = {
    "perfbench names it, so it leaves with a change to the benchmark": (
        "algfile.emit_algebra", "algfile._format_coeff_name", "coadjoint.functional",
        "exactlin.solve", "exactlin.Matrix.zero", "exactlin.Matrix.row",
        "exactlin.Matrix.column",
        "exactlin.Subspace.intersect", "exactlin.Subspace.annihilator_matrix",
        "liealg.LieAlgebra.quotient", "liealg.LieAlgebra.quotient.<locals>.project",
        "liealg.LieAlgebra.table"),
    "ROADMAP gives it a caller: critical_test (item 2), verify (item 5)": (
        "invariants.critical_test", "coadjoint.ConditionRCertificate.verify",
        "coadjoint.RegularityReport.verify"),
    "an immutability guard, entered only by a caller's mistake": (
        "envelop.UEAElement.__setattr__", "envelop.DiffOp.__setattr__",
        "exactlin.GaussianRational.__setattr__", "exactlin.Matrix.__setattr__",
        "exactlin.Subspace.__setattr__", "liealg.LieAlgebra.__setattr__",
        "symflow.ExpPoly.__setattr__"),
    "a reference operation that tests compare against or assert with": (
        "envelop.UEAElement.__eq__", "envelop.UEAElement.__repr__",
        "envelop.DiffOp.__eq__", "envelop.DiffOp.__repr__", "exactlin.Matrix.__eq__",
        "exactlin.Matrix.__repr__", "exactlin.Subspace.__repr__", "symflow.ExpPoly.__hash__",
        "symflow._linear_form", "symflow.ExpPoly.substitute.<locals>.linear_form"),
}


def _code_objects(name, source):
    """(file name, first line, qualified name) of every function and class
    body in source, nested ones included; comprehensions, lambdas and the
    module body are skipped."""
    out, todo = set(), [compile(source, name, "exec")]
    while todo:
        for const in todo.pop().co_consts:
            if isinstance(const, types.CodeType):
                todo.append(const)
                if not const.co_name.startswith("<"):
                    out.add((name, const.co_firstlineno, const.co_qualname))
    return out


def _reach_problems(defined, entered, allowed):
    """'module.qualname' of each defined code object that was not entered and
    that allowed does not list, and of each allowed entry that was entered or
    is not defined, so that the list cannot go stale."""
    never = {f"{Path(name).stem}.{qualname}" for name, _, qualname in defined - entered}
    listed = {n for names in allowed.values() for n in names}
    return ([f"unreached: {n}" for n in sorted(never - listed)]
            + [f"stale: {n}" for n in sorted(listed - never)])


def test_every_src_function_runs_or_is_allowed(tmp_path):
    # a fresh interpreter, so that every import-time call is seen; the
    # hash seed fixes the catalog-sweep's closure-test targets
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "reach_run.py"),
                           str(tmp_path)], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    run = json.loads(proc.stdout)
    assert run["problems"] == []
    defined = set().union(*(_code_objects(path.name, path.read_text(encoding="utf-8"))
                            for path in sorted(SRC.glob("*.py"))))
    entered = {tuple(code) for code in run["entered"]}
    assert _reach_problems(defined, entered, REACH_ALLOWED) == []


_GATE_SOURCE = ("class Used:\n"
                "    def method(self):\n"
                "        return [x for x in ()]\n"
                "    def __eq__(self, other):\n"
                "        def inner():\n"
                "            pass\n"
                "        return lambda: inner\n"
                "def allowed():\n"
                "    pass\n")


def test_the_code_object_scan_lists_nested_functions_and_skips_comprehensions():
    assert sorted(_code_objects("m.py", _GATE_SOURCE)) == [
        ("m.py", 1, "Used"), ("m.py", 2, "Used.method"), ("m.py", 4, "Used.__eq__"),
        ("m.py", 5, "Used.__eq__.<locals>.inner"), ("m.py", 8, "allowed")]


def test_the_reach_gate_flags_unreached_code_and_a_stale_allowance():
    defined = _code_objects("m.py", _GATE_SOURCE)
    entered = {c for c in defined if c[2] in ("Used", "Used.method")}
    reasons = {"why": ("m.allowed",)}
    assert _reach_problems(defined, entered, reasons) == [
        "unreached: m.Used.__eq__", "unreached: m.Used.__eq__.<locals>.inner"]
    assert _reach_problems(defined, defined, reasons) == ["stale: m.allowed"]
    assert _reach_problems(defined, entered, {"why": ("m.gone",)})[-1] == "stale: m.gone"


def _stdout_writes(name, source):
    """'file:line: function' for each print without file=sys.stderr, and each
    use of sys.stdout outside main in cli.py."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            if not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                       for kw in node.keywords):
                out.append(f"{name}:{node.lineno}: {where}")
        elif (isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__")
              and (name, where) != ("cli.py", "main")):
            out.append(f"{name}:{node.lineno}: {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return out


def test_only_the_cli_main_writes_stdout():
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in _stdout_writes(path.name, path.read_text(encoding="utf-8"))]
    assert found == []
    cli_source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert cli_source.count("sys.stdout.write(") == 1


def test_the_stdout_scan_flags_writes_outside_the_cli_main():
    source = ("import sys\n"
              "def main():\n"
              "    sys.stdout.write('x')\n"
              "    print('x', file=sys.stderr)\n"
              "    print('x')\n"
              "class Report:\n"
              "    def show(self):\n"
              "        print('x', file=out)\n"
              "        return sys.__stdout__\n")
    assert _stdout_writes("cli.py", source) == ["cli.py:5: main", "cli.py:8: show",
                                                "cli.py:9: show"]
    assert _stdout_writes("report.py", source) == ["report.py:3: main", "report.py:5: main",
                                                   "report.py:8: show", "report.py:9: show"]


# src raises of a class outside orbitkit.errors, as (file, function, raised)
# with None for any file or function: the command line's exits and argparse's
# type errors, the immutability guards, the catalog lookup that cli turns
# into exit 1, and the re-raises of the per-algebra memo
FOREIGN_RAISES_ALLOWED = (
    ("cli.py", None, "SystemExit"), ("cli.py", None, "argparse.ArgumentTypeError"),
    (None, "__setattr__", "AttributeError"), ("catalog.py", "get_entry", "KeyError"),
    ("liealg.py", "cached", "re-raise"), ("liealg.py", "cached", "got.with_traceback"))


def _foreign_raises(name, source, known, allowed=FOREIGN_RAISES_ALLOWED):
    """'file:line: function: raised' for each raise of an exception that
    known does not name and allowed does not cover; raised is the called or
    named exception, or 're-raise' for a bare raise."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Raise):
            exc = node.exc
            raised = "re-raise" if exc is None else ast.unparse(
                exc.func if isinstance(exc, ast.Call) else exc)
            if raised not in known and not any(
                    f in (None, name) and w in (None, where) and r == raised
                    for f, w, r in allowed):
                out.append(f"{name}:{node.lineno}: {where}: {raised}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return out


def test_src_raises_only_orbitkit_errors():
    known = {n for n, c in vars(errors).items()
             if isinstance(c, type) and issubclass(c, errors.OrbitkitError)}
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in _foreign_raises(path.name, path.read_text(encoding="utf-8"), known)]
    assert found == []


def test_the_raise_scan_flags_a_class_outside_the_errors_module():
    source = ("class DiffOp:\n"
              "    def __setattr__(self, *args):\n"
              "        raise AttributeError('immutable')\n"
              "    def scalar_value(self):\n"
              "        raise ValueError('not a scalar')\n"
              "def get_entry(name):\n"
              "    if name:\n"
              "        raise KeyError(name)\n"
              "    raise PreconditionFailed(name)\n"
              "def cached(memo, key):\n"
              "    try:\n"
              "        return memo[key]\n"
              "    except LookupError:\n"
              "        raise\n"
              "raise SystemExit(main())\n")
    known = {"PreconditionFailed"}
    assert _foreign_raises("envelop.py", source, known) == [
        "envelop.py:5: scalar_value: ValueError", "envelop.py:8: get_entry: KeyError",
        "envelop.py:14: cached: re-raise", "envelop.py:15: <module>: SystemExit"]
    assert _foreign_raises("catalog.py", source, known) == [
        "catalog.py:5: scalar_value: ValueError", "catalog.py:14: cached: re-raise",
        "catalog.py:15: <module>: SystemExit"]
    assert _foreign_raises("cli.py", source, known, allowed=()) == [
        "cli.py:3: __setattr__: AttributeError", "cli.py:5: scalar_value: ValueError",
        "cli.py:8: get_entry: KeyError", "cli.py:14: cached: re-raise",
        "cli.py:15: <module>: SystemExit"]


def _vanish_checks(name, source):
    """'file:line: function' for each reference to vanish_on_orbit outside
    closure_membership, which is the one place that checks a certificate."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if ("vanish_on_orbit" in (getattr(node, "id", None), getattr(node, "attr", None))
                and where != "closure_membership"):
            out.append(f"{name}:{node.lineno}: {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return out


def test_only_closure_membership_checks_that_a_certificate_vanishes():
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in _vanish_checks(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_vanish_scan_flags_uses_outside_closure_membership():
    source = ("from .invariants import vanish_on_orbit\n"
              "def vanish_on_orbit(q, om):\n"
              "    return True\n"
              "def closure_membership(om, qs):\n"
              "    return all(vanish_on_orbit(q, om) for q in qs)\n"
              "def orbit_certificates(om, qs):\n"
              "    return [q for q in qs if invariants.vanish_on_orbit(q, om)]\n"
              "checks = list(filter(vanish_on_orbit, []))\n")
    assert _vanish_checks("m.py", source) == ["m.py:7: orbit_certificates", "m.py:8: <module>"]


def _table_reads(name, source):
    """'file:line: function' for each .table attribute outside the liealg
    property that defines the dense view, which src leaves to the tests and
    the benchmark."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "table"
                and (name, where) != ("liealg.py", "table")):
            out.append(f"{name}:{node.lineno}: {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return out


def test_src_reads_no_dense_table():
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in _table_reads(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_table_scan_flags_reads_outside_the_view():
    source = ("class LieAlgebra:\n"
              "    @property\n"
              "    def table(self):\n"
              "        return self.table\n"
              "    def commutator_ideal(self):\n"
              "        return [row for row in self.table]\n"
              "CELL = g.table[0][1]\n")
    assert _table_reads("liealg.py", source) == ["liealg.py:6: commutator_ideal",
                                                 "liealg.py:7: <module>"]
    assert _table_reads("cli.py", source) == ["cli.py:4: table", "cli.py:6: commutator_ideal",
                                              "cli.py:7: <module>"]


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


def _undeclared_imports(name, source, allowed):
    """'file:line: module' for each absolute import whose top-level module is
    not in allowed."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        out += [f"{name}:{node.lineno}: {m}" for m in modules if m.split(".")[0] not in allowed]
    return out


def _importable_modules():
    """The standard library, orbitkit, the test and benchmark modules (the
    reach gate's run imports perfbench's workloads) and every package that
    pyproject.toml declares, as a dependency or in an extra."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + [
        r for extra in project["optional-dependencies"].values() for r in extra]
    declared = {re.match(r"[\w.-]+", r).group(0).lower().replace("-", "_")
                for r in requirements}
    siblings = {path.stem for d in ("tests", "perfbench") for path in (ROOT / d).glob("*.py")}
    return set(sys.stdlib_module_names) | {"orbitkit"} | siblings | declared


def test_every_imported_package_is_declared():
    allowed = _importable_modules()
    found = [use for d in (SRC, ROOT / "tests") for path in sorted(d.glob("*.py"))
             for use in _undeclared_imports(path.name, path.read_text(encoding="utf-8"),
                                            allowed)]
    assert found == []


def test_the_dependency_scan_flags_an_undeclared_import():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy\n"
              "from fractions import Fraction\n"
              "from .errors import ParseError\n"
              "def f():\n"
              "    from scipy.linalg import lu\n"
              "    import sympy\n")
    allowed = {"__future__", "os", "fractions", "sympy"}
    assert _undeclared_imports("m.py", source, allowed) == [
        "m.py:2: numpy", "m.py:6: scipy.linalg"]


def _module_level_imports(name, source):
    """'file:line: module' for each import that runs when the module is
    imported: anywhere outside a function body."""
    out = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            out.extend(f"{name}:{node.lineno}: {alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.append(f"{name}:{node.lineno}: {'.' * node.level}{node.module or ''}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return out


# sympy is the eigenvalue fallback's alone, imported when it first runs;
# dataclasses, which loads inspect, ast and tokenize, is not needed at all:
# the records are NamedTuples
NOT_IMPORTED_AT_START = ("sympy", "dataclasses")


def test_no_module_level_sympy_import():
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in _module_level_imports(path.name, path.read_text(encoding="utf-8"))
             if use.split(": ")[1].split(".")[0] in NOT_IMPORTED_AT_START]
    assert found == []


def test_the_import_level_scan_skips_function_bodies():
    source = ("import sympy.polys\n"
              "from .exactlin import Matrix\n"
              "class C:\n"
              "    from sympy import QQ\n"
              "    def f(self):\n"
              "        import sympy\n"
              "try:\n"
              "    import gmpy2\n"
              "except ImportError:\n"
              "    pass\n")
    assert _module_level_imports("m.py", source) == [
        "m.py:1: sympy.polys", "m.py:2: .exactlin", "m.py:4: sympy", "m.py:8: gmpy2"]


def _fresh_interpreter_imports(code, modules):
    """Those of modules that a fresh interpreter has loaded after running code,
    in the order given."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code + "\nimport sys\n"
                           f"print('loaded:', *(m for m in {modules!r} if m in sys.modules),"
                           " file=sys.stderr)"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    return proc.stderr.splitlines()[-1].split()[1:]


def test_importing_the_cli_leaves_sympy_unimported():
    modules = (*NOT_IMPORTED_AT_START, "inspect")
    assert _fresh_interpreter_imports("import orbitkit.cli", modules) == []


def test_the_import_probe_names_the_modules_a_run_loaded():
    code = "import dataclasses\nimport fractions"
    assert _fresh_interpreter_imports(code, ("sympy", "dataclasses", "inspect")) == [
        "dataclasses", "inspect"]


# the layers that only the catalog, orbit, invariants and closure-test paths run
DEFERRED_LAYERS = ("orbitkit.catalog", "orbitkit.envelop", "orbitkit.invariants",
                   "orbitkit.symflow")


def test_importing_the_cli_loads_only_the_structural_layers():
    modules = ("orbitkit", *(f"orbitkit.{path.stem}" for path in sorted(SRC.glob("*.py"))
                             if path.stem != "__init__"))
    assert _fresh_interpreter_imports("import orbitkit.cli", modules) == [
        "orbitkit", "orbitkit.algfile", "orbitkit.cli", "orbitkit.coadjoint",
        "orbitkit.errors", "orbitkit.exactlin", "orbitkit.liealg", "orbitkit.report"]


def _layers_a_command_loads(argv):
    code = f"from orbitkit import cli\nassert cli.main({argv!r}) == 0"
    return _fresh_interpreter_imports(code, DEFERRED_LAYERS)


def test_each_command_loads_only_the_layers_it_runs(alg_dir):
    b3 = ["--file", str(alg_dir / "b3.alg"), "--json"]
    f = ["--f", "E00=1,E01=2,E02=3,E11=-1,E12=1/2,E22=2"]
    assert _layers_a_command_loads(["analyze", *b3]) == []
    for command in ("stabilizer", "condition-r", "polarize", "regularity-report"):
        assert _layers_a_command_loads([command, *b3, *f]) == [], command
    assert _layers_a_command_loads(["orbit", *b3, *f]) == ["orbitkit.symflow"]
    # the probe sees every deferred layer once a command runs it
    assert _layers_a_command_loads(["closure-test", "--catalog", "b5", "--g", "e3=1",
                                    "--json"]) == list(DEFERRED_LAYERS)


def test_gaussian_spectra_never_reach_the_sympy_fallback():
    # e2-motion's roots +-i come from the integer candidate search
    code = ("from orbitkit import cli\n"
            "assert cli.main(['invariants', '--catalog', 'e2-motion', '--degree', '3',"
            " '--json']) == 0")
    assert _fresh_interpreter_imports(code, ("sympy",)) == []


def _benchmark_tracer():
    # perfbench/tracer.py is run from its source, so no bytecode is written
    # under perfbench/
    path = ROOT / "perfbench" / "tracer.py"
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer.__dict__)
    return tracer


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py wraps orbitkit functions and methods by name and
    # raises LookupError for one that was renamed or deleted
    tracer = _benchmark_tracer()
    function = liealg._gaussian_eigenvalues
    method = liealg.LieAlgebra.__dict__["nilradical"]
    undo = tracer.install(tracer.Recorder())
    try:
        assert liealg._gaussian_eigenvalues is not function
        assert liealg.LieAlgebra.__dict__["nilradical"] is not method
    finally:
        undo()
    assert liealg._gaussian_eigenvalues is function
    assert liealg.LieAlgebra.__dict__["nilradical"] is method


def test_the_benchmark_cache_probe_sees_symmetrize_use_the_word_cache():
    # the traced benchmark reads envelop._normalize_word's lru_cache counters
    m = liealg.g49_zero()
    e0, e3 = ExpPoly.variable("e0"), ExpPoly.variable("e3")
    with _benchmark_tracer().CacheProbe() as probe:
        envelop.symmetrize(e0 ** 2 * e3, m)
    assert probe.hits + probe.misses > 0


def _orphan_golden_files(names, sources):
    """Those of names that no string literal of sources spells, and no
    f-string that ends in literal text matches with a run of word characters
    and hyphens for each placeholder."""
    literals, patterns = set(), []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.JoinedStr) and isinstance(node.values[-1], ast.Constant):
                patterns.append("".join(re.escape(part.value) if isinstance(part, ast.Constant)
                                        else r"[\w-]+" for part in node.values))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    return [name for name in names
            if name not in literals and not any(re.fullmatch(p, name) for p in patterns)]


def test_every_golden_file_is_named_by_a_test():
    names = sorted(path.name for path in (ROOT / "tests" / "golden").iterdir())
    sources = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "tests").glob("*.py"))]
    assert _orphan_golden_files(names, sources) == []


def test_the_golden_scan_flags_a_file_that_no_test_names():
    source = ('RECORDS = ROOT / "golden" / "corpus.json"\n'
              'def golden(command):\n'
              '    return f"borel4.{command}.json"\n'
              'label = f"{name}.{ext}"\n')
    names = ["corpus.json", "borel4.regularity-report.json", "borel4.a.b.json", "gone.json"]
    assert _orphan_golden_files(names, [source]) == ["borel4.a.b.json", "gone.json"]
