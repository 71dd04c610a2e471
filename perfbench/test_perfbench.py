"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

import ast
import inspect
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import borel  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from orbitkit import errors  # noqa: E402
from orbitkit.algfile import emit_algebra, parse_algebra  # noqa: E402


# -- the b_n generator ---------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_borel_text_passes_jacobi_and_round_trips(n, seed):
    g = parse_algebra(borel.borel_text(n, seed))
    assert g.dim == n * (n + 1) // 2
    assert parse_algebra(emit_algebra(g)) == g


def test_borel_seed_only_relabels():
    a = parse_algebra(borel.borel_text(3, 0))
    b = parse_algebra(borel.borel_text(3, 5))
    assert a.basis_names != b.basis_names
    assert sorted(a.basis_names) == sorted(b.basis_names)

    def table(g):
        return {(x, y): {g.basis_names[k]: c for k, c in enumerate(g.table[i][j]) if c}
                for i, x in enumerate(g.basis_names) for j, y in enumerate(g.basis_names)}

    assert table(a) == table(b)


def test_a_wrong_bracket_fails_the_jacobi_check():
    text = borel.borel_text(3, 0)
    line = next(ln for ln in text.splitlines() if ln.startswith("bracket"))
    head, rhs = line.split(" = ")
    flipped = f"{head} = -{rhs}" if not rhs.startswith("-") else f"{head} = {rhs[1:]}"
    with pytest.raises(errors.OrbitkitError):
        parse_algebra(text.replace(line, flipped))


@pytest.fixture(scope="module")
def b2_outputs(tmp_path_factory):
    n, seed = 2, 3
    path = tmp_path_factory.mktemp("alg") / "b2.alg"
    path.write_text(borel.borel_text(n, seed))
    pairs = borel.basis_pairs(n, seed)
    f = {borel.unit_name(*p): Fraction(k + 2, 3) for k, p in enumerate(pairs)}
    out = {}
    for cmd in ("analyze", "stabilizer", "polarize"):
        argv = [cmd, "--file", str(path), "--json"]
        if cmd != "analyze":
            argv += ["--f", borel.functional_arg(f)]
        out[cmd] = workloads._result(workloads.run_cli(argv))
    return n, pairs, f, out


def test_known_answers_accept_orbitkit_on_b2(b2_outputs):
    n, pairs, f, out = b2_outputs
    assert borel.check_analyze(n, pairs, out["analyze"]) == []
    assert borel.check_stabilizer(pairs, f, out["stabilizer"]) == []
    assert borel.check_polarization(pairs, f, out["polarize"]) == []


def test_known_answers_reject_wrong_outputs(b2_outputs):
    n, pairs, f, out = b2_outputs
    analyze = dict(out["analyze"])
    analyze["nilradical"] = dict(analyze["nilradical"], basis=analyze["nilradical"]["basis"][:1])
    analyze["roots"] = [dict(r, re=[str(-Fraction(x)) for x in r["re"]])
                        for r in analyze["roots"]]
    problems = borel.check_analyze(n, pairs, analyze)
    assert any("nilradical" in p for p in problems)
    assert any("roots" in p for p in problems)
    stab = dict(out["stabilizer"], form_rank=out["stabilizer"]["form_rank"] + 2)
    assert borel.check_stabilizer(pairs, f, stab)


# -- arithmetic ------------------------------------------------------------------

def test_geomean():
    assert run.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert run.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert run.geomean([5.0]) == pytest.approx(5.0)


def test_self_time_on_nested_spans():
    spans = [
        ["op", "cli", 0.0, 10.0, -1, True],
        ["liealg.f", "liealg", 1.0, 7.0, 0, True],
        ["exactlin.k", "exactlin", 2.0, 4.0, 1, True],
        ["liealg.f", "liealg", 4.5, 6.5, 1, False],
        ["exactlin.k", "exactlin", 5.0, 6.0, 3, True],
        ["report.e", "report", 8.0, 9.0, 0, True],
    ]
    inclusive, self_time, within = tracer.aggregate(spans)
    assert inclusive == {"op": 10.0, "liealg.f": 6.0, "exactlin.k": 3.0, "report.e": 1.0}
    assert self_time == {"cli": 3.0, "liealg": 3.0, "exactlin": 3.0, "report": 1.0}
    assert sum(self_time.values()) == 10.0
    assert within == {"cli": 10.0, "liealg": 6.0, "exactlin": 3.0, "report": 1.0}


def test_recorder_links_parents_and_marks_recursion():
    rec = tracer.Recorder()
    a = rec.open("x.f", "x")
    b = rec.open("x.f", "x")
    c = rec.open("y.g", "y")
    for sid in (c, b, a):
        rec.close(sid)
    assert [(s[4], s[5]) for s in rec.spans] == [(-1, True), (a, False), (b, True)]
    assert all(s[3] is not None for s in rec.spans) and not rec.stack


# -- wrapper coverage ------------------------------------------------------------

def _wrapped_objects():
    import importlib
    out = []
    for layer, spec in tracer.LAYERS.items():
        module = importlib.import_module(f"orbitkit.{layer}")
        out += [(module, name) for name in spec.get("functions", ())]
        for cls_name, methods in spec.get("methods", {}).items():
            out += [(getattr(module, cls_name), name) for name in methods]
    return [(owner, name, owner.__dict__[name]) for owner, name in out]


def test_install_wraps_every_namespace_and_undo_restores():
    from orbitkit import cli, coadjoint
    before = _wrapped_objects()
    original_stabilizer = cli.stabilizer
    rec = tracer.Recorder()
    undo = tracer.install(rec)
    try:
        assert cli.stabilizer is not original_stabilizer
        assert cli.stabilizer is coadjoint.stabilizer
        res = workloads.run_cli(["stabilizer", "--catalog", "heisenberg3", "--json"])
    finally:
        undo()
    assert res.exit == 0
    # once from cli's namespace, once from inside coadjoint.stabilizer_ideal
    assert rec.calls["coadjoint.stabilizer"] == 2
    assert rec.calls["coadjoint.stabilizer_ideal"] == 1
    assert rec.calls["report.envelope"] == 1
    assert rec.calls["liealg.LieAlgebra.bracket"] > 0
    assert not rec.stack and all(s[3] is not None for s in rec.spans)
    assert _wrapped_objects() == before
    assert cli.stabilizer is original_stabilizer


def test_install_fails_loudly_and_leaves_nothing_wrapped():
    from orbitkit import exactlin
    rref = exactlin.rref
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.install(tracer.Recorder(),
                       {"exactlin": {"functions": ("rref", "no_such_function")}})
    assert exactlin.rref is rref
    with pytest.raises(LookupError, match="no_such_method"):
        tracer.install(tracer.Recorder(),
                       {"liealg": {"methods": {"LieAlgebra": ("no_such_method",)}}})


def _cross_module_uses():
    """{module: names} of functions that another orbitkit module uses."""
    import importlib
    uses = {}
    for path in sorted((SRC / "orbitkit").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    uses.setdefault(node.module, set()).update(a.name for a in node.names)
                else:
                    aliases.update({a.asname or a.name: a.name for a in node.names})
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                uses.setdefault(aliases[node.value.id], set()).add(node.attr)
    functions = {}
    for module_name, names in uses.items():
        module = importlib.import_module(f"orbitkit.{module_name}")
        functions[module_name] = {n for n in names
                                  if inspect.isfunction(getattr(module, n, None))}
    return functions


def test_layers_cover_every_cross_module_function():
    for module, names in _cross_module_uses().items():
        listed = set(tracer.LAYERS.get(module, {}).get("functions", ()))
        listed |= set(tracer.UNWRAPPED.get(module, ()))
        assert names <= listed, (module, sorted(names - listed))


# -- digests ---------------------------------------------------------------------

def test_digest_table_covers_the_digest_ops():
    table = workloads.load_digests()
    assert set(table) == {label for label, _ in workloads.digest_ops()}
    assert all(table[label]["argv"] == argv for label, argv in workloads.digest_ops())


def test_digest_check_accepts_recorded_and_rejects_changed_output():
    table = workloads.load_digests()
    label = "condition-r heisenberg3"
    res = workloads.run_cli(table[label]["argv"])
    assert workloads.digest_problems(table, label, res) == []
    changed = workloads.CliRun(res.exit, res.out.replace('"holds": true', '"holds": false'),
                               res.err)
    assert changed.out != res.out
    assert workloads.digest_problems(table, label, changed)
    assert workloads.digest_problems(table, label, workloads.CliRun(2, res.out, ""))
    assert workloads.digest_problems(table, "no such op", res)


# -- the command -----------------------------------------------------------------

def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pbw",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_printed_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ops = [workloads.Op("sleep", lambda ctx: time.sleep(0.001), lambda r: [])]
    printed = run.end_to_end(ops, 0, run.Tally())
    printed["setup_s"] = (1.0, "s")
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: unit for name, (_, unit) in printed.items()}
    rec = tracer.Recorder()
    rec.close(rec.open("op", tracer.ROOT_LAYER))
    traced = tracer.per_layer_metrics(rec, 1, SimpleNamespace(hits=0, misses=0), 1.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {name: unit for name, (_, unit) in traced.items()}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
