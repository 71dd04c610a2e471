"""Run every command path that the reach gate counts, under cProfile.

    PYTHONPATH=src:perfbench PYTHONHASHSEED=0 python tests/reach_run.py WORKDIR

The run covers each perfbench/digests.json argv with and without --json,
one seed-1 pass of every benchmark workload with its output checks, and the
error and fallback argv of error_runs().  It prints one JSON object:
"entered", the [file name, first line, qualified name] of every orbitkit
code object that ran, and "problems", each digest, workload check or exit
code that came out wrong.
Profiling starts before orbitkit is imported, so import-time calls count.
"""

import cProfile
import json
import sys
from pathlib import Path

profile = cProfile.Profile()
profile.enable()

import workloads  # noqa: E402  (imports orbitkit.cli)

# the Killing form of x, y under (1 +- i)*a is zero, so nilradical falls
# back to triangularization; the 25-digit prime roots pass the eigenvalue
# search's budget and reach the sympy fallback; f4's orbits are polynomial;
# the stabilizer ideal of b0 in name-clash has a non-unit row that b<index>
# would name b0; ad(a) on jordan has a Jordan block of eigenvalue 1 beside the
# eigenvalue 0, so exp_matrix takes the power of its shifted matrix
ALG_FILES = {
    "bad-rational.alg": "basis a b\nbracket a b = 1/0*b\n",
    "not-jacobi.alg": "basis a b c\nbracket a b = a\nbracket a c = b\n",
    "f4.alg": "basis x1 x2 x3 x4\nbracket x1 x2 = x3\nbracket x1 x3 = x4\n",
    "killing-blind.alg": "basis a x y\nbracket a x = x + y\nbracket a y = -x + y\n",
    "large-roots.alg": ("basis a x y\nbracket a x = y\n"
                        "bracket a y = -3000000000000000000000028000000000000000000000049*x"
                        " + 4000000000000000000000014*y\n"),
    "name-clash.alg": "basis t b0 z\nbracket t b0 = b0\nbracket z b0 = b0\n",
    "jordan.alg": "basis a x y z\nbracket a x = x\nbracket a y = x + y\n",
}


def error_runs(workdir):
    """(argv, exit code) of the usage-error, computation-error and fallback
    paths that no digest or workload op takes."""
    files = {name: str(workdir / name) for name in ALG_FILES}
    return [
        (["frobnicate"], 1),
        (["analyze", "--catalog", "b5", "--file", files["bad-rational.alg"]], 1),
        (["analyze", "--catalog", "abelian0"], 1),
        (["analyze", "--file", str(workdir / "missing.alg")], 1),
        (["analyze", "--file", files["bad-rational.alg"]], 2),
        (["analyze", "--file", files["not-jacobi.alg"]], 2),
        (["analyze", "--file", files["killing-blind.alg"]], 0),
        (["analyze", "--file", files["large-roots.alg"], "--json"], 0),
        (["stabilizer", "--file", files["name-clash.alg"], "--f", "b0=1"], 0),
        (["orbit", "--file", files["jordan.alg"], "--f", "x=1,y=2,z=1"], 0),
        # off a polynomial orbit, past the degree-1 certificates: the search
        # restarts from random points
        (["closure-test", "--file", files["f4.alg"], "--f", "x4=1",
          "--g", "x1=1,x2=3,x3=2,x4=1", "--degree", "1"], 0),
    ]


def main(workdir):
    problems = []
    for name, text in ALG_FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    recorded = workloads.load_digests()
    for label, entry in recorded.items():
        problems += workloads.digest_problems(recorded, label,
                                              workloads.run_cli(entry["argv"]))
        text = workloads.run_cli([a for a in entry["argv"] if a != "--json"])
        if text.exit != entry["exit"]:
            problems.append(f"{label} without --json: exit {text.exit}")
    for name, build in workloads.WORKLOADS.items():
        ctx = {}
        for op in build(1, workdir):
            result = op.run(ctx)
            if op.expect_exit is not None and result.exit != op.expect_exit:
                problems.append(f"{name} {op.label}: exit {result.exit}")
            else:
                problems += [f"{name} {op.label}: {p}" for p in op.check(result)]
    for argv, want in error_runs(workdir):
        res = workloads.run_cli(argv)
        if res.exit != want:
            problems.append(f"{' '.join(argv)}: exit {res.exit}, not {want}")
    profile.disable()
    entered = sorted({(Path(code.co_filename).name, code.co_firstlineno, code.co_qualname)
                      for code in (entry.code for entry in profile.getstats())
                      if not isinstance(code, str)
                      and Path(code.co_filename).parent.name == "orbitkit"})
    print(json.dumps({"entered": entered, "problems": problems}))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
