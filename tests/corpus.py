"""The behaviour corpus: one table of command lines, each recorded in
golden/corpus.json by its exit code and the sha256 of its stdout and stderr.
`PYTHONPATH=src python tests/corpus.py` runs the table and writes the records
afresh; nothing else writes them.  The pytest replay (test_algfile_cli.py) and
the reach run (reach_run.py) both compare with problems().  Every run starts
with ORBITKIT_SEED unset, in a directory that holds ALG_FILES, and names its
file relatively, so a run that echoes its path can be recorded.  Every run
has the interpreter's default integer string digit limit, whatever the
caller's, since an error message names it."""

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

from reference import CATALOG_NAMES, borel

from orbitkit import cli
from orbitkit.algfile import emit_algebra, parse_algebra

RECORDS = Path(__file__).resolve().parent / "golden" / "corpus.json"

# spectra that take each branch of the eigenspace split: roots +-sqrt(2), the
# roots of t^3 - 2 and +-i*sqrt(2), all outside Q(i), a rotation, Gaussian
# weights (flag entries in Q(i)), a Jordan block beside the eigenvalue 0, a
# Killing form blind to the nilradical (roots (1 +- i)*a), a non-integer
# weight (the closure search's atom exp(s/2)), a nilpotent filiform
# (polynomial orbits), R^2 acting on it by weights (-1, 0, -1, -2) and
# (-1, -1, -2, -3), and b_3 in three basis orders
_B3_NAMES = ["E00", "E01", "E02", "E11", "E12", "E22"]
EIGEN_PATH_FILES = {
    "sqrt2.alg": "basis a x y\nbracket a x = y\nbracket a y = 2*x\n",
    "cbrt2.alg": "basis a x y z\nbracket a x = y\nbracket a y = z\nbracket a z = 2*x\n",
    "i-sqrt2.alg": "basis a x y\nbracket a x = y\nbracket a y = -2*x\n",
    "rotation.alg": "basis a x y\nbracket a x = y\nbracket a y = -x\n",
    "gaussian-weights.alg": ("basis a b x y u v\n"
                             "bracket a x = y\nbracket a y = -x\n"
                             "bracket a u = v\nbracket a v = -u\n"
                             "bracket b x = u + v\nbracket b y = -u + v\n"),
    "jordan.alg": "basis a x y z\nbracket a x = x\nbracket a y = x + y\n",
    "killing-blind.alg": "basis a x y\nbracket a x = x + y\nbracket a y = -x + y\n",
    "half.alg": "basis a b\nbracket a b = 1/2*b\n",
    "f4.alg": "basis x1 x2 x3 x4\nbracket x1 x2 = x3\nbracket x1 x3 = x4\n",
    "r2-f4.alg": ("basis a b x1 x2 x3 x4\n"
                  "bracket a x1 = -x1\nbracket a x3 = -x3\nbracket a x4 = -2*x4\n"
                  "bracket b x1 = -x1\nbracket b x2 = -x2\nbracket b x3 = -2*x3\n"
                  "bracket b x4 = -3*x4\n"
                  "bracket x1 x2 = x3\nbracket x1 x3 = x4\n"),
    "b3.alg": emit_algebra(borel(3)),
    "b3-reversed.alg": emit_algebra(borel(3, _B3_NAMES[::-1])),
    "b3-diagonal-first.alg": emit_algebra(borel(3, sorted(_B3_NAMES,
                                                        key=lambda e: (e[2] > e[1], e)))),
}


def _borel_orders(n):
    """{label: basis order} of b_n: by (i, j), reversed and seeded-shuffled
    for n <= 5; seeded-shuffled alone for b_6."""
    names = list(borel(n).basis_names)
    shuffled = names[:]
    random.Random(f"borel-paths:{n}").shuffle(shuffled)
    return ({"shuffled": shuffled} if n == 6 else
            {"natural": names, "reversed": names[::-1], "shuffled": shuffled})


BOREL_PATH_FILES = {f"b{n}-{label}.alg": emit_algebra(borel(n, order))
                    for n in range(2, 7) for label, order in _borel_orders(n).items()}

# a zero denominator, a bracket that breaks the Jacobi identity, ad(a) with
# 25-digit prime roots (past the eigenvalue search's budget, into the sympy
# fallback), a stabilizer ideal whose non-unit row b<index> would name b0, a
# dim that is not an ASCII integer or has more digits than int() converts,
# and bytes that are not UTF-8
ERROR_FILES = {
    "bad-rational.alg": "basis a b\nbracket a b = 1/0*b\n",
    "not-jacobi.alg": "basis a b c\nbracket a b = a\nbracket a c = b\n",
    "large-roots.alg": ("basis a x y\nbracket a x = y\n"
                        "bracket a y = -3000000000000000000000028000000000000000000000049*x"
                        " + 4000000000000000000000014*y\n"),
    "name-clash.alg": "basis t b0 z\nbracket t b0 = b0\nbracket z b0 = b0\n",
    "dim-superscript-two.alg": "dim \u00b2\nbasis a b\n",
    "dim-5000-digits.alg": f"dim {'1' * 5000}\nbasis a b\n",
    "not-utf8.alg": b"\xff\xfe",
}
ALG_FILES = {**EIGEN_PATH_FILES, **BOREL_PATH_FILES, **ERROR_FILES}

_MODES = ([], ["--json"])
_CATALOG_COMMANDS = [["analyze"], ["stabilizer"], ["condition-r"], ["polarize"], ["orbit"],
                     ["regularity-report", "--seed", "0"],
                     *(["invariants", "--degree", str(d)] for d in range(1, 5))]
# argv that end in a usage error (exit 1) or a computation error (exit 2)
FAILING_RUNS = [["analyze", "--catalog", "abelian0"], ["analyze"],
                ["condition-r", "--catalog", "b5", "--f", "e3=1,e3=2"],
                ["closure-test", "--catalog", "b5", "--g", "e3=1", "--budget", "0"],
                ["regularity-report", "--catalog", "b5", "--seed", "x"],
                ["closure-test", "--catalog", "e2-motion", "--g", "a=0,x=0,y=1"]]


def _both_modes(argvs):
    """{key: argv} of each argv in text mode and with --json, keyed by its
    shell quoting."""
    return {shlex.join(argv + mode): argv + mode for argv in argvs for mode in _MODES}


def _file_runs(names, commands_of, keyed_args):
    """{key: argv} of each command of commands_of(name) on each file name, in
    both modes; a key is the subcommand, the file name, the command's
    arguments if keyed_args, and --json."""
    return {" ".join([command[0], name, *(command[1:] if keyed_args else []), *mode]):
            [command[0], "--file", name, *command[1:], *mode]
            for name in names for command in commands_of(name) for mode in _MODES}


def _eigen_functional(name):
    """1, -2, 3/2, 1/3, -1, 2 on the basis of the file name, in order."""
    basis = parse_algebra(ALG_FILES[name]).basis_names
    return ",".join(f"{e}={v}" for e, v in zip(basis, ["1", "-2", "3/2", "1/3", "-1", "2"]))


def _borel_functional(name):
    """Entries p/q, p in -3..3 and q in 1..3, seeded by the file name."""
    rng = random.Random(name)
    return ",".join(f"{e}={Fraction(rng.randint(-3, 3), rng.randint(1, 3))}"
                    for e in parse_algebra(ALG_FILES[name]).basis_names)


# group -> {key: argv}.  catalog: every subcommand but closure-test on every
# catalog entry (invariants at degree 1..4), closure-test at degree 3 on b5
# with four targets (one the search finds near the orbit, one an exact point
# and two a semi-invariant certifies off it), catalog, and FAILING_RUNS
GROUPS = {"catalog": _both_modes(
    [command[:1] + ["--catalog", name] + command[1:]
     for name in CATALOG_NAMES for command in _CATALOG_COMMANDS]
    + [["closure-test", "--catalog", "b5", "--degree", "3", "--g", g]
       for g in ("e1=3,e0=5", "e1=1,e2=2", "e0=1/3,e3=1", "e1=3,e0=5,e3=1/2")]
    + [["catalog"], *FAILING_RUNS])}
# analyze, regularity-report, invariants at degree 1..3, and orbit and
# polarize at the file's functional
GROUPS["eigen-paths"] = _file_runs(EIGEN_PATH_FILES, lambda name: [
    ["analyze"], ["regularity-report"],
    *([c, "--f", _eigen_functional(name)] for c in ("orbit", "polarize")),
    *(["invariants", "--degree", str(d)] for d in (1, 2, 3))], True)
# analyze, regularity-report --seed 0, and stabilizer, condition-r, polarize
# and orbit at the file's functional; the runs of b3-reversed.alg, an
# eigen-path file too, that both groups make are the eigen-path group's
_BOREL_PATH_RUNS = _file_runs(BOREL_PATH_FILES, lambda name: [
    ["analyze"], ["regularity-report", "--seed", "0"],
    *([c, "--f", _borel_functional(name)]
      for c in ("stabilizer", "condition-r", "polarize", "orbit"))], False)
GROUPS["borel-paths"] = {key: argv for key, argv in _BOREL_PATH_RUNS.items()
                         if key not in GROUPS["eigen-paths"]}
# usage errors (exit 1) and computation errors (exit 2) on the other files
GROUPS["errors"] = _both_modes(
    [["frobnicate"], ["analyze", "--catalog", "b5", "--file", "bad-rational.alg"]]
    + [["analyze", "--file", name] for name in (
        "missing.alg", "not-utf8.alg", "bad-rational.alg", "not-jacobi.alg",
        "dim-superscript-two.alg", "dim-5000-digits.alg")]
    + [["closure-test", "--file", "sqrt2.alg", "--f", "x=1", "--g", "x=2,y=3"]])
# stabilizer and condition-r at each eigen-path file's functional;
# closure-test on half (an exact point through the atom exp(s/2)) and on f4
# off its polynomial orbit, past the degree-1 certificates, where the search
# restarts from random points; the sympy root fallback, the b0 name clash, the
# power of a shifted Jordan block in exp_matrix, and --f "" as the zero
# functional
GROUPS["added"] = _both_modes(
    [[c, "--file", name, "--f", _eigen_functional(name)]
     for name in EIGEN_PATH_FILES for c in ("stabilizer", "condition-r")]
    + [["closure-test", "--file", "half.alg", "--f", "b=1", "--g", g] for g in ("b=2", "b=9/4")]
    + [["closure-test", "--file", "f4.alg", "--f", "x4=1", "--g", "x1=1,x2=3,x3=2,x4=1",
        "--degree", "1"],
       ["analyze", "--file", "large-roots.alg"],
       ["stabilizer", "--file", "name-clash.alg", "--f", "b0=1"],
       ["orbit", "--file", "jordan.alg", "--f", "x=1,y=2,z=1"],
       ["stabilizer", "--catalog", "b5", "--f", ""]])
RUNS = {key: argv for runs in GROUPS.values() for key, argv in runs.items()}


def write_files(workdir):
    for name, text in ALG_FILES.items():
        (Path(workdir) / name).write_bytes(text if isinstance(text, bytes)
                                           else text.encode("utf-8"))


def record_of(code, stdout, stderr):
    """The record of one run: its exit code and the sha256 of each stream."""
    return {"exit": code, "stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
            "stderr": hashlib.sha256(stderr.encode("utf-8")).hexdigest()}


@contextlib.contextmanager
def _default_digit_limit():
    """The interpreter's default integer string digit limit, which the
    records pin through dim-5000-digits.alg, then the caller's limit again."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def replay(runs, workdir):
    """{key: record} of each argv of runs ({key: argv}), run by cli.main in
    workdir, which write_files has filled, with ORBITKIT_SEED unset and the
    default digit limit."""
    got = {}
    with contextlib.chdir(workdir), mock.patch.dict(os.environ), _default_digit_limit():
        os.environ.pop("ORBITKIT_SEED", None)
        for key, argv in runs.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            got[key] = record_of(code, out.getvalue(), err.getvalue())
    return got


def load_records():
    return json.loads(RECORDS.read_text(encoding="utf-8"))


def problems(got, records):
    """'key: what' for each way got ({key: record}, as replay returns) differs
    from records: a changed exit code, stdout or stderr, a run with no record
    and a record with no run."""
    found = [f"{key}: a record with no run" for key in sorted(records.keys() - got.keys())]
    for key, run in got.items():
        want = records.get(key)
        if want is None:
            found.append(f"{key}: a run with no record")
        else:
            found += [f"{key}: {field} {run[field]}, recorded {want[field]}"
                      for field in ("exit", "stdout", "stderr") if run[field] != want[field]]
    return found


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        write_files(workdir)
        records = replay(RUNS, workdir)
    RECORDS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
