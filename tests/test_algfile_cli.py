"""Definition-file grammar, round trips, and the command line surface."""

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import CATALOG_NAMES, GAUSSIAN_WEIGHTS_ALG, borel, draw_basis_change

from orbitkit import cli, symflow
from orbitkit.algfile import emit_algebra, parse_algebra, parse_functional
from orbitkit.catalog import get_entry
from orbitkit.errors import AntisymmetryViolation, ParseError
from orbitkit.liealg import b5

REPO = Path(__file__).resolve().parent.parent
# sha256 of stdout and stderr and the exit code of each _pinned_runs argv
OUTPUT_DIGESTS = REPO / "tests" / "golden" / "catalog-output.json"
# sha256 of stdout and stderr and the exit code of each _eigen_path_runs argv
EIGEN_PATH_DIGESTS = REPO / "tests" / "golden" / "eigen-paths.json"
# sha256 of stdout and stderr and the exit code of each _borel_path_runs argv
BOREL_PATH_DIGESTS = REPO / "tests" / "golden" / "borel-paths.json"


def test_shipped_b5_file_parses_to_catalog_algebra():
    text = (REPO / "demos" / "b5.alg").read_text(encoding="utf-8")
    assert parse_algebra(text) == b5()


def test_roundtrip_whole_catalog():
    for name in CATALOG_NAMES:
        g = get_entry(name).algebra
        assert parse_algebra(emit_algebra(g)) == g


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CATALOG_NAMES), st.data())
def test_roundtrip_after_a_rational_basis_change(name, data):
    h = draw_basis_change(data, get_entry(name).algebra)
    assert parse_algebra(emit_algebra(h)) == h


def test_empty_file_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_algebra("")
    with pytest.raises(ParseError):
        parse_algebra("# nothing but a comment\n")


def test_conflicting_bracket_orders():
    text = "basis e1 e2 e3\nbracket e1 e2 = e3\nbracket e2 e1 = e3\n"
    with pytest.raises(AntisymmetryViolation):
        parse_algebra(text)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_algebra("basis a b\nbracket a b = 1/0x*b\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_algebra("basis a b\nbracket a c = b\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_algebra("dim 2\nbasis a\n")


def test_coefficients_and_signs():
    from fractions import Fraction
    g = parse_algebra(
        "dim 3\nbasis x y z\nbracket x y = 3/2*z - 2*y\n")
    i, j = g.index_of("x"), g.index_of("y")
    assert g.table[i][j][g.index_of("z")] == Fraction(3, 2)
    assert g.table[i][j][g.index_of("y")] == Fraction(-2)


def test_parse_functional():
    from fractions import Fraction
    names = ("d", "e0", "e1", "e2", "e3")
    f = parse_functional("e3=1,e0=2/3", names)
    assert f == (Fraction(0), Fraction(2, 3), Fraction(0), Fraction(0), Fraction(1))
    with pytest.raises(ParseError):
        parse_functional("nope=1", names)
    with pytest.raises(ParseError):
        parse_functional("e3=banana", names)
    with pytest.raises(ParseError, match="duplicate"):
        parse_functional("e3=1,e0=1,e3=2", names)


# -- command line -------------------------------------------------------------

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_CATALOG_COMMANDS = [["analyze"], ["stabilizer"], ["condition-r"], ["polarize"], ["orbit"],
                     ["regularity-report", "--seed", "0"],
                     *(["invariants", "--degree", str(d)] for d in range(1, 5))]
# argv that end in a usage error (exit 1) or a computation error (exit 2)
_FAILING_RUNS = [["analyze", "--catalog", "abelian0"], ["analyze"],
                 ["condition-r", "--catalog", "b5", "--f", "e3=1,e3=2"],
                 ["closure-test", "--catalog", "b5", "--g", "e3=1", "--budget", "0"],
                 ["regularity-report", "--catalog", "b5", "--seed", "x"],
                 ["closure-test", "--catalog", "e2-motion", "--g", "a=0,x=0,y=1"]]


def _pinned_runs():
    """{key: argv} for the catalog runs whose output is pinned, each in text
    mode and with --json: every subcommand but closure-test on every catalog
    entry (invariants at degree 1..4), closure-test at degree 3 on b5 with
    four targets (one the search finds near the orbit, one an exact point
    and two a semi-invariant certifies off it), catalog, and _FAILING_RUNS."""
    runs = [command[:1] + ["--catalog", name] + command[1:]
            for name in CATALOG_NAMES for command in _CATALOG_COMMANDS]
    runs += [["closure-test", "--catalog", "b5", "--degree", "3", "--g", g]
             for g in ("e1=3,e0=5", "e1=1,e2=2", "e0=1/3,e3=1", "e1=3,e0=5,e3=1/2")]
    runs += [["catalog"], *_FAILING_RUNS]
    return {" ".join(argv + mode): argv + mode for argv in runs for mode in ([], ["--json"])}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _replay(capsys, digests, runs, workdir=None):
    """Run each argv of runs and compare its exit code and the sha256 of its
    stdout and stderr with the record of its key in the digests file; a run
    on a file in workdir must not print that directory."""
    pinned = json.loads(digests.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(runs)
    for key, argv in runs.items():
        code, out, err = run_cli(capsys, *argv)
        if workdir is not None:
            assert str(workdir) not in out + err, key
        assert {"exit": code, "stdout": _sha256(out), "stderr": _sha256(err)} == pinned[key], key


def test_catalog_output_matches_its_pinned_digests(monkeypatch, capsys):
    monkeypatch.delenv("ORBITKIT_SEED", raising=False)
    _replay(capsys, OUTPUT_DIGESTS, _pinned_runs())


_B3_NAMES = ["E00", "E01", "E02", "E11", "E12", "E22"]
# algebras whose adjoint spectra take each branch of the eigenspace split:
# roots +-sqrt(2) outside Q(i), the roots of t^3 - 2 and +-i*sqrt(2) outside
# Q(i), a rotation, Gaussian weights, a Jordan block, a Killing form blind to
# the nilradical, a non-integer weight, a nilpotent filiform, R^2 acting on
# it by weights (-1, 0, -1, -2) and (-1, -1, -2, -3), and b_3 in three basis
# orders
EIGEN_PATH_FILES = {
    "sqrt2.alg": "basis a x y\nbracket a x = y\nbracket a y = 2*x\n",
    "cbrt2.alg": "basis a x y z\nbracket a x = y\nbracket a y = z\nbracket a z = 2*x\n",
    "i-sqrt2.alg": "basis a x y\nbracket a x = y\nbracket a y = -2*x\n",
    "rotation.alg": "basis a x y\nbracket a x = y\nbracket a y = -x\n",
    "gaussian-weights.alg": GAUSSIAN_WEIGHTS_ALG,
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


def _eigen_path_runs(workdir):
    """{key: argv} of analyze, invariants at degree 1..3, orbit, polarize and
    regularity-report on each EIGEN_PATH_FILES algebra, in text mode and with
    --json; orbit and polarize at a fixed functional.  A key names the file
    by its name alone."""
    runs = {}
    for name, text in EIGEN_PATH_FILES.items():
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        basis = parse_algebra(text).basis_names
        f = ",".join(f"{e}={v}" for e, v in zip(basis, ["1", "-2", "3/2", "1/3", "-1", "2"]))
        commands = [["analyze"], ["regularity-report"], ["orbit", "--f", f],
                    ["polarize", "--f", f], *(["invariants", "--degree", str(d)] for d in (1, 2, 3))]
        for command in commands:
            for mode in ([], ["--json"]):
                runs[" ".join([command[0], name, *command[1:], *mode])] = [
                    command[0], "--file", str(path), *command[1:], *mode]
    return runs


def test_eigen_paths_match_their_pinned_digests(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("ORBITKIT_SEED", raising=False)
    _replay(capsys, EIGEN_PATH_DIGESTS, _eigen_path_runs(tmp_path), tmp_path)


def _borel_orders(n):
    """{label: basis order} of b_n: by (i, j), reversed and seeded-shuffled
    for n <= 5; seeded-shuffled alone for b_6."""
    names = list(borel(n).basis_names)
    shuffled = names[:]
    random.Random(f"borel-paths:{n}").shuffle(shuffled)
    if n == 6:
        return {"shuffled": shuffled}
    return {"natural": names, "reversed": names[::-1], "shuffled": shuffled}


def _borel_path_runs(workdir):
    """{key: argv} of analyze, stabilizer, condition-r, polarize, orbit and
    regularity-report --seed 0 on b_2..b_6 (three basis orders each, one for
    b_6), in text mode and with --json; the commands that take a functional
    get one seeded per file, with entries p/q, p in -3..3 and q in 1..3."""
    runs = {}
    for n in range(2, 7):
        for label, order in _borel_orders(n).items():
            name = f"b{n}-{label}.alg"
            path = workdir / name
            path.write_text(emit_algebra(borel(n, order)), encoding="utf-8")
            rng = random.Random(name)
            f = ",".join(f"{e}={Fraction(rng.randint(-3, 3), rng.randint(1, 3))}"
                         for e in order)
            commands = [["analyze"], ["regularity-report", "--seed", "0"],
                        *([c, "--f", f] for c in ("stabilizer", "condition-r", "polarize",
                                                  "orbit"))]
            for command in commands:
                for mode in ([], ["--json"]):
                    runs[" ".join([command[0], name, *mode])] = [
                        command[0], "--file", str(path), *command[1:], *mode]
    return runs


def test_borel_paths_match_their_pinned_digests(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("ORBITKIT_SEED", raising=False)
    _replay(capsys, BOREL_PATH_DIGESTS, _borel_path_runs(tmp_path), tmp_path)


def test_cli_catalog_lists_entries(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    for name in ("b5", "heisenberg3", "axb", "g49_0", "e2-motion"):
        assert name in out


def test_cli_analyze_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--catalog", "b5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "orbitkit-report/1"
    result = payload["result"]
    assert result["dim"] == 5
    assert result["nilpotent"] is False
    assert result["exponential"]["kind"] == "exponential"
    assert result["nilradical"]["dim"] == 3


def test_cli_orbit_displays_components(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--catalog", "b5")
    assert code == 0
    assert "e0: f0 - x1*x2" in out
    assert "e1: x2*exp(t)" in out
    assert "e2: -x1*exp(-s-t)" in out
    assert "e3: exp(-s)" in out


def test_cli_regularity_report(capsys):
    code, out, _ = run_cli(capsys, "regularity-report", "--catalog", "heisenberg3")
    assert code == 0
    assert "star-regular" in out
    code, out, _ = run_cli(capsys, "regularity-report", "--catalog", "b5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["verdict"] == "condition-R-fails"
    values = payload["result"]["certificate"]["values_on_stable_term"]
    assert values == ["0", "0", "1"]


def test_cli_closure_test_certificate(capsys):
    code, out, _ = run_cli(capsys, "closure-test", "--catalog", "b5",
                           "--g", "e1=1,e2=2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["kind"] == "not-in-closure"
    assert payload["result"]["invariant_value"] == "-2"


def test_cli_json_is_byte_identical_across_runs(capsys):
    args = ("closure-test", "--catalog", "b5", "--g", "e1=3,e0=5",
            "--seed", "11", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    args = ("regularity-report", "--catalog", "b5", "--seed", "4", "--json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_cli_file_input(tmp_path, capsys):
    path = tmp_path / "h3.alg"
    path.write_text("basis e1 e2 e3\nbracket e1 e2 = e3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "regularity-report", "--file", str(path))
    assert code == 0
    assert "star-regular" in out


def test_cli_stabilizer_ideal_names_avoid_the_basis_names(tmp_path, capsys):
    # m = span(t - z, b0): the non-unit row must not be named b0 as well
    path = tmp_path / "clash.alg"
    path.write_text("basis t b0 z\nbracket t b0 = b0\nbracket z b0 = b0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "stabilizer", "--file", str(path), "--f", "b0=1", "--json")
    assert code == 0
    names = json.loads(out)["result"]["stabilizer_ideal_basis_names"]
    assert len(names) == 2 and len(set(names)) == 2 and "b0" in names


@pytest.mark.parametrize("argv", _FAILING_RUNS, ids=" ".join)
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_failing_runs_write_nothing_to_stdout(capsys, argv, mode):
    code, out, err = run_cli(capsys, *argv, *mode)
    assert code in (1, 2) and out == "" and err


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "analyze", "--catalog", "abelian0")
    assert code == 1 and err == "orbitkit: error: no catalog entry named 'abelian0'\n"
    code, _, err = run_cli(capsys, "analyze")
    assert code == 1
    code, _, err = run_cli(capsys, "stabilizer", "--catalog", "b5", "--f", "zzz=1")
    assert code == 1
    code, out, err = run_cli(capsys, "condition-r", "--catalog", "b5", "--f", "e3=1,e3=2")
    assert code == 1 and out == "" and "duplicate component 'e3'" in err
    # a computation error: no rational composition series exists here
    code, _, err = run_cli(capsys, "polarize", "--catalog", "e2-motion")
    assert code == 2
    assert err.strip()


def test_cli_empty_f_is_the_zero_functional(capsys):
    # an explicit --f "" is the zero functional, not "no --f"
    code, out, _ = run_cli(capsys, "stabilizer", "--catalog", "b5", "--f", "", "--json")
    result = json.loads(out)["result"]
    assert code == 0 and result["functional"] == {} and result["form_rank"] == 0
    code, _, err = run_cli(capsys, "stabilizer", "--file", str(REPO / "demos" / "b5.alg"),
                           "--f", "")
    assert code == 0, err


@pytest.mark.parametrize("dim", ["\u00b2", "1" * 5000], ids=["superscript-two", "5000-digits"])
def test_dim_that_is_not_an_ascii_integer_is_a_parse_error(tmp_path, capsys, dim):
    text = f"dim {dim}\nbasis a b\n"
    with pytest.raises(ParseError) as err:
        parse_algebra(text)
    assert (err.value.line, err.value.col) == (1, 1)
    path = tmp_path / "dim.alg"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", "--file", str(path))
    assert code == 2 and out == "" and "line 1" in err and "dim" in err
    if 0 < _DIGIT_LIMIT < len(dim):
        assert "digits" in err


def test_cli_seed_environment(monkeypatch):
    monkeypatch.setenv("ORBITKIT_SEED", "9")
    parser = cli.build_parser()
    args = parser.parse_args(["regularity-report", "--catalog", "b5"])
    assert args.seed == 9


def test_cli_main_calls_share_one_parser(monkeypatch, capsys):
    # a seed value of its own, so no parser from another test is reused
    monkeypatch.setenv("ORBITKIT_SEED", "4242")
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    assert run_cli(capsys, "catalog")[0] == 0
    first = len(built)
    assert first and run_cli(capsys, "closure-test", "--catalog", "b5", "--seed", "x")[0] == 1
    assert len(built) == first


def test_abelian_entries_are_built_once_per_process(monkeypatch, capsys):
    assert get_entry("abelian3") is get_entry("abelian3")
    first = run_cli(capsys, "orbit", "--catalog", "abelian3", "--json")
    calls = []
    exp_matrix = symflow.exp_matrix

    def counting(*args):
        calls.append(args)
        return exp_matrix(*args)

    monkeypatch.setattr(symflow, "exp_matrix", counting)
    assert run_cli(capsys, "orbit", "--catalog", "abelian3", "--json") == first
    assert first[0] == 0 and not calls


# -- bad input ends in exit 1 or 2, never in a traceback -----------------------

def test_zero_denominator_in_a_file_is_a_positioned_parse_error():
    with pytest.raises(ParseError) as err:
        parse_algebra("basis a b\nbracket a b = 1/0*b\n")
    assert (err.value.line, err.value.col) == (2, 14)


def test_zero_denominator_in_a_functional_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_functional("e3=1/0", ("e0", "e3"))


def test_cli_zero_denominator_in_f_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "stabilizer", "--catalog", "b5", "--f", "e3=1/0")
    assert code == 1 and "bad rational" in err


def test_cli_closure_test_without_g_is_a_usage_error(tmp_path, capsys):
    # the orbit cannot be built (the spectrum leaves Q(i)), so --g is checked first
    path = tmp_path / "cubic.alg"
    path.write_text("basis a x y z\nbracket a x = y\nbracket a y = z\n"
                    "bracket a z = 2*x\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "closure-test", "--file", str(path), "--f", "x=1")
    assert code == 1 and out == "" and "--g is required" in err


def test_cli_zero_denominator_in_g_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "closure-test", "--catalog", "b5", "--g", "e3=1/0")
    assert code == 1 and "bad rational" in err


def test_cli_zero_denominator_in_a_file_is_a_computation_error(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("basis a b\nbracket a b = 1/0*b\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "--file", str(path))
    assert code == 2 and "line 2" in err


# a literal with more digits than Python converts from a string (0 means no limit)
_DIGIT_LIMIT = sys.get_int_max_str_digits()
_TOO_LONG = "1" * (_DIGIT_LIMIT + 1)
needs_digit_limit = pytest.mark.skipif(not _DIGIT_LIMIT, reason="no digit limit")


@needs_digit_limit
@pytest.mark.parametrize("argv", [
    ("condition-r", "--catalog", "b5", "--f", "e3=" + _TOO_LONG),
    ("condition-r", "--catalog", "b5", "--f", "e3=1/" + _TOO_LONG),
    ("closure-test", "--catalog", "b5", "--g", "e3=" + _TOO_LONG),
], ids=["f-numerator", "f-denominator", "g"])
def test_cli_rational_beyond_the_digit_limit_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "digits" in err


@needs_digit_limit
def test_rational_beyond_the_digit_limit_in_a_file_is_a_parse_error(tmp_path, capsys):
    with pytest.raises(ParseError) as err:
        parse_algebra(f"basis a b\nbracket a b = {_TOO_LONG}*b\n")
    assert (err.value.line, err.value.col) == (2, 14)
    path = tmp_path / "long.alg"
    path.write_text(f"basis a b\nbracket a b = 1/{_TOO_LONG}*b\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", "--file", str(path))
    assert code == 2 and out == "" and "line 2" in err and "digits" in err


@needs_digit_limit
def test_cli_tol_exponent_at_the_digit_limit_is_a_usage_error(monkeypatch, capsys):
    # 10^-k prints with k + 1 digits, so k = limit - 1 is the largest that reports
    k = _DIGIT_LIMIT - 1
    code, out, err = run_cli(capsys, "closure-test", "--catalog", "heisenberg3",
                             "--g", "e1=2,e3=1", "--json", "--tol-exponent", str(k))
    assert code == 0, err
    assert json.loads(out)["result"]["tolerance"] == "1/1" + "0" * k

    def no_load(args):
        raise AssertionError("the algebra was loaded")

    monkeypatch.setattr(cli, "_load", no_load)
    code, out, err = run_cli(capsys, "closure-test", "--catalog", "heisenberg3",
                             "--g", "e1=2,e3=1", "--json", "--tol-exponent", str(k + 1))
    assert code == 1 and out == "" and "--tol-exponent" in err


def test_cli_negative_tol_exponent_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "closure-test", "--catalog", "b5", "--g", "e3=1",
                           "--tol-exponent", "-3")
    assert code == 1 and "--tol-exponent" in err


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_cli_nonpositive_degree_is_a_usage_error(capsys, degree):
    code, out, err = run_cli(capsys, "invariants", "--catalog", "b5", "--degree", degree)
    assert code == 1 and out == "" and "--degree" in err


def test_cli_zero_budget_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "closure-test", "--catalog", "b5", "--g", "e3=1",
                             "--budget", "0")
    assert code == 1 and out == "" and "--budget" in err


def test_cli_non_integer_seed_environment_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("ORBITKIT_SEED", "seven")
    code, out, err = run_cli(capsys, "regularity-report", "--catalog", "b5")
    assert code == 1 and out == "" and "'seven'" in err
    # commands without a seed do not read it
    code, _, _ = run_cli(capsys, "analyze", "--catalog", "b5")
    assert code == 0


def test_cli_closure_test_on_orbit_target_without_compiled_search(capsys):
    # the e2-motion orbit has complex exponents, which the closure search
    # rejects before any evaluation: a computation error, not a crash
    code, out, err = run_cli(capsys, "closure-test", "--catalog", "e2-motion",
                             "--g", "a=0,x=0,y=1")
    assert code == 2 and out == ""
    assert err.startswith("orbitkit: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [["invariants"], ["closure-test", "--g", "e1=3,e0=5"]])
def test_an_unbounded_degree_is_refused_before_any_monomial_is_listed(capsys, command):
    # b5 at degree 10^9 has C(10^9 + k, k) - 1 monomials: listing them all
    # first would fill memory long before the search read one
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command[0], "--catalog", "b5", *command[1:],
                             "--degree", "1000000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "monomials" in err and "Traceback" not in err


def test_cli_closure_test_at_the_orbit_start_needs_no_search(capsys):
    # the start is an exact point even where the search cannot run
    code, out, err = run_cli(capsys, "closure-test", "--catalog", "e2-motion",
                             "--g", "a=0,x=1,y=0", "--json")
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert (result["kind"], result["evaluations"], result["squared_distance"]) == (
        "exact-point", 0, "0")
    assert set(result["assignment"].values()) == {"0"}
    assert set(result["exp_atoms"].values()) == {"1"}


@pytest.mark.parametrize("target", ["b=2", "b=9/4"])
def test_cli_closure_test_with_fractional_exponents(tmp_path, capsys, target):
    # the orbit component exp(-s/2) is searched through the atom exp(s/2)
    path = tmp_path / "half.alg"
    path.write_text("basis a b\nbracket a b = 1/2*b\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "closure-test", "--file", str(path), "--f", "b=1",
                             "--g", target, "--json")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["kind"] == "exact-point"
    # exp_atoms reports exp(s) itself
    b = Fraction(target.partition("=")[2])
    assert [Fraction(x) for x in result["exp_atoms"].values()] == [1 / b ** 2]


_FUNCTIONALS = st.sampled_from(["", "x", "0", "1/0", "=", ",", "zz=1", "e1=1,e1=2",
                                "e3=1", "e1=1/2,e2=-1", "e1=0", "a=1,b=1/2", "b=-1",
                                "a=0", "a=0,x=1,y=0", "x=1/3,y=1", "b=1.5"])
_VALUES = {"--f": _FUNCTIONALS, "--g": _FUNCTIONALS,
           "--degree": st.sampled_from(["1", "2", "0", "-1", "x"]),
           "--budget": st.sampled_from(["1", "40", "0", "x"])}
_OPTIONS = {"analyze": (), "stabilizer": ("--f",), "condition-r": ("--f",),
            "polarize": ("--f",), "orbit": ("--f",), "invariants": ("--degree",),
            "closure-test": ("--f", "--g", "--degree", "--budget"),
            "regularity-report": ("--f",)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cli_argv_fuzz_never_tracebacks(data):
    command = data.draw(st.sampled_from(sorted(_OPTIONS)), label="command")
    argv = [command, "--catalog",
            data.draw(st.sampled_from(["axb", "heisenberg3", "e2-motion", "abelian2",
                                       "nope"]), label="catalog")]
    # mostly the command's own options, sometimes one it does not take
    flags = _OPTIONS[command] + data.draw(st.sampled_from(((),) * 4 + (("--g",),)))
    for flag in flags:
        if data.draw(st.booleans(), label=flag):
            argv += [flag, data.draw(_VALUES[flag], label=flag + " value")]
    if data.draw(st.booleans(), label="--json"):
        argv.append("--json")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
