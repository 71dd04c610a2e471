"""Definition-file grammar, round trips, and the command line surface."""

import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import corpus
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import CATALOG_NAMES, draw_basis_change

from orbitkit import cli, symflow
from orbitkit.algfile import emit_algebra, parse_algebra, parse_functional
from orbitkit.catalog import get_entry
from orbitkit.errors import AntisymmetryViolation, ParseError
from orbitkit.liealg import b5

REPO = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize("group", corpus.GROUPS)
def test_the_corpus_replays(alg_dir, group):
    runs, records = corpus.GROUPS[group], corpus.load_records()
    assert corpus.problems(corpus.replay(runs, alg_dir),
                           {key: records[key] for key in runs if key in records}) == []


def test_the_replay_flags_each_changed_byte_and_each_unmatched_key():
    text, as_json = "condition (R) at f: holds\n", '{"holds": true}\n'
    failed = "orbitkit: line 2, col 14: bad rational '1/0'\n"
    records = {"text": corpus.record_of(0, text, ""), "json": corpus.record_of(0, as_json, ""),
               "failed": corpus.record_of(2, "", failed)}
    assert corpus.problems(records, records) == []
    changed = {"text": corpus.record_of(0, text.replace("holds", "holdS"), ""),
               "json": corpus.record_of(0, as_json.replace("true", "frue"), ""),
               "failed": corpus.record_of(2, "", failed.replace("14", "15"))}
    assert [p.split()[:2] for p in corpus.problems(changed, records)] == [
        ["text:", "stdout"], ["json:", "stdout"], ["failed:", "stderr"]]
    exit_1 = {**records, "failed": corpus.record_of(1, "", failed)}
    assert corpus.problems(exit_1, records) == ["failed: exit 1, recorded 2"]
    extra = {**records, "new": records["text"]}
    assert corpus.problems(extra, records) == ["new: a run with no record"]
    assert corpus.problems(extra, {**records, "gone": records["text"]}) == [
        "gone: a record with no run", "new: a run with no record"]


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


def test_cli_stabilizer_ideal_names_avoid_the_basis_names(alg_dir, capsys):
    # m = span(t - z, b0): the non-unit row must not be named b0 as well
    code, out, _ = run_cli(capsys, "stabilizer", "--file", str(alg_dir / "name-clash.alg"),
                           "--f", "b0=1", "--json")
    assert code == 0
    names = json.loads(out)["result"]["stabilizer_ideal_basis_names"]
    assert len(names) == 2 and len(set(names)) == 2 and "b0" in names


@pytest.mark.parametrize("argv", corpus.FAILING_RUNS, ids=" ".join)
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


@pytest.mark.parametrize("label", ["superscript-two", "5000-digits"])
def test_dim_that_is_not_an_ascii_integer_is_a_parse_error(alg_dir, capsys, label):
    name = f"dim-{label}.alg"
    dim = corpus.ALG_FILES[name].split()[1]
    with pytest.raises(ParseError) as err:
        parse_algebra(corpus.ALG_FILES[name])
    assert (err.value.line, err.value.col) == (1, 1)
    code, out, err = run_cli(capsys, "analyze", "--file", str(alg_dir / name))
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
        parse_algebra(corpus.ALG_FILES["bad-rational.alg"])
    assert (err.value.line, err.value.col) == (2, 14)


def test_zero_denominator_in_a_functional_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_functional("e3=1/0", ("e0", "e3"))


def test_cli_zero_denominator_in_f_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "stabilizer", "--catalog", "b5", "--f", "e3=1/0")
    assert code == 1 and "bad rational" in err


def test_cli_closure_test_without_g_is_a_usage_error(alg_dir, capsys):
    # the orbit cannot be built (the spectrum leaves Q(i)), so --g is checked first
    code, out, err = run_cli(capsys, "closure-test", "--file", str(alg_dir / "cbrt2.alg"),
                             "--f", "x=1")
    assert code == 1 and out == "" and "--g is required" in err


def test_cli_zero_denominator_in_g_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "closure-test", "--catalog", "b5", "--g", "e3=1/0")
    assert code == 1 and "bad rational" in err


def test_cli_zero_denominator_in_a_file_is_a_computation_error(alg_dir, capsys):
    code, _, err = run_cli(capsys, "analyze", "--file", str(alg_dir / "bad-rational.alg"))
    assert code == 2 and "line 2" in err


@pytest.mark.parametrize("name", ["missing.alg", "not-utf8.alg"])
def test_cli_file_that_cannot_be_read_is_a_usage_error(alg_dir, capsys, name):
    # bytes that are not UTF-8 end like a missing file: exit 1, not a traceback
    path = alg_dir / name
    code, out, err = run_cli(capsys, "analyze", "--file", str(path))
    assert (code, out) == (1, "") and err.startswith(f"orbitkit: error: cannot read {path}: ")


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
def test_cli_closure_test_with_fractional_exponents(alg_dir, capsys, target):
    # the orbit component exp(-s/2) is searched through the atom exp(s/2)
    code, out, err = run_cli(capsys, "closure-test", "--file", str(alg_dir / "half.alg"),
                             "--f", "b=1", "--g", target, "--json")
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
