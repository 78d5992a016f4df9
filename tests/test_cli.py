"""Command-line interface: exit codes, formats, determinism, round-trips.

Everything runs in-process through main(argv) so exit codes and both output
streams are observable without subprocess overhead.  The wrapped evaluation
machinery is covered elsewhere; here the contract under test is the plumbing:
flag parsing, byte-identical machine output, and the exit-code mapping.
"""

import argparse
import ast
import csv
import importlib
import importlib.util
import io
import json
import math
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import mpmath
import pytest

from multigamma import cli, evaluate
from multigamma.cli import main, parse_z
from fractions import Fraction


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


FAST = ["--precision", "12"]

# calibrate's numeric arbitration is tested in test_evaluate.py; tests of its
# output share one run per configuration
_calibrate_once = lru_cache(maxsize=None)(evaluate.calibrate_conventions)


@pytest.fixture
def calibrate_once(monkeypatch):
    monkeypatch.setattr(cli, "calibrate_conventions", _calibrate_once)


@pytest.fixture(scope="module")
def conventions_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("conv") / "conventions.json"
    code, _, err = run(["calibrate", "--precision", "15",
                        "--conventions", str(path)])
    assert code == 0, err
    return str(path)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def test_parse_z_forms():
    assert parse_z("4") == (Fraction(4), Fraction(0))
    assert parse_z("0.5") == (Fraction(1, 2), Fraction(0))
    assert parse_z("3/2") == (Fraction(3, 2), Fraction(0))
    assert parse_z("-7/3") == (Fraction(-7, 3), Fraction(0))
    assert parse_z("1+1i") == (Fraction(1), Fraction(1))
    assert parse_z("1/2-3/4i") == (Fraction(1, 2), Fraction(-3, 4))
    assert parse_z("2i") == (Fraction(0), Fraction(2))
    assert parse_z("-i") == (Fraction(0), Fraction(-1))
    assert parse_z("1.5e1") == (Fraction(15), Fraction(0))


def test_parse_z_rejects_garbage():
    from multigamma.cli import UsageError
    for bad in ("", "abc", "1+2j+3i", "1/0"):
        with pytest.raises(UsageError):
            parse_z(bad)


def test_usage_errors_exit_1():
    for argv in (
        ["bogus"],
        ["eval", "--r", "1"],                      # missing --z
        ["eval", "--r", "1", "--z", "x"],
        ["eval", "--r", "1", "--z", "1", "--format", "xml"],
        ["table", "--r", "1", "--from", "2", "--to", "1", "--step", "1"],
        ["table", "--r", "1", "--from", "1", "--to", "2", "--step", "0"],
        ["eval", "--r", "1", "--z", "1", "--precision", "2"],
        ["verify", "--suite", "symbolic", "--r-max", "0"],
        ["constants", "--j", "-1,0"],
        # only calibrate and verify take a conventions file
        ["eval", "--r", "1", "--z", "1", "--conventions", "c.json"],
        ["table", "--r", "1", "--from", "1", "--to", "2", "--step", "1",
         "--conventions", "c.json"],
        ["constants", "--conventions", "c.json"],
    ):
        code, _, err = run(argv)
        assert code == 1, argv
        assert err.strip(), argv


def test_usage_errors_past_the_parser_exit_1(tmp_path):
    # values the parser accepts and the commands reject
    not_json = tmp_path / "conventions.json"
    not_json.write_text("not json", encoding="utf-8")
    for argv, message in (
        (["verify", "--suite", "symbolic", "--p", "2,x"], "bad integer list"),
        (["table", "--r", "1", "--from", "1+i", "--to", "2", "--step", "1"], "complex bounds"),
        (["constants", "--j", "-1"], "--j entries must be >= 0"),
        (["verify", "--suite", "symbolic", "--conventions", str(not_json)],
         "cannot read conventions"),
    ):
        code, out, err = run(argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and message in err, argv


def test_empty_list_items_are_usage_errors():
    # an empty item is not dropped: "0,,1" is not the list 0, 1
    for argv in (["constants", "--j", "0,,1"], ["constants", "--j", ","],
                 ["constants", "--j", "0,"], ["constants", "--j", ""],
                 ["verify", "--suite", "numeric", "--r-max", "1", "--p", "2,,3"],
                 ["verify", "--suite", "symbolic", "--p", ",2"]):
        code, out, err = run(argv)
        assert code == 1 and out == "", argv
        assert "empty item" in err, argv
    assert cli.parse_int_list(" 2, 3") == [2, 3]


def test_console_script_entry_exits_with_the_code_of_main(monkeypatch, capsys):
    # pyproject's multigamma script calls entry(), which hands main's code to SystemExit
    for argv, code in ((["constants", "--j", "0"], 0), (["bogus"], 1),
                       (["eval", "--r", "1", "--z", "0"], 2)):
        monkeypatch.setattr("sys.argv", ["multigamma", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == code, argv
    assert "zeta'(0)" in capsys.readouterr().out


def test_non_finite_tolerance_is_a_usage_error():
    # nan compares false with everything and inf passes every residual
    for argv in (["eval", "--r", "2", "--z", "7/3"],
                 ["verify", "--suite", "numeric", "--r-max", "1", "--p", "2"]):
        for tolerance in ("nan", "inf"):
            got = run(argv + ["--tolerance", tolerance] + FAST)
            assert got == (1, "", "error: tolerance must be positive and finite\n"), argv


def test_negative_r_is_a_usage_error():
    for argv in (["eval", "--r", "-1", "--z", "2"],
                 ["table", "--r", "-1", "--from", "1", "--to", "2", "--step", "1"]):
        assert run(argv + FAST) == (1, "", "error: --r must be >= 0\n"), argv


def test_p_below_one_is_a_usage_error():
    for p in ("0", "-2", "2,0"):
        argv = ["verify", "--suite", "symbolic", "--p", p]
        assert run(argv) == (1, "", "error: --p entries must be >= 1\n"), argv


def test_negative_values_after_a_space_parse_like_attached_ones():
    # argparse reads "-7/4" as an option string unless the CLI binds it
    for spaced, attached in (
        (["eval", "--r", "3", "--z", "-7/4"], ["eval", "--r", "3", "--z=-7/4"]),
        (["eval", "--r", "1", "--z", "-1/2+3i"], ["eval", "--r", "1", "--z=-1/2+3i"]),
        (["table", "--r", "1", "--from", "-5/2", "--to", "-1/2", "--step", "1"],
         ["table", "--r", "1", "--from=-5/2", "--to=-1/2", "--step=1"]),
    ):
        code, out, err = run(spaced + FAST)
        assert code == 0, (spaced, err)
        assert run(attached + FAST) == (0, out, err), attached


def test_help_returns_zero():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--help"])
    assert code == 0
    assert "eval" in buf.getvalue() and "calibrate" in buf.getvalue()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_integer_lattice_value():
    code, out, _ = run(["eval", "--r", "2", "--z", "4", "--format", "json"] + FAST)
    assert code == 0
    obj = json.loads(out)
    assert obj["log"]["method"] == "gauss"
    assert abs(float(obj["log"]["re"]) - 0.6931471805599453) < 1e-10
    assert abs(float(obj["value"]["re"]) - 2.0) < 1e-9
    assert obj["log"]["err_est"] is not None


def test_eval_far_out_matches_the_integer_lattice():
    # G_2(200) = prod_{k<=198} k!, where the Richardson-extrapolated product
    # missed the tolerance; the completed product meets it
    code, out, _ = run(["eval", "--r", "2", "--z", "200", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    exact = 1
    for k in range(1, 199):
        exact *= math.factorial(k)
    with mpmath.workdps(40):
        assert obj["log"]["method"] == "gauss"
        assert abs(mpmath.mpf(obj["log"]["re"]) - mpmath.log(exact)) < 1e-8
        assert abs(mpmath.mpf(obj["value"]["re"]) / exact - 1) < 1e-8
        assert obj["log"]["im"] == "0.0"


def test_eval_prints_g_to_the_digits_its_log_holds():
    # |G| err_est bounds G's error, so each part of G prints only the digits
    # that leaves it.  r = 4 at z = 10^5 holds about 9 of 30.
    code, out, _ = run(["eval", "--r", "4", "--z", "100000", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    err_est = float(obj["log"]["err_est"])
    mantissa = obj["value"]["re"].split("e")[0]
    digits = len(mantissa.replace(".", ""))
    assert digits < 30
    # the last digit's unit is not below |G| err_est; one more digit's would be
    assert 10.0 ** (1 - digits) >= float(mantissa) * err_est > 10.0 ** -digits, digits
    with mpmath.workdps(40):
        log_g = mpmath.mpf(obj["log"]["re"])
        got = mpmath.mpf(obj["value"]["re"])
        assert abs(mpmath.log(got) - log_g) < 10 * err_est
    assert obj["value"]["im"] == "0.0"
    # G_0(-1) = exp(i pi) = -1: the imaginary part left by pi's rounding is
    # below |G| err_est and prints as 0
    code, out, _ = run(["eval", "--r", "0", "--z", "-1", "--format", "json"])
    assert code == 0
    assert json.loads(out)["value"] == {"re": "-1.0", "im": "0.0"}


def test_eval_prints_every_digit_of_g_at_an_integer():
    # G_1(20) = 19! and G_2(7) = 1! 2! ... 5!: err_est leaves every digit,
    # and the imaginary part prints as "0.0"
    for r, z, exact in ((1, 20, math.factorial(19)),
                        (2, 7, math.prod(math.factorial(k) for k in range(1, 6)))):
        code, out, _ = run(["eval", "--r", str(r), "--z", str(z), "--format", "json"])
        assert code == 0
        assert json.loads(out)["value"] == {"re": f"{exact}.0", "im": "0.0"}, (r, z)


def test_eval_past_the_float_range_is_not_a_verification_failure():
    # Re z = 10^400: the Hurwitz cutoff once went through a float and
    # overflowed, which eval reported as a verification failure (exit 3).
    code, out, err = run(["eval", "--r", "1", "--z", "1e400+1i", "--format", "json"])
    assert code == 0, err
    obj = json.loads(out)
    with mpmath.workdps(40):
        z = mpmath.mpc(mpmath.mpf(10) ** 400, 1)
        assert obj["log"]["method"] == "zeta"
        assert abs(mpmath.mpf(obj["log"]["re"]) / mpmath.re(mpmath.loggamma(z)) - 1) < 1e-15


@pytest.mark.parametrize("z", ["3", "3+0i"])
def test_eval_gamma_of_three_is_two_to_25_digits(z):
    code, out, _ = run(["eval", "--r", "1", "--z", z, "--precision", "30", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(obj["value"]["re"]) - 2) < 1e-25
        assert abs(mpmath.mpf(obj["value"]["im"])) < 1e-25


def test_eval_at_level_five_reports_a_30_digit_error_estimate():
    code, out, _ = run(["eval", "--r", "5", "--z", "5/2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["log"]["method"] == "gauss"
    assert float(obj["log"]["err_est"]) <= 1e-25


def test_eval_sqrt_pi():
    code, out, _ = run(["eval", "--r", "1", "--z", "0.5", "--format", "json"] + FAST)
    obj = json.loads(out)
    assert code == 0
    assert abs(float(obj["value"]["re"]) - 1.7724538509055160) < 1e-9


def test_eval_singular_exit_2():
    code, _, err = run(["eval", "--r", "2", "--z", "-3"] + FAST)
    assert code == 2
    assert "singular lattice point" in err
    assert "-3" in err


def test_eval_complex_argument():
    code, out, _ = run(["eval", "--r", "1", "--z", "1+1i", "--format", "json"] + FAST)
    assert code == 0
    obj = json.loads(out)
    with mpmath.workdps(20):
        want = mpmath.loggamma(mpmath.mpc(1, 1))
        assert abs(float(obj["log"]["re"]) - float(mpmath.re(want))) < 1e-9
        assert abs(float(obj["log"]["im"]) - float(mpmath.im(want))) < 1e-9


def test_log_value_json_shape():
    code, out, _ = run(["eval", "--r", "1", "--z", "1+1i", "--format", "json"] + FAST)
    assert code == 0
    obj = json.loads(out)["log"]
    assert set(obj) == {"re", "im", "method", "err_est"}
    assert isinstance(obj["re"], str) and isinstance(obj["im"], str)
    float(obj["re"]), float(obj["im"])  # parseable


def test_eval_text_mentions_method_and_error():
    code, out, _ = run(["eval", "--r", "1", "--z", "2"] + FAST)
    assert code == 0
    assert "method" in out and "err_est" in out


@pytest.mark.parametrize("z", ["1-2i", "1+2i"])
def test_eval_text_prints_a_bi_as_parse_z_reads_it(z):
    # a negative imaginary part prints as "a - bi", never "a + -bi"
    _, out, _ = run(["eval", "--r", "1", "--z", z, "--format", "json"] + FAST)
    obj = json.loads(out)
    code, text, _ = run(["eval", "--r", "1", "--z", z] + FAST)
    assert code == 0 and "+ -" not in text
    for line, parts in zip(text.splitlines(), (obj["log"], obj["value"])):
        assert parse_z(line.split(" = ")[1]) == (Fraction(parts["re"]), Fraction(parts["im"]))


def test_front_door_arithmetic_error_exits_3(monkeypatch):
    # a disagreement between the routes is a failed check, not a value
    def disagree(*args, **kwargs):
        raise ArithmeticError("product and zeta routes disagree")

    monkeypatch.setattr(cli, "log_multigamma", disagree)
    code, out, err = run(["eval", "--r", "2", "--z", "7/3"] + FAST)
    assert (code, out) == (3, "")
    assert err.startswith("verification failure: ") and "disagree" in err


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_integer_lattice_pattern():
    code, out, _ = run(["table", "--r", "2", "--from", "1", "--to", "5",
                        "--step", "1", "--format", "csv"] + FAST)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["z"] for row in rows] == ["1.0", "2.0", "3.0", "4.0", "5.0"]
    values = [float(row["log_re"]) for row in rows]
    import math
    for got, want in zip(values, [0.0, 0.0, 0.0, math.log(2), math.log(12)]):
        assert abs(got - want) < 1e-9


def test_table_csv_shape_and_roundtrip():
    code, out, _ = run(["table", "--r", "1", "--from", "0.5", "--to", "2.5",
                        "--step", "0.5", "--format", "csv", "--precision", "15"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z,log_re,log_im,method,err_est"
    assert len(lines) == 6  # header + 5 rows
    # round-trip: parsing and re-rendering the floats at the printed width
    # reproduces the text exactly
    for row in csv.DictReader(io.StringIO(out)):
        reparsed = mpmath.nstr(mpmath.mpf(row["log_re"]), 15)
        assert reparsed == row["log_re"]


def test_table_marks_singular_rows():
    code, out, _ = run(["table", "--r", "1", "--from", "-1", "--to", "1",
                        "--step", "1", "--format", "csv"] + FAST)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["method"] == "singular" and rows[0]["log_re"] == ""
    assert rows[1]["method"] == "singular"
    assert rows[2]["method"] != "singular"


def test_table_json_row_order():
    code, out, _ = run(["table", "--r", "3", "--from", "1", "--to", "3",
                        "--step", "1", "--format", "json"] + FAST)
    assert code == 0
    obj = json.loads(out)
    assert [row["z"] for row in obj["rows"]] == ["1.0", "2.0", "3.0"]


def test_machine_output_is_byte_identical_across_runs():
    argv = ["table", "--r", "2", "--from", "0.5", "--to", "2", "--step", "0.5",
            "--format", "json"] + FAST
    first = run(argv)
    second = run(argv)
    assert first == second
    argv_eval = ["eval", "--r", "1", "--z", "1+1i", "--format", "csv"] + FAST
    assert run(argv_eval) == run(argv_eval)


_CSV_HEADERS = {
    "eval": "r,z,log_re,log_im,value_re,value_im,method,err_est",
    "table": "z,log_re,log_im,method,err_est",
    "verify": "identity,params,residual,pass",
    "calibrate": "anchor,r,p,z,residual",
    "constants": "name,value",
}


def test_every_subcommand_prints_every_format(tmp_path, calibrate_once):
    commands = {
        "eval": ["eval", "--r", "2", "--z", "-5/2+i"],
        "table": ["table", "--r", "1", "--from", "-1", "--to", "1", "--step", "1/2"],
        "verify": ["verify", "--r-max", "1", "--p", "2"],
        "calibrate": ["calibrate", "--conventions", str(tmp_path / "c.json")],
        "constants": ["constants", "--j", "0,1"],
    }
    assert set(commands) == set(cli._DISPATCH)
    for name, argv in commands.items():
        outputs = {}
        for fmt in ("json", "csv", "text"):
            code, out, err = run(argv + ["--format", fmt] + FAST)
            assert code == 0 and err == "", (name, fmt, err)
            outputs[fmt] = out
        assert isinstance(json.loads(outputs["json"]), dict), name
        rows = list(csv.reader(io.StringIO(outputs["csv"])))
        assert ",".join(rows[0]) == _CSV_HEADERS[name], name
        assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}, name
        assert outputs["text"] and outputs["text"] not in (outputs["json"], outputs["csv"]), name


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_symbolic_passes_and_reports():
    code, out, _ = run(["verify", "--suite", "symbolic", "--r-max", "5",
                        "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["suite"] == "symbolic"
    names = {rep["identity"] for rep in obj["reports"]}
    assert "q_equals_signed_psi" in names
    assert "q_reflection" in names
    assert all(rep["residual"] == "exact" for rep in obj["reports"])


def test_identity_report_json_schema():
    code, out, _ = run(["verify", "--suite", "symbolic", "--r-max", "1", "--p", "2",
                        "--format", "json"])
    assert code == 0
    reports = json.loads(out)["reports"]
    for rep in reports:
        assert set(rep) == {"identity", "params", "residual", "pass"}
        assert rep["residual"] == "exact" and rep["pass"] is True
    assert reports[0]["params"] == {"r": 1}
    assert {"r": 1, "p": 2} in [rep["params"] for rep in reports]


def test_verify_numeric_needs_no_conventions_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MULTIGAMMA_CONVENTIONS", raising=False)
    code, out, err = run(["verify", "--suite", "numeric", "--r-max", "1",
                          "--p", "2", "--format", "json"] + FAST)
    assert code == 0, err
    assert json.loads(out)["pass"] is True
    assert list(tmp_path.iterdir()) == []


def test_verify_numeric_with_conventions(conventions_file):
    code, out, _ = run(["verify", "--suite", "numeric", "--r-max", "2",
                        "--p", "2", "--format", "json",
                        "--conventions", conventions_file, "--precision", "15"])
    assert code == 0, out
    obj = json.loads(out)
    assert obj["pass"] is True
    names = {rep["identity"] for rep in obj["reports"]}
    assert names == {"recurrence", "euler_vs_gauss", "log_convexity", "multiplication"}
    for rep in obj["reports"]:
        assert set(rep) == {"identity", "params", "residual", "pass"}


def test_verify_sweeps_one_euler_ladder_per_point(conventions_file, monkeypatch):
    # euler_vs_gauss finds its Gauss products in the memo, filled by the
    # recurrence check's log G_r(z+1) at the same points; each Euler
    # product is one completion at its level, on the memoized Gauss bases.
    # Only completions computed count, not those the memo answers.
    monkeypatch.setattr(evaluate, "_EXTRAP_CACHE", {})
    in_check = []
    completions = []
    real_product, real_completed = cli.product_extrapolated, evaluate._completed

    def marking(*args, **kwargs):
        in_check.append(True)
        try:
            return real_product(*args, **kwargs)
        finally:
            in_check.pop()

    def recording(method, k, zm, cfg):
        if evaluate._extrap_key(method, k, zm, cfg) not in evaluate._EXTRAP_CACHE:
            completions.append((method, bool(in_check)))
        return real_completed(method, k, zm, cfg)

    monkeypatch.setattr(cli, "product_extrapolated", marking)
    monkeypatch.setattr(evaluate, "_completed", recording)
    code, _, err = run(["verify", "--suite", "numeric", "--r-max", "2", "--p", "2",
                        "--conventions", conventions_file] + FAST)
    assert code == 0, err
    assert [method for method, inside in completions if inside] == ["euler"] * 4
    assert [method for method, _ in completions].count("euler") == 4


def count_series_entries(monkeypatch):
    """Count each _log1p_block entry per (prec, dr, di, m), and record the
    shifts at which each shifted lattice (prec, dr, di) builds level 0."""
    built, shifts = Counter(), defaultdict(set)
    real_block, real_entries = evaluate._log1p_block, evaluate._level0_entries

    def counting(ms, dr, di, prec, bits):
        built.update((prec, dr, di, m) for m in ms)
        return real_block(ms, dr, di, prec, bits)

    def recording(zm, cfg, shift, dr, di, series, ms):
        shifts[evaluate._fixed_bits(cfg) + evaluate._SERIES_GUARD, dr, di].add(shift)
        return real_entries(zm, cfg, shift, dr, di, series, ms)

    monkeypatch.setattr(evaluate, "_log1p_block", counting)
    monkeypatch.setattr(evaluate, "_level0_entries", recording)
    return built, shifts


def summed_again_away_from_the_rungs(built, shifts):
    """The entries summed more than once further from every point m = s+1 or
    s+N+1, N = _N, of a shift s their lattice was built at than those shifts
    span: farther than any walk between them reaches, so summed by a sweep."""
    offsets = [1, evaluate._N + 1]
    away = []
    for key, count in built.items():
        held = shifts[key[:3]]
        span = max(held) - min(held)
        if count > 1 and all(abs(key[3] - s - o) > span for s in held for o in offsets):
            away.append(key)
    return away


def test_verify_walks_build_the_half_row_series_once(monkeypatch):
    # The recurrence and Euler-vs-Gauss checks walk 1/2 + Z at r = 1..3:
    # every lattice they sum the series for has d = 1/2, and each argument
    # after the first walks the rung memo's points from the last one, so the
    # series for each m away from the rungs is summed once.  Without the
    # memo each m's entry is summed 16 times.
    monkeypatch.setattr(evaluate, "_EXTRAP_CACHE", {})
    monkeypatch.setattr(evaluate, "_SHIFTED_RUNGS", {})
    built, shifts = count_series_entries(monkeypatch)
    cfg = evaluate.EvalConfig()
    reports = cli.numeric_reports(argparse.Namespace(r_max=3), cfg, [])
    assert {rep["identity"] for rep in reports} == {
        "recurrence", "euler_vs_gauss", "log_convexity"}
    assert all(rep["pass"] for rep in reports)
    prec = evaluate._fixed_bits(cfg) + evaluate._SERIES_GUARD
    assert {key[:3] for key in built} == {(prec, 1 << (prec - 1), 0)}
    # the series runs from m = 16 to the top of the sweeps, 2^11 + 2
    ms = [key[3] for key in built]
    assert min(ms) == 16 and max(ms) >= evaluate._N
    assert summed_again_away_from_the_rungs(built, shifts) == []
    assert sum(built.values()) < 1.05 * len(built)


def test_calibrate_then_verify_build_each_series_entry_once(monkeypatch):
    # calibrate's multiplication residuals cycle through the fractional parts
    # of (z+s)/p, and verify's walk them again: with every lattice kept in
    # the rung memo, each series entry away from the rungs is summed once in
    # the whole session.
    monkeypatch.setattr(evaluate, "_EXTRAP_CACHE", {})
    monkeypatch.setattr(evaluate, "_SHIFTED_RUNGS", {})
    built, shifts = count_series_entries(monkeypatch)
    cfg = evaluate.EvalConfig()
    evaluate.calibrate_conventions(cfg)
    reports = cli.numeric_reports(argparse.Namespace(r_max=3), cfg, [2, 3])
    assert all(rep["pass"] for rep in reports)
    assert summed_again_away_from_the_rungs(built, shifts) == []
    assert sum(built.values()) < 1.05 * len(built)


def test_report_passes_strictly_below_the_tolerance():
    # the same rule as ResidualReport.verdict and calibrate_conventions
    tol = 1e-8
    assert cli._report("x", {}, mpmath.mpf(tol), tol)["pass"] is False
    assert cli._report("x", {}, mpmath.mpf(tol) / 2, tol)["pass"] is True


def test_verify_rejects_a_conventions_file_with_other_signs(conventions_file, tmp_path):
    obj = json.loads(Path(conventions_file).read_text(encoding="utf-8"))
    obj["s_phi"] = 1
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(["verify", "--suite", "numeric", "--r-max", "1", "--p", "2",
                          "--conventions", str(path)] + FAST)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "derived conventions" in err


def test_verify_failure_exits_3(conventions_file):
    # an impossible tolerance forces numeric failures with exit code 3
    code, out, err = run(["verify", "--suite", "numeric", "--r-max", "1",
                          "--p", "2", "--tolerance", "1e-300",
                          "--conventions", conventions_file] + FAST)
    assert code == 3
    assert "first counterexample" in err


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def test_calibrate_writes_idempotent_file(tmp_path):
    path = tmp_path / "conv.json"
    code, out, _ = run(["calibrate", "--precision", "15",
                        "--conventions", str(path)])
    assert code == 0
    assert "s_phi=-1" in out and "s_R=-1" in out
    first = path.read_bytes()
    obj = json.loads(first)
    assert obj["s_phi"] == -1 and obj["s_R"] == -1 and obj["sigma_phi"] == "-1"
    code2, _, _ = run(["calibrate", "--precision", "15",
                       "--conventions", str(path)])
    assert code2 == 0
    assert path.read_bytes() == first


def test_calibrate_into_a_missing_directory_is_a_usage_error(tmp_path, monkeypatch):
    # checked before the calibration runs, not when its file is written
    calls = []
    monkeypatch.setattr(cli, "calibrate_conventions", lambda cfg: calls.append(cfg))
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(["calibrate", "--conventions", str(path)] + FAST)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err
    assert calls == []


def test_calibrate_into_a_directory_is_a_usage_error(tmp_path, monkeypatch):
    # the path names an existing directory: rejected before the calibration
    # runs, not by an IsADirectoryError when its file is written
    calls = []
    monkeypatch.setattr(cli, "calibrate_conventions", lambda cfg: calls.append(cfg))
    code, out, err = run(["calibrate", "--conventions", str(tmp_path)] + FAST)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(tmp_path) in err and "Traceback" not in err
    assert calls == []


def test_calibrate_into_an_unwritable_path_is_a_usage_error(tmp_path, calibrate_once):
    # a file name past the file system's limit passes the checks made before
    # the calibration; the write then fails and is reported, not raised
    path = tmp_path / ("a" * 300 + ".json")
    code, out, err = run(["calibrate", "--conventions", str(path)] + FAST)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write conventions to {str(path)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_calibrate_csv_has_one_row_per_evidence_item(tmp_path, calibrate_once):
    path = tmp_path / "c.json"
    code, out, _ = run(["calibrate", "--conventions", str(path), "--format", "csv"] + FAST)
    assert code == 0
    assert out.splitlines()[0] == "anchor,r,p,z,residual"
    evidence = json.loads(path.read_text(encoding="utf-8"))["evidence"]
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["anchor"] for row in rows] == [item["anchor"] for item in evidence]
    for row, item in zip(rows, evidence):
        assert (int(row["r"]), int(row["p"]), row["z"], float(row["residual"])) == \
            (item["r"], item["p"], item["z"], item["residual"])


def test_calibrate_absurd_tolerance_exits_4(tmp_path):
    code, _, err = run(["calibrate", "--tolerance", "1e-300",
                        "--conventions", str(tmp_path / "c.json")] + FAST)
    assert code == 4
    assert "s_phi" in err  # residual matrix printed


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_known_values():
    code, out, _ = run(["constants", "--precision", "20", "--format", "csv"])
    assert code == 0
    rows = {row["name"]: float(row["value"])
            for row in csv.DictReader(io.StringIO(out))}
    import math
    assert abs(rows["zeta'(0)"] + math.log(2 * math.pi) / 2) < 1e-15
    assert abs(rows["zeta'(-1)"] + 0.16542114370045092921) < 1e-15
    assert abs(rows["zeta'(-2)"] + 0.03044845705839327078) < 1e-15


def test_constants_takes_no_tolerance():
    code, out, err = run(["constants", "--tolerance", "1e-8"])
    assert (code, out) == (1, "")
    assert err.startswith("error: unrecognized arguments: --tolerance")


def test_constants_at_large_j():
    # the direct sum of zeta'(-20) cancels about 30 digits; the pass carries them
    code, out, _ = run(["constants", "--j", "20", "--precision", "10", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"constants": [{"name": "zeta'(-20)", "value": "132.2809975"}]}
    code, out, _ = run(["constants", "--j", "35", "--precision", "10"])
    assert code == 0 and "zeta'(-35)" in out


def test_constants_json_deterministic():
    argv = ["constants", "--j", "0,1,2,3", "--format", "json", "--precision", "25"]
    assert run(argv) == run(argv)


# ---------------------------------------------------------------------------
# Benchmark tracer
# ---------------------------------------------------------------------------


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_tree(name):
    """A bench script's syntax tree: read as text, so nothing is written under bench/."""
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def test_bench_tracer_boundaries_resolve():
    # bench/tracing.py replaces each of these attributes when a traced
    # benchmark run starts; a missing one crashes that run.
    boundaries = next(ast.literal_eval(node.value) for node in _bench_tree("tracing.py").body
                      if isinstance(node, ast.Assign) and node.targets[0].id == "BOUNDARIES")
    for module_name, attr, _ in boundaries:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_bench_imports_from_multigamma_resolve():
    # every name bench/*.py imports from the library, at module level or in a function
    seen = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(_bench_tree(path.name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("multigamma"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    seen.add((node.module, alias.name))
                    assert (hasattr(module, alias.name) or importlib.util.find_spec(
                        f"{node.module}.{alias.name}")), (path.name, node.module, alias.name)
    assert seen
