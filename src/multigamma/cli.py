"""Command-line front end: evaluation, tables, verification, calibration.

Subcommands: eval, table, verify, calibrate, constants.  All numeric output
carries the method tag and the error estimate — never a bare number.  This
module is the package's only output layer: the library returns plain records
(LogValue, IdentityReport, ConventionSet), and every JSON, csv and text form
of them, the conventions file included, is built here and printed by emit.
Machine formats (json, csv) are byte-deterministic: fixed key order, fixed
digit counts derived from --precision.

Exit codes: 0 ok, 1 usage error (a bad flag or value, or a conventions file
given to verify that does not hold the derived signs), 2 singular input,
3 verification failure, 4 calibration failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import mpmath

from .constants import Precision, zeta_prime_neg
from .evaluate import (
    CalibrationError,
    EvalConfig,
    LogValue,
    SingularInputError,
    calibrate_conventions,
    log_multigamma,
    multiplication_residual,
    product_extrapolated,
)
# Not called here; bench/tracing.py wraps these names on this module and
# fails on a missing one.
from .evaluate import euler_partial, extrapolate, gauss_partial  # noqa: F401
from .exact_poly import DERIVED, ConventionSet, IdentityReport, check_identities

DEFAULT_CONVENTIONS_PATH = "./multigamma-conventions.json"


class UsageError(Exception):
    """Bad flags or bad values: exit code 1."""


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def parse_component(text: str) -> Fraction:
    """One real component: integer, decimal, or n/d rational — kept exact."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse number {text!r}: {exc}") from None


def parse_z(text: str) -> tuple[Fraction, Fraction]:
    """Parse "a", "bi", or "a+bi" with rational components; returns (re, im)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise UsageError("empty z value")
    if s[-1] in "iI":
        body = s[:-1]
        # split real and imaginary at the last sign that is not leading and
        # not part of an exponent
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                re_part, im_part = body[:pos], body[pos:]
                break
        else:
            re_part, im_part = "", body
        if im_part in ("", "+"):
            im_part = "1"
        elif im_part == "-":
            im_part = "-1"
        re_val = parse_component(re_part) if re_part else Fraction(0)
        return re_val, parse_component(im_part)
    return parse_component(s), Fraction(0)


def parse_int_list(text: str) -> list[int]:
    """Comma-separated integers; an empty item is a usage error."""
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise UsageError(f"empty item in integer list {text!r}")
    try:
        return [int(part) for part in parts]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}: {exc}") from None


# Options whose value may begin with "-" (a negative or complex number).
# argparse reads "-7/4" as an option string of its own unless it is attached
# to its option with "=".
_SIGNED_VALUE_OPTIONS = ("--z", "--from", "--to", "--step")


def _bind_signed_values(argv: list[str]) -> list[str]:
    """Rewrite ["--z", "-7/4"] as ["--z=-7/4"] for the options above."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in _SIGNED_VALUE_OPTIONS
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multigamma", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tolerance=True):
        p.add_argument("--precision", type=int, default=30,
                       help="decimal digits (default 30)")
        if tolerance:
            p.add_argument("--tolerance", type=float, default=1e-8)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p_eval = sub.add_parser("eval", help="evaluate log G_r(z) and G_r(z)")
    p_eval.add_argument("--r", type=int, required=True)
    p_eval.add_argument("--z", required=True)
    common(p_eval)

    p_table = sub.add_parser("table", help="tabulate log G_r over a grid")
    p_table.add_argument("--r", type=int, required=True)
    p_table.add_argument("--from", dest="z_from", required=True)
    p_table.add_argument("--to", dest="z_to", required=True)
    p_table.add_argument("--step", required=True)
    common(p_table)

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument("--suite", choices=("symbolic", "numeric", "all"),
                          default="all")
    p_verify.add_argument("--r-max", dest="r_max", type=int, default=4)
    p_verify.add_argument("--p", default="2,3", help="comma list of orders p")
    p_verify.add_argument("--conventions", default=None,
                          help="conventions file that must hold the derived signs")
    common(p_verify)

    p_cal = sub.add_parser("calibrate", help="check and write the derived conventions")
    p_cal.add_argument("--conventions", default=DEFAULT_CONVENTIONS_PATH,
                       help=f"file to write (default {DEFAULT_CONVENTIONS_PATH})")
    common(p_cal)

    p_const = sub.add_parser("constants", help="print zeta'(-j) constants")
    p_const.add_argument("--j", default="0,1,2", help="comma list of j >= 0")
    common(p_const, tolerance=False)

    return parser


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def make_config(args) -> EvalConfig:
    if args.precision < 10:
        raise UsageError("--precision must be at least 10")
    try:
        # constants takes no --tolerance and reads only the precision
        return EvalConfig(precision=Precision(digits=args.precision),
                          tolerance=getattr(args, "tolerance", EvalConfig.tolerance))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def to_mp(zq: tuple[Fraction, Fraction], dps: int):
    with mpmath.workdps(dps):
        re = mpmath.mpf(zq[0].numerator) / zq[0].denominator
        im = mpmath.mpf(zq[1].numerator) / zq[1].denominator
        return re if im == 0 else mpmath.mpc(re, im)


def emit(fmt: str, obj, header: list[str], rows: list[list[str]]) -> None:
    """Print obj as one JSON line (json), or header and rows as csv or as an aligned table.

    A csv cell's commas become semicolons, so every row keeps its columns.
    """
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, separators=(", ", ": ")))
    elif fmt == "csv":
        for row in [header, *rows]:
            print(",".join(cell.replace(",", ";") for cell in row))
    else:
        widths = [max(len(cell) for cell in column) for column in zip(header, *rows)]
        for row in [header, *rows]:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def log_value_obj(lv: LogValue, digits: int) -> dict:
    """A LogValue as printed: its parts to digits significant digits, err_est to 3."""
    return {
        "re": mpmath.nstr(mpmath.re(lv.value), digits),
        "im": mpmath.nstr(mpmath.im(lv.value), digits),
        "method": lv.method,
        "err_est": None if lv.err_est is None else mpmath.nstr(lv.err_est, 3),
    }


def _held_digits(x, err, digits: int) -> str:
    """x to its significant digits, 1..digits, the last one's unit not below the error err."""
    held = mpmath.floor(mpmath.log10(abs(x))) + 1 - mpmath.log10(err) if err and x else digits
    return mpmath.nstr(x if abs(x) >= err else mpmath.mpf(0), max(1, min(digits, int(held))))


def _a_plus_bi(parts: dict) -> str:
    """parts' "re" and "im" as "a + bi", or "a - bi" for a negative b: parse_z reads both."""
    im = parts["im"]
    return f"{parts['re']} - {im[1:]}i" if im.startswith("-") else f"{parts['re']} + {im}i"


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    cfg = make_config(args)
    if args.r < 0:
        raise UsageError("--r must be >= 0")
    zq = parse_z(args.z)
    digits = args.precision
    with mpmath.workdps(cfg.precision.working_dps):
        zm = to_mp(zq, cfg.precision.working_dps)
        log_value = log_multigamma(args.r, zm, cfg)
        g_value = mpmath.exp(log_value.value)
        log = log_value_obj(log_value, digits)
        g_err = abs(g_value) * log_value.err_est  # bounds G's error
        value = {"re": _held_digits(mpmath.re(g_value), g_err, digits),
                 "im": _held_digits(mpmath.im(g_value), g_err, digits)}
    if args.format == "text":
        print(f"log G_{args.r}({args.z}) = {_a_plus_bi(log)}")
        print(f"G_{args.r}({args.z})     = {_a_plus_bi(value)}")
        print(f"method  = {log['method']}")
        print(f"err_est = {log['err_est']}")
    else:
        emit(args.format, {"r": args.r, "z": args.z, "log": log, "value": value},
             ["r", "z", "log_re", "log_im", "value_re", "value_im", "method", "err_est"],
             [[str(args.r), args.z, log["re"], log["im"], value["re"], value["im"],
               log["method"], log["err_est"] or ""]])
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def grid_points(z_from: Fraction, z_to: Fraction, step: Fraction) -> list[Fraction]:
    if step <= 0:
        raise UsageError("--step must be positive")
    points = []
    z = z_from
    while z <= z_to:
        points.append(z)
        z += step
    if not points:
        raise UsageError(f"empty range: from {z_from} to {z_to} step {step}")
    return points


def cmd_table(args) -> int:
    cfg = make_config(args)
    if args.r < 0:
        raise UsageError("--r must be >= 0")
    z_from, im_f = parse_z(args.z_from)
    z_to, im_t = parse_z(args.z_to)
    step, im_s = parse_z(args.step)
    if im_f or im_t or im_s:
        raise UsageError("table ranges are real: complex bounds not supported")
    digits = args.precision
    rows = []
    with mpmath.workdps(cfg.precision.working_dps):
        for zq in grid_points(z_from, z_to, step):
            zm = to_mp((zq, Fraction(0)), cfg.precision.working_dps)
            z_str = mpmath.nstr(zm, digits)
            try:
                log = log_value_obj(log_multigamma(args.r, zm, cfg), digits)
            except SingularInputError:
                rows.append([z_str, "", "", "singular", ""])
                continue
            rows.append([z_str, log["re"], log["im"], log["method"], log["err_est"] or ""])
    header = ["z", "log_re", "log_im", "method", "err_est"]
    emit(args.format, {"r": args.r, "rows": [dict(zip(header, row)) for row in rows]},
         header, rows)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


NUMERIC_GRID = (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))


def _report(identity: str, params: dict, residual, tolerance: float) -> dict:
    ok = residual < tolerance
    return {
        "identity": identity,
        "params": params,
        "residual": mpmath.nstr(residual, 6),
        "pass": bool(ok),
    }


def _identity_report(rep: IdentityReport) -> dict:
    """An exact identity's report: decided exactly, so its residual is "exact"."""
    params = {"r": rep.r}
    if rep.p is not None:
        params["p"] = rep.p
    if rep.witness is not None:
        params["witness"] = rep.witness
    return {"identity": rep.name, "params": params, "residual": "exact", "pass": rep.passed}


def numeric_reports(args, cfg: EvalConfig, p_list: list[int]) -> list[dict]:
    reports = []
    dps = cfg.precision.working_dps
    r_top = max(1, min(args.r_max, 3))
    with mpmath.workdps(dps):
        # recurrence: log G_r(z+1) = log G_{r-1}(z) + log G_r(z)
        for r in range(1, r_top + 1):
            for zq in NUMERIC_GRID:
                zm = to_mp((zq, Fraction(0)), dps)
                lhs = log_multigamma(r, zm + 1, cfg).value
                rhs = log_multigamma(r - 1, zm, cfg).value + log_multigamma(r, zm, cfg).value
                reports.append(_report(
                    "recurrence", {"r": r, "z": str(zq)}, abs(lhs - rhs), cfg.tolerance))
        # cross-route: Euler and Gauss products of the same limit
        for r in range(1, min(r_top, 2) + 1):
            for zq in (Fraction(1, 2), Fraction(3, 2)):
                zm = to_mp((zq, Fraction(0)), dps)
                g = product_extrapolated("gauss", r, zm, cfg)
                e = product_extrapolated("euler", r, zm, cfg)
                rel = abs(g.value - e.value) / max(1, abs(g.value))
                reports.append(_report(
                    "euler_vs_gauss", {"r": r, "z": str(zq)}, rel, cfg.tolerance))
        # convexity: the (r+1)-th forward difference of log G_r(z+1) at
        # integer nodes collapses to log(1+1/z) >= 0
        for r in (1, 2):
            if r > args.r_max:
                continue
            for z0 in (1, 2):
                acc = mpmath.mpf(0)
                for k in range(r + 2):
                    acc += ((-1) ** (r + 1 - k) * math.comb(r + 1, k)
                            * log_multigamma(r, z0 + 1 + k, cfg).value)
                # residual: how far below zero the difference dips
                reports.append(_report(
                    "log_convexity", {"r": r, "z": str(z0)},
                    max(mpmath.mpf(0), -mpmath.re(acc)), cfg.tolerance))
        # multiplication formula
        for r in range(1, min(r_top, 2) + 1):
            for p in p_list:
                for zq in (Fraction(1), Fraction(3, 2)):
                    rep = multiplication_residual(r, p, to_mp((zq, Fraction(0)), dps), cfg)
                    reports.append(_report(
                        "multiplication", {"r": r, "p": p, "z": str(zq)},
                        rep.residual, cfg.tolerance))
    return reports


def conventions_obj(conv: ConventionSet) -> dict:
    """The conventions as calibrate prints them and writes them to its file."""
    return {
        "s_phi": conv.s_phi,
        "sigma_phi": str(conv.sigma_phi),
        "s_R": conv.s_R,
        "status": "resolved",
        "evidence": list(conv.evidence),
    }


def check_conventions_file(path: str) -> None:
    """verify reads a conventions file only to check it holds the derived signs."""
    want = conventions_obj(DERIVED)
    try:
        with open(path, encoding="utf-8") as fh:
            got = json.load(fh)
        ok = all(got[key] == want[key] for key in ("s_phi", "sigma_phi", "s_R"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read conventions from {path!r}: {exc}") from None
    if not ok:
        raise UsageError(f"{path!r} does not hold the derived conventions "
                         "s_phi=-1 sigma_phi=-1 s_R=-1")


def cmd_verify(args) -> int:
    suite = args.suite
    p_list = parse_int_list(args.p)
    if args.r_max < 1:
        raise UsageError("--r-max must be >= 1")
    if any(p < 1 for p in p_list):
        raise UsageError("--p entries must be >= 1")
    if args.conventions is not None:
        check_conventions_file(args.conventions)
    reports: list[dict] = []
    if suite in ("symbolic", "all"):
        reports.extend(map(_identity_report, check_identities(args.r_max, tuple(p_list))))
    if suite in ("numeric", "all"):
        cfg = make_config(args)
        reports.extend(numeric_reports(args, cfg, p_list))

    all_pass = all(rep["pass"] for rep in reports)
    emit(args.format, {"suite": suite, "reports": reports, "pass": all_pass},
         ["identity", "params", "residual", "pass"],
         [[rep["identity"], json.dumps(rep["params"], sort_keys=True), rep["residual"],
           "pass" if rep["pass"] else "FAIL"] for rep in reports])
    if not all_pass:
        first = next(rep for rep in reports if not rep["pass"])
        print(f"first counterexample: {json.dumps(first, sort_keys=True)}",
              file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def cmd_calibrate(args) -> int:
    cfg = make_config(args)
    path = args.conventions
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise UsageError(f"cannot write conventions to {path!r}: "
                         f"no directory {directory!r}")
    if os.path.isdir(path):
        raise UsageError(f"cannot write conventions to {path!r}: it is a directory")
    conventions = conventions_obj(calibrate_conventions(cfg))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(conventions, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write conventions to {path!r}: {exc.strerror or exc}") from None
    evidence = conventions["evidence"]
    if args.format == "text":
        print(f"resolved: s_phi={conventions['s_phi']} sigma_phi={conventions['sigma_phi']} "
              f"s_R={conventions['s_R']}")
        print(f"written : {path}")
        for item in evidence:
            print(f"  {item['anchor']:14s} r={item['r']} p={item['p']} "
                  f"z={item['z']:4s} residual={item['residual']:.3e}")
    else:
        header = ["anchor", "r", "p", "z", "residual"]
        emit(args.format, {"path": path, "conventions": conventions},
             header, [[str(item[key]) for key in header] for item in evidence])
    return 0


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def cmd_constants(args) -> int:
    cfg = make_config(args)
    digits = args.precision
    js = parse_int_list(args.j)
    if any(j < 0 for j in js):
        raise UsageError("--j entries must be >= 0")
    rows = []
    with mpmath.workdps(cfg.precision.working_dps):
        for j in js:
            value = zeta_prime_neg(j, cfg.precision)
            rows.append([f"zeta'({-j})", mpmath.nstr(value, digits)])
    emit(args.format, {"constants": [{"name": name, "value": val} for name, val in rows]},
         ["name", "value"], rows)
    return 0


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------


_DISPATCH = {
    "eval": cmd_eval,
    "table": cmd_table,
    "verify": cmd_verify,
    "calibrate": cmd_calibrate,
    "constants": cmd_constants,
}


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_bind_signed_values(list(argv)))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularInputError as exc:
        print(f"singular lattice point: {exc}", file=sys.stderr)
        return 2
    except CalibrationError as exc:
        print(f"calibration failed:\n{exc}", file=sys.stderr)
        return 4
    except ArithmeticError as exc:  # cross-route disagreement is a failed check
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
