"""Checks of every benchmark output against references computed apart from
multigamma: reference.py for log G_r, mpmath.zeta(-j, 1, 1) for zeta'(-j) and
exact integer products for G_r at positive integers.

An operation fails when it raises, exits with a non-zero code, or returns a
value whose error against the reference exceeds the requested tolerance.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath

import inputs
from reference import (GUARD_DIGITS, integer_lattice, log_error, log_multigamma_ref,
                       to_mp, zeta_prime_ref)

DEFAULT_DIGITS = 30  # the CLI's --precision default


def check_eval(op: inputs.EvalOp, value, error) -> dict:
    """One library call: value is a LogValue, or None when it raised."""
    row = {"r": op.r, "z": op.z_text, "digits": op.digits, "known_fault": op.known_fault,
           "method": None, "err": None, "err_est": None, "error": error}
    if value is not None:
        with mpmath.workdps(op.digits + GUARD_DIGITS):
            ref = log_multigamma_ref(op.r, to_mp(op.re, op.im), op.digits)
        row.update(method=value.method, err=float(log_error(value.value, ref, op.digits)),
                   err_est=None if value.err_est is None else float(value.err_est))
    row["failed"] = value is None or row["err"] > inputs.TOLERANCE
    return row


def _flag(argv: list[str], name: str, default=None):
    for i, item in enumerate(argv):
        if item == name:
            return argv[i + 1]
        if item.startswith(name + "="):
            return item[len(name) + 1:]
    return default


def _parse_z(text: str) -> tuple[Fraction, Fraction]:
    """The CLI's a / a+bi syntax, for the arguments the session itself wrote."""
    if not text.endswith("i"):
        return Fraction(text), Fraction(0)
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    return Fraction(body[:cut]), Fraction(body[cut:])


def _log_error(log_obj: dict, r: int, z, digits: int) -> float:
    with mpmath.workdps(digits + GUARD_DIGITS):
        value = mpmath.mpc(mpmath.mpf(log_obj["re"]), mpmath.mpf(log_obj["im"]))
        return float(log_error(value, log_multigamma_ref(r, z, digits), digits))


def _check_eval_command(argv, payload) -> tuple[int, list[str]]:
    r = int(_flag(argv, "--r"))
    digits = int(_flag(argv, "--precision", DEFAULT_DIGITS))
    re, im = _parse_z(_flag(argv, "--z"))
    problems = []
    with mpmath.workdps(digits + GUARD_DIGITS):
        z = to_mp(re, im)
    err = _log_error(payload["log"], r, z, digits)
    if err > inputs.TOLERANCE:
        problems.append(f"log G_{r}({_flag(argv, '--z')}) off by {err:.3e}")
    if im == 0 and re.denominator == 1 and re >= 1:
        with mpmath.workdps(digits + GUARD_DIGITS):
            exact = integer_lattice(r, int(re))
            got = mpmath.mpf(payload["value"]["re"])
            rel = float(abs(got - exact) / exact)
        if rel > inputs.TOLERANCE or payload["value"]["im"] not in ("0.0", "0"):
            problems.append(f"G_{r}({re}) = {payload['value']['re']}, exact {exact}")
    return 1, problems


def _check_table_command(argv, payload) -> tuple[int, list[str]]:
    r = int(_flag(argv, "--r"))
    digits = int(_flag(argv, "--precision", DEFAULT_DIGITS))
    start, stop, step = (Fraction(_flag(argv, f)) for f in ("--from", "--to", "--step"))
    points = []
    while start + len(points) * step <= stop:
        points.append(start + len(points) * step)
    rows = payload["rows"]
    if len(rows) != len(points):
        return len(rows), [f"table has {len(rows)} rows, expected {len(points)}"]
    problems = []
    for zq, row in zip(points, rows):
        err = _log_error({"re": row["log_re"], "im": row["log_im"]}, r, zq, digits)
        if err > inputs.TOLERANCE or row["method"] not in ("gauss", "asymptotic"):
            problems.append(f"table row z={zq}: error {err:.3e}, method {row['method']}")
    return len(rows), problems


def _check_constants_command(argv, payload) -> tuple[int, list[str]]:
    digits = int(_flag(argv, "--precision", DEFAULT_DIGITS))
    js = [int(j) for j in _flag(argv, "--j").split(",")]
    rows = payload["constants"]
    if [row["name"] for row in rows] != [f"zeta'({-j})" for j in js]:
        return 0, [f"constants rows {[row['name'] for row in rows]}"]
    problems = []
    for j, row in zip(js, rows):
        with mpmath.workdps(digits + GUARD_DIGITS):
            diff = abs(mpmath.mpf(row["value"]) - zeta_prime_ref(j, digits))
        if diff > mpmath.mpf(10) ** (2 - digits):  # printed to `digits` significant digits
            problems.append(f"zeta'({-j}) off by {float(diff):.3e}")
    return 0, problems


def _check_calibrate_command(argv, payload, conv_path) -> tuple[int, list[str]]:
    problems = []
    conv = payload["conventions"]
    if payload["path"] != conv_path:
        problems.append(f"calibrate wrote {payload['path']!r}, asked for {conv_path!r}")
    with open(conv_path, encoding="utf-8") as fh:
        if json.load(fh) != conv:
            problems.append("conventions file differs from the printed conventions")
    if conv["status"] != "resolved" or conv["s_phi"] not in (1, -1) or conv["s_R"] not in (1, -1):
        problems.append(f"conventions not resolved: {conv}")
    worst = max(item["residual"] for item in conv["evidence"])
    if worst > inputs.TOLERANCE:
        problems.append(f"calibration evidence residual {worst:.3e}")
    return 0, problems


_VERIFY_IDENTITIES = {"recurrence", "euler_vs_gauss", "log_convexity", "multiplication"}


def _check_verify_command(argv, payload) -> tuple[int, list[str]]:
    reports = payload["reports"]
    problems = [f"verify failed: {rep}" for rep in reports if not rep["pass"]]
    missing = _VERIFY_IDENTITIES - {rep["identity"] for rep in reports}
    if missing or len(reports) <= len(_VERIFY_IDENTITIES) or not payload["pass"]:
        problems.append(f"verify report incomplete: missing {sorted(missing)}")
    return 0, problems


def check_command(kind, argv, seconds, code, out, err, conv_path) -> dict:
    """One CLI command of a session: exit code, output shape and values."""
    row = {"kind": kind, "argv": argv, "t": seconds, "values": 0, "error": None}
    if code != 0:
        row.update(failed=True, error=f"exit {code}: {err.strip()[:300]}")
        return row
    try:
        payload = json.loads(out)
        if kind == "eval":
            values, problems = _check_eval_command(argv, payload)
        elif kind == "table":
            values, problems = _check_table_command(argv, payload)
        elif kind == "constants":
            values, problems = _check_constants_command(argv, payload)
        elif kind == "calibrate":
            values, problems = _check_calibrate_command(argv, payload, conv_path)
        else:
            values, problems = _check_verify_command(argv, payload)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        values, problems = 0, [f"unreadable output: {type(exc).__name__}: {exc}"]
    row.update(values=values, failed=bool(problems), error="; ".join(problems) or None)
    return row
