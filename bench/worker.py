"""One fresh Python process of the benchmark; run.py starts these.

Modes:
  setup    import plus warm-up, nothing else (extra set-up samples)
  eval     set-up, then whole rounds of an eval workload for --seconds
  session  set-up, then one cli-session through multigamma.cli.main
  layers   the layer microbenchmarks

Each mode prints one JSON object as its last line of standard output.  The
library is imported from src/ of the working directory (run.py sets
PYTHONPATH).  Outputs are checked against reference.py only after the timed
part ends.

Times are CPU seconds rescaled to a fixed machine speed; see meter.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import warnings

import inputs
from meter import Meter

OUT_DIR = ".bench_out"  # scratch space inside the checkout, removed or ignored


def _env() -> dict:
    import platform

    import mpmath

    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "backend": mpmath.libmp.BACKEND}


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _eval_call(evaluate, cfgs):
    """fn(op) -> LogValue: one front-door call, argument made at working precision."""
    import mpmath
    from reference import GUARD_DIGITS, to_mp

    def call(op: inputs.EvalOp):
        with mpmath.workdps(op.digits + GUARD_DIGITS):
            z = to_mp(op.re, op.im)
        return evaluate.log_multigamma(op.r, z, cfgs[op.digits])

    return call


def setup(workload: str):
    """(scaled seconds, raw seconds, library module, call, meter).

    Set-up is the import plus the warm-up calls.  The import runs before the
    meter exists (the meter's probe needs mpmath, which the import loads), so
    it is rescaled by the meter's first probe.
    """
    start = time.process_time()
    if workload == "cli-session":
        from multigamma import cli as module
    else:
        from multigamma import evaluate as module
        from multigamma.constants import Precision
    import_raw = time.process_time() - start
    meter = Meter()
    raw, scaled, call = import_raw, meter.scale(import_raw), None
    if workload != "cli-session":
        cfgs = {d: module.EvalConfig(precision=Precision(digits=d), tolerance=inputs.TOLERANCE)
                for d in (30, 60)}
        call = _eval_call(module, cfgs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for op in inputs.warmup_ops(workload):
                _, _, op_raw, op_scaled = meter.run(call, op)
                raw, scaled = raw + op_raw, scaled + op_scaled
    meter.raw_s = meter.scaled_s = 0.0
    return scaled, raw, module, call, meter


# ---------------------------------------------------------------------------
# Trace summary
# ---------------------------------------------------------------------------


def _front_door_ratios(front) -> tuple[int, float]:
    """(results with err_est over tolerance, max |value - ref| / err_est)."""
    from multigamma.evaluate import EvalConfig
    from reference import log_error, log_multigamma_ref

    over, worst, seen = 0, 0.0, {}
    for args, kwargs, result in front:
        r, z = args[0], args[1]
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg", EvalConfig())
        est = result.err_est
        if est is not None and est > cfg.tolerance:
            over += 1
        if r == 0 or not est:
            continue
        key = (r, repr(z), cfg.precision.digits)
        if key not in seen:
            digits = cfg.precision.digits
            ref = log_multigamma_ref(r, z, digits)
            seen[key] = float(log_error(result.value, ref, digits) / est)
        worst = max(worst, seen[key])
    return over, worst


def _trace_payload(tracer, caught: int) -> dict:
    front = [res for _, _, res in tracer.front]
    over, worst = _front_door_ratios(tracer.front)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{os.getpid()}.jsonl"))
    return {"layers": tracer.summary(),
            "route_gauss": sum(res.method == "gauss" for res in front),
            "route_asymptotic": sum(res.method == "asymptotic" for res in front),
            "err_est_over_tol": over, "err_ratio_max": worst, "warnings": caught}


def _start_tracer(enabled: bool, meter: Meter):
    if not enabled:
        return None
    from tracing import Tracer

    tracer = Tracer(meter.clock)
    tracer.install()
    return tracer


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def mode_setup(args) -> dict:
    scaled, raw, _, _, _ = setup(args.workload)
    return {"setup_s": scaled, "setup_raw_s": raw}


def mode_eval(args) -> dict:
    setup_s, setup_raw_s, _, call, meter = setup(args.workload)
    import checks  # imported before timing starts

    rounds = (inputs.eval_small_rounds if args.workload == "eval-small"
              else inputs.eval_large_rounds)(args.seed)
    tracer = _start_tracer(args.trace, meter)
    done, round_s = [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while not round_s or meter.scaled_s < args.seconds:
            round_start = meter.scaled_s
            for op in next(rounds):
                done.append((op,) + meter.run(call, op))
            round_s.append(meter.scaled_s - round_start)
    rss = _peak_rss_mib()
    if tracer is not None:
        tracer.remove()
    ops = []
    for op, value, error, raw, scaled in done:
        row = checks.check_eval(op, value, error)
        row.update(t=scaled, raw_t=raw)
        ops.append(row)
    payload = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "measured_s": meter.scaled_s,
               "measured_raw_s": meter.raw_s, "round_s": round_s, "ops": ops,
               "peak_rss_mib": rss, "env": _env()}
    if tracer is not None:
        payload["trace"] = _trace_payload(tracer, len(caught))
    return payload


def _session_commands(sess: inputs.Session, conv_path: str) -> list[tuple[str, list[str]]]:
    def table(r, grid):
        start, stop, step = grid
        return ["table", "--r", str(r), "--from", str(start), "--to", str(stop),
                "--step", str(step), "--format", "json"]

    cmds = [
        ("calibrate", ["calibrate", "--conventions", conv_path, "--format", "json"]),
        ("verify", ["verify", "--suite", "all", "--r-max", "3",
                    "--conventions", conv_path, "--format", "json"]),
        ("table", table(2, sess.table2)),
        ("table", table(3, sess.table3)),
    ]
    for r, z, digits in sess.evals:
        # --z=value: argparse would read a leading "-" as the next flag
        cmds.append(("eval", ["eval", "--r", str(r), f"--z={z}",
                              "--precision", str(digits), "--format", "json"]))
    cmds.append(("constants", ["constants", "--j", "0,1,2,3", "--format", "json"]))
    return cmds


def _cli_command(cli):
    """fn(argv) -> (exit code, stdout, stderr) of cli.main, output captured."""
    def command(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return command


def mode_session(args) -> dict:
    default_conv = os.path.abspath("multigamma-conventions.json")
    before = os.stat(default_conv).st_mtime_ns if os.path.exists(default_conv) else None
    setup_s, setup_raw_s, cli, _, meter = setup("cli-session")
    import checks

    sess = inputs.session(args.seed, args.index)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"session-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    conv_path = os.path.join(tmp, "conventions.json")
    command = _cli_command(cli)
    tracer = _start_tracer(args.trace, meter)
    results = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for kind, argv in _session_commands(sess, conv_path):
                results.append((kind, argv) + meter.run(command, argv))
        rss = _peak_rss_mib()
        if tracer is not None:
            tracer.remove()
        ops = []
        for kind, argv, result, error, raw, scaled in results:
            code, out, err = result if result is not None else (error, "", error)
            row = checks.check_command(kind, argv, scaled, code, out, err, conv_path)
            row["raw_t"] = raw
            ops.append(row)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    after = os.stat(default_conv).st_mtime_ns if os.path.exists(default_conv) else None
    if after != before:
        ops.append({"kind": "working tree", "argv": [], "t": 0.0, "raw_t": 0.0, "values": 0,
                    "failed": True, "error": "the session changed ./multigamma-conventions.json"})
    payload = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "session_s": meter.scaled_s,
               "session_raw_s": meter.raw_s, "ops": ops, "peak_rss_mib": rss, "env": _env()}
    if tracer is not None:
        payload["trace"] = _trace_payload(tracer, len(caught))
    return payload


def mode_layers(args) -> dict:
    import layers

    return layers.run()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "eval", "session", "layers"))
    parser.add_argument("--workload", default="eval-small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0)
    args = parser.parse_args()
    mode = {"setup": mode_setup, "eval": mode_eval, "session": mode_session,
            "layers": mode_layers}[args.mode]
    print(json.dumps(mode(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
