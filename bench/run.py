"""multigamma benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload eval-small --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src.  Each
workload runs closed-loop in fresh single-threaded Python processes (see
worker.py), so module caches start empty as they do for a new CLI process or
library session.  With --trace 0 the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {end-to-end}}

and with --trace 1 the same object carries the per-layer metrics instead:
a traced pass, an untraced pass of the same inputs (for the tracing
overhead) and the layer microbenchmarks.  The lines before it are the run
report: environment, counts, and every failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("eval-small", "eval-large", "cli-session")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # every run must end within 180 s

HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(RuntimeError):
    """A worker process failed or ran out of time; the run has no result."""


class Workers:
    """Starts worker.py processes one at a time and reads their last line."""

    def __init__(self, args, started: float):
        self.args = args
        self.deadline = started + DEADLINE_S
        src = os.path.abspath("src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def __call__(self, mode: str, trace: int = 0, index: int = 0) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--trace", str(trace),
               "--index", str(index)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no time left for worker {mode}")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=self.env)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {mode} did not finish within the run's time") from None
        finally:  # also on SIGTERM (see main): no worker outlives the run
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"worker {mode} exited {proc.returncode}:\n{err[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])


def _median_latency(ops: list[dict]) -> float:
    """Median time of one operation; failed operations rank as the slowest."""
    ranked = sorted(ops, key=lambda op: (op["failed"], op["t"]))
    mid = len(ranked) // 2
    if len(ranked) % 2:
        return ranked[mid]["t"]
    return (ranked[mid - 1]["t"] + ranked[mid]["t"]) / 2


def _setup_samples(workers: Workers, first: list[float]) -> list[float]:
    samples = list(first)
    while len(samples) < SETUP_SAMPLES:
        samples.append(workers("setup")["setup_s"])
    return samples


def _eval_metrics(workers: Workers, run: dict) -> dict:
    ops = run["ops"]
    good = sum(not op["failed"] for op in ops)
    return {
        "setup_s": (statistics.median(_setup_samples(workers, [run["setup_s"]])), "s"),
        "evals_per_s": (good / run["measured_s"], "1/s"),
        "eval_p50_s": (_median_latency(ops), "s"),
        "session_s": (statistics.median(run["round_s"]), "s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
    }


def _value_ops(sessions: list[dict]) -> list[dict]:
    return [op for s in sessions for op in s["ops"] if op["kind"] in ("eval", "table")]


def _per_value(ops: list[dict]) -> list[dict]:
    """One sample per value printed: an eval, or a table row at its table's mean time.

    A command that failed counts once, as failed.
    """
    return [dict(op, t=op["t"] / max(op["values"], 1))
            for op in ops for _ in range(max(op["values"], 1))]


def _session_metrics(workers: Workers, sessions: list[dict]) -> dict:
    values = _value_ops(sessions)
    return {
        "setup_s": (statistics.median(_setup_samples(workers, [s["setup_s"] for s in sessions])), "s"),
        "evals_per_s": (sum(op["values"] for op in values if not op["failed"])
                        / sum(op["t"] for op in values), "1/s"),
        "eval_p50_s": (_median_latency(_per_value(values)), "s"),
        "session_s": (statistics.median(s["session_s"] for s in sessions), "s"),
        "peak_rss_mib": (statistics.median(s["peak_rss_mib"] for s in sessions), "MiB"),
    }


def _command_report(sessions: list[dict]) -> list[str]:
    """Per-command figures of cli-session: calibrate_s, verify_s, table_rows_per_s."""
    ops = [op for s in sessions for op in s["ops"]]
    lines = []
    for kind in ("calibrate", "verify", "table", "eval", "constants"):
        mine = [op for op in ops if op["kind"] == kind]
        if mine:
            per = statistics.median(op["t"] for op in mine)
            lines.append(f"  {kind:9s} x{len(mine):<3d} median {per:.3f} s")
    tables = [op for op in ops if op["kind"] == "table"]
    rows = sum(op["values"] for op in tables)
    lines.append(f"  table_rows_per_s {rows / sum(op['t'] for op in tables):.3f}")
    return lines


def _layer_metrics(traced: dict, measured: tuple[float, float], plain_s: float,
                   traced_s: float, micro: dict) -> dict:
    """Per-layer metrics; measured is the traced pass's (scaled, raw) seconds.

    Spans hold raw CPU seconds, so a layer's share of the pass is its raw self
    time over the pass's raw time.
    """
    tr = traced["trace"]
    layers = tr["layers"]
    measured_s, measured_raw_s = measured

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def pct(name):
        return 100.0 * layers.get(name, {}).get("self_s", 0.0) / measured_raw_s

    front = calls("evaluate.front")
    out = {name: (value, "1/s") for name, value in micro.items() if "_per_s" in name}
    out.update({
        "evaluate.front.calls": (front, "count"),
        "evaluate.front.busy_pct": (pct("evaluate.front"), "%"),
        "evaluate.front.route_gauss": (tr["route_gauss"], "count"),
        "evaluate.front.route_asymptotic": (tr["route_asymptotic"], "count"),
        "evaluate.front.err_est_over_tol": (tr["err_est_over_tol"], "count"),
        "evaluate.front.err_ratio_max": (tr["err_ratio_max"], "ratio"),
        "evaluate.ladder.sweeps": (calls("evaluate.ladder"), "count"),
        "evaluate.ladder.sweeps_per_front_call": (calls("evaluate.ladder") / max(front, 1), "ratio"),
        "evaluate.asymptotic.calls": (calls("evaluate.asymptotic"), "count"),
        "evaluate.asymptotic.busy_pct": (pct("evaluate.asymptotic"), "%"),
        "evaluate.oracle.calls": (calls("evaluate.oracle"), "count"),
        "evaluate.oracle.busy_pct": (pct("evaluate.oracle"), "%"),
        "evaluate.multiplication.calls": (calls("evaluate.multiplication"), "count"),
        "evaluate.multiplication.busy_pct": (pct("evaluate.multiplication"), "%"),
        "evaluate.calibrate.busy_pct": (pct("evaluate.calibrate"), "%"),
        "evaluate.warnings": (tr["warnings"], "count"),
        "constants.hurwitz_sderiv.calls": (calls("constants.hurwitz_sderiv"), "count"),
        "constants.hurwitz_sderiv.busy_pct": (pct("constants.hurwitz_sderiv"), "%"),
        "constants.zeta_prime.calls": (calls("constants.zeta_prime"), "count"),
        "constants.zeta_prime.busy_pct": (pct("constants.zeta_prime"), "%"),
        "exact_poly.calls": (calls("exact_poly"), "count"),
        "exact_poly.busy_pct": (pct("exact_poly"), "%"),
        "exact_poly.check_identities_s": (micro["exact_poly.check_identities_s"], "s"),
        "cli.commands": (calls("cli.main"), "count"),
        "cli.self_pct": (pct("cli.main"), "%"),
        "trace.measured_s": (measured_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s / plain_s - 1.0), "%"),
    })
    return out


def _common_time(a: list[dict], b: list[dict]) -> tuple[float, float]:
    """Total time of the operations both passes ran (same seed, same order)."""
    n = min(len(a), len(b))
    return sum(op["t"] for op in a[:n]), sum(op["t"] for op in b[:n])


def run(args) -> tuple[list[str], dict, list[dict], dict]:
    """(report lines, metrics, operations, env) of one run."""
    workers = Workers(args, time.monotonic())
    report = []
    if args.workload == "cli-session":
        if args.trace:
            traced = workers("session", trace=1)
            plain = workers("session")
            metrics = _layer_metrics(traced, (traced["session_s"], traced["session_raw_s"]),
                                     plain["session_s"], traced["session_s"], workers("layers"))
            sessions = [traced]
        else:
            sessions, measured = [], 0.0
            while not sessions or measured < args.seconds:
                sessions.append(workers("session", index=len(sessions)))
                measured += sessions[-1]["session_s"]
            metrics = _session_metrics(workers, sessions)
            report.append(f"sessions {len(sessions)}, "
                          f"{sum(s['session_raw_s'] for s in sessions):.2f} s raw CPU; commands:")
            report.extend(_command_report(sessions))
        ops = [op for s in sessions for op in s["ops"]]
        env = sessions[0]["env"]
    else:
        if args.trace:
            traced = workers("eval", trace=1)
            plain = workers("eval")
            traced_s, plain_s = _common_time(traced["ops"], plain["ops"])
            metrics = _layer_metrics(traced, (traced["measured_s"], traced["measured_raw_s"]),
                                     plain_s, traced_s, workers("layers"))
            main = traced
        else:
            main = workers("eval")
            metrics = _eval_metrics(workers, main)
            report.append(f"rounds {len(main['round_s'])}, measured {main['measured_s']:.2f} s "
                          f"scaled, {main['measured_raw_s']:.2f} s raw CPU")
        ops = main["ops"]
        env = main["env"]
    return report, metrics, ops, env


def _describe(op: dict) -> str:
    if "r" in op:
        err = "-" if op["err"] is None else f"{op['err']:.3e}"
        est = "-" if op["err_est"] is None else f"{op['err_est']:.3e}"
        text = (f"r={op['r']} z={op['z']} digits={op['digits']} error={err} "
                f"err_est={est} method={op['method']}")
        if op["known_fault"]:
            text += " (known fault)"
    else:
        text = " ".join(op["argv"]) or op["kind"]
    return text + (f" [{op['error']}]" if op["error"] else "")


def main() -> int:
    parser = argparse.ArgumentParser(description="multigamma benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "multigamma", "__init__.py")):
        print("error: src/multigamma not found; run from the repository root",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        report, metrics, ops, env = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [op for op in ops if op["failed"]]
    unexpected = [op for op in failed if not op.get("known_fault")]
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    print(f"python {env['python']}, mpmath {env['mpmath']} (backend {env['backend']}), "
          f"nproc {os.cpu_count()}")
    for line in report:
        print(line)
    print(f"attempted {len(ops)}, failed {len(failed)} ({len(unexpected)} unexpected)")
    for op in failed:
        print(f"  failed: {_describe(op)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
