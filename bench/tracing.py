"""Spans at the boundaries between multigamma's modules.

The tracer replaces the module attributes through which one module calls the
next (for example ``multigamma.evaluate.extrapolate``: evaluate looks the name
up in its own globals on every call) with wrappers that record a span: name,
start, end and the span that was open when it began.  Nothing inside the
library changes.  Spans stay in memory until the run ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  Span times are raw CPU seconds from the meter's clock,
which skips the meter's probes (see meter.py).
"""

from __future__ import annotations

import functools
import json

# (module, attribute, span name).  Several attributes may feed one name: the
# CLI and evaluate each hold their own reference to the front door.
BOUNDARIES = (
    ("multigamma.cli", "main", "cli.main"),
    ("multigamma.cli", "log_multigamma", "evaluate.front"),
    ("multigamma.evaluate", "log_multigamma", "evaluate.front"),
    ("multigamma.evaluate", "extrapolate", "evaluate.ladder"),
    ("multigamma.evaluate", "log_multigamma_asymptotic", "evaluate.asymptotic"),
    ("multigamma.evaluate", "barnes_zeta_oracle", "evaluate.oracle"),
    ("multigamma.cli", "multiplication_residual", "evaluate.multiplication"),
    ("multigamma.evaluate", "multiplication_residual", "evaluate.multiplication"),
    ("multigamma.cli", "calibrate_conventions", "evaluate.calibrate"),
    # the CLI's own Euler-vs-Gauss ladder in `verify`
    ("multigamma.cli", "gauss_partial", "evaluate.product"),
    ("multigamma.cli", "euler_partial", "evaluate.product"),
    ("multigamma.cli", "extrapolate", "evaluate.product"),
    ("multigamma.cli", "zeta_prime_neg", "constants.zeta_prime"),
    ("multigamma.evaluate", "zeta_prime_neg", "constants.zeta_prime"),
    ("multigamma.evaluate", "hurwitz_zeta_sderiv", "constants.hurwitz_sderiv"),
    ("multigamma.cli", "check_identities", "exact_poly"),
    ("multigamma.evaluate", "grj_poly", "exact_poly"),
    ("multigamma.evaluate", "binom_poly", "exact_poly"),
    ("multigamma.evaluate", "phi_rj_poly", "exact_poly"),
    ("multigamma.evaluate", "psi_poly", "exact_poly"),
    ("multigamma.evaluate", "composition_counts", "exact_poly"),
)


class Tracer:
    """Installs the boundary wrappers and keeps what they record."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.front: list[tuple] = []  # (r, z, cfg, LogValue) per front-door result
        self._open: list[int] = []
        self._installed: list[tuple] = []

    def _wrap(self, original, name):
        spans, open_spans, front, clock = self.spans, self._open, self.front, self.clock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, open_spans[-1] if open_spans else -1])
            open_spans.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][2] = clock()
            if name == "evaluate.front":
                front.append((args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._installed.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """{name: {"calls": n, "self_s": seconds, "total_s": seconds}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            row["total_s"] += end - start
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
