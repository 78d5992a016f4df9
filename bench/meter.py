"""Operation timing that holds still on a machine whose CPU changes speed.

Every operation is timed in CPU seconds of the process (time.process_time):
the library is single-threaded, CPU-bound and does no I/O while timed.  On a
shared virtual machine the CPU itself runs faster or slower by up to 2x for
seconds at a time, and CPU time moves with it.  So the meter runs a fixed
mpmath kernel, the probe, at the end of every operation and, through a
SIGPROF timer, after every SAMPLE_EVERY_S of CPU inside it.  Each stretch of
the operation between two probes is rescaled by the mean of those probes:

    scaled = raw * PROBE_REFERENCE_S / mean(probe before, probe after)

Scaled seconds are the seconds the operation takes on a machine that runs the
probe in PROBE_REFERENCE_S.  Probe time is never counted in an operation.
The probe code is fixed and outside the library, so a change to the library
moves `raw` and not the probe.  Both share mpmath, so a different mpmath
backend would move both.  The probe sets and restores mpmath's working
precision with workdps, so interrupting the library leaves its state as it
was.
"""

from __future__ import annotations

import signal
import time

PROBE_LOGS = 3000
PROBE_REFERENCE_S = 0.025  # the probe on an unloaded 2 GHz development machine
SAMPLE_EVERY_S = 0.5


def probe() -> float:
    """CPU seconds of PROBE_LOGS mpmath logs at 40 digits."""
    import mpmath  # not at module level: set-up time includes importing mpmath

    start = time.process_time()
    with mpmath.workdps(40):
        x = mpmath.mpf(3) / 10
        for n in range(1, PROBE_LOGS):
            mpmath.log(n + x)
    return time.process_time() - start


class Meter:
    """Runs operations back to back and keeps raw and scaled totals."""

    def __init__(self):
        self.probe_s = 0.0  # CPU spent in probes, for clocks that must skip it
        probe()  # fills mpmath's constant caches; not a speed sample
        self.first = self._last = probe()
        self._open_at = time.process_time()  # CPU clock when the open stretch began
        self._raw = self._scaled = 0.0  # the current operation's closed stretches
        self.raw_s = self.scaled_s = 0.0
        signal.signal(signal.SIGPROF, self._close_stretch)  # armed only inside run()

    def clock(self) -> float:
        """Process CPU seconds without the probes: the clock for spans."""
        return time.process_time() - self.probe_s

    def _close_stretch(self, *_signal_args) -> None:
        start = time.process_time()
        speed = probe()
        self._raw += start - self._open_at
        self._scaled += (start - self._open_at) * PROBE_REFERENCE_S / ((self._last + speed) / 2)
        self._last = speed
        self._open_at = time.process_time()
        self.probe_s += self._open_at - start

    def run(self, fn, *args):
        """(result, error text, raw s, scaled s); an exception is a failed operation."""
        self._raw = self._scaled = 0.0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._open_at = time.process_time()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # the benchmark records the failure and goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self._close_stretch()
        self.raw_s += self._raw
        self.scaled_s += self._scaled
        return result, error, self._raw, self._scaled

    def scale(self, raw: float) -> float:
        """Scaled seconds of work done before the meter started (the import)."""
        return raw * PROBE_REFERENCE_S / self.first
