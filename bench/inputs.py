"""Seeded inputs for the three workloads.

Every workload is a sequence of whole rounds.  A round has a fixed shape (the
same count of operations per (r, digits, kind) cell every time) and draws only
the arguments from the seed, so round cost and the share of failing
operations do not depend on the seed.  No two operations of an eval run share
an argument, at any r: the library memoizes per argument the values of every
level below r, so a shared argument would make an operation cheaper on some
seeds only.

Argument domains lie where the library meets the 1e-8 tolerance with a
margin of at least ten, measured against reference.py:

    eval-small   r = 1, 2: |Re z| <= 12    r = 3: |Re z| <= 9    r = 4: -3 <= Re z <= 4
    eval-large   r = 1: 38 <= |z| <= 56    r = 2: 30 <= |z| <= 40

eval-small stays where the Gauss product's error estimate is below a tenth of
the tolerance, so the front door never runs the asymptotic route; eval-large
stays where it is above it (from |z| of about 33 at r = 1 and 27 at r = 2),
so every operation runs both routes.

Further out the library returns values outside the tolerance without
raising (the fault listed in README.md).  eval-large keeps that fault in view
through FAULT_CASES, fixed arguments that do not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

TOLERANCE = 1e-8  # the library's default accuracy target

# Denominators of drawn arguments; draws that reduce to a dyadic rational
# (the warm-up arguments are dyadic) are drawn again.
_DENOMINATORS = (3, 5, 6, 7, 9, 11, 12, 13)
# cli-session's calibrate and verify evaluate at integers and at multiples of
# 1/4 and 1/6.  Its own arguments use prime denominators, one set per command,
# so that no command finds another's values in the memo.
_TABLE2_DENOMINATORS = (5,)
_TABLE3_DENOMINATORS = (7,)
_EVAL_DENOMINATORS = (11, 13)

EVAL_SMALL_RANGES = {1: (-12, 12), 2: (-12, 12), 3: (-9, 9), 4: (-3, 4)}
EVAL_SMALL_DIGITS = (30, 60)
EVAL_LARGE_RANGES = {1: (38, 56), 2: (30, 40)}
EVAL_LARGE_DIGITS = 30

# (r, first argument, step per round): the failing cases of eval-large.  Each
# round k evaluates z0 + k*step; every argument in the cycle was checked to
# miss the tolerance against the reference, so the failed count is exactly
# len(FAULT_CASES) per round.
FAULT_CASES = ((1, Fraction(1114, 3), Fraction(13)),
               (2, Fraction(200), Fraction(13)),
               (3, Fraction(1333, 3), Fraction(13)))
FAULT_CYCLE = 8


@dataclass(frozen=True)
class EvalOp:
    r: int
    re: Fraction
    im: Fraction
    digits: int
    known_fault: bool = False

    @property
    def z_text(self) -> str:
        """The argument in the CLI's syntax: a, or a+bi with rational parts."""
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


class _Draw:
    """Distinct rational arguments from one seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set = set()

    def rational(self, lo, hi, dyadic_ok: bool = False,
                 denominators=_DENOMINATORS) -> Fraction:
        """A rational in [lo, hi]; not an integer or other dyadic unless dyadic_ok."""
        while True:
            q = self.rng.choice(denominators)
            x = Fraction(self.rng.randint(int(lo * q), int(hi * q)), q)
            if dyadic_ok or x.denominator & (x.denominator - 1):
                return x

    def unique(self, key) -> bool:
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def real(self, r, digits, lo, hi, denominators=_DENOMINATORS) -> EvalOp:
        while True:
            x = self.rational(lo, hi, denominators=denominators)
            if self.unique((x, 0)):
                return EvalOp(r, x, Fraction(0), digits)

    def complex(self, r, digits, lo, hi, im_lo, im_hi, denominators=_DENOMINATORS) -> EvalOp:
        while True:
            x = self.rational(lo, hi, dyadic_ok=True, denominators=denominators)
            y = self.rational(im_lo, im_hi, denominators=denominators)
            if self.rng.random() < 0.5:
                y = -y
            if self.unique((x, y)):
                return EvalOp(r, x, y, digits)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def eval_small_rounds(seed: int):
    """Rounds of 15: for each r = 1..4 a positive rational at 30 digits, a
    negative non-lattice real (at 60 digits; at 30 for r = 2) and a complex
    point with 1/4 <= |Im z| <= 1 (30 digits at odd r, 60 at even r); r = 2
    adds a positive real at 60 digits and r = 3 two more at 30.

    Six calls cost less than the three r = 3 positive reals and six cost
    more, with a clear gap on both sides, so the median call is the middle
    one of three alike and one slow measurement does not move it.  Calls run
    in order of r: the first call at each level and precision extends the
    integer log tables, so a fixed order charges that to the same calls, and
    the peak memory, reached once the tables are full, on every seed.
    """
    draw = _Draw(_rng("eval-small", seed))
    while True:
        ops = []
        for r, (lo, hi) in EVAL_SMALL_RANGES.items():
            for _ in range(3 if r == 3 else 1):
                ops.append(draw.real(r, 30, Fraction(1, 3), hi))
            ops.append(draw.real(r, 30 if r == 2 else 60, lo, Fraction(-1, 3)))
            ops.append(draw.complex(r, 30 if r % 2 else 60, lo, hi, Fraction(1, 4), 1))
            if r == 2:
                ops.append(draw.real(r, 60, Fraction(1, 3), hi))
        yield ops


def eval_large_rounds(seed: int):
    """Rounds of 13: four reals and one complex point with 1 <= |Im z| <= 12
    at each of r = 1 and 2, drawn from the seed, plus one known-fault argument
    for each r = 1..3.  With failed calls ranked slowest, the median call is
    the third of the four r = 2 reals, which cost about the same."""
    rng = _rng("eval-large", seed)
    draw = _Draw(rng)
    k = 0
    while True:
        ops = []
        for r, (lo, hi) in EVAL_LARGE_RANGES.items():
            for _ in range(4):
                ops.append(draw.real(r, EVAL_LARGE_DIGITS, lo, hi))
            ops.append(draw.complex(r, EVAL_LARGE_DIGITS, lo, hi - 4, 1, 12))
        for r, z0, step in FAULT_CASES:
            ops.append(EvalOp(r, z0 + (k % FAULT_CYCLE) * step, Fraction(0),
                              EVAL_LARGE_DIGITS, known_fault=True))
        rng.shuffle(ops)
        k += 1
        yield ops


def warmup_ops(workload: str) -> list[EvalOp]:
    """The calls that fill the library's per-precision state before timing.

    That state is the integer log tables and the asymptotic route's fitted
    constants.  Level 0 of the tables holds 2^14 logs; each level above it
    is a running sum costing about 1% of an eval-small round, left to the
    first call that needs it.  One asymptotic call at r fits the constants of
    every level up to r.  The arguments are dyadic, which rounds never draw.
    """
    if workload == "eval-small":
        return [EvalOp(1, Fraction(7, 2), Fraction(0), d) for d in EVAL_SMALL_DIGITS]
    if workload == "eval-large":
        return [EvalOp(3, Fraction(61, 2), Fraction(0), EVAL_LARGE_DIGITS)]
    raise ValueError(f"no warm-up for workload {workload!r}")


@dataclass(frozen=True)
class Session:
    """One CLI user session; every field is drawn from the seed."""

    table2: tuple[Fraction, Fraction, Fraction]  # from, to, step at r = 2
    table3: tuple[Fraction, Fraction, Fraction]  # from, to, step at r = 3
    evals: tuple[tuple[int, str, int], ...]  # (r, z text, digits)


def session(seed: int, index: int) -> Session:
    """Session number `index` of a run, drawn from a stream of its own."""
    rng = _rng(f"cli-session:{index}", seed)
    draw = _Draw(rng)

    def grid(rows, denominators):
        # a start outside (1/3)Z and a step inside it keep every row off the
        # integers, where the lattice values would make the table trivial
        start = draw.rational(Fraction(1, 3), 2, denominators=denominators)
        step = Fraction(rng.randint(2, 5), 3)
        return start, start + (rows - 1) * step, step

    q = _EVAL_DENOMINATORS
    evals = (
        (1, draw.complex(1, 30, -6, 6, Fraction(1, 4), 1, q).z_text, 30),
        (1, draw.real(1, 60, Fraction(1, 3), 12, q).z_text, 60),
        (2, draw.real(2, 30, Fraction(1, 3), 12, q).z_text, 30),
        (2, str(rng.randint(8, 16)), 30),  # integer: exact lattice value
        (3, draw.real(3, 30, Fraction(1, 3), 9, q).z_text, 30),
        (3, draw.real(3, 60, -9, Fraction(-1, 3), q).z_text, 60),
        (1, draw.real(1, 30, 38, 56, q).z_text, 30),  # asymptotic fallback runs
    )
    return Session(table2=grid(4, _TABLE2_DENOMINATORS), table3=grid(2, _TABLE3_DENOMINATORS),
                   evals=evals)
