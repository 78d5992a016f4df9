"""Numeric evaluation of the Vigneras hierarchy G_r(z).

Three routes are implemented and cross-checked:

* the Gauss infinite product for log G_r(z+1), truncated at N and Richardson-
  extrapolated over a doubling ladder (the truncation error has a pure 1/N
  power expansion, so the ladder is valid at every r);
* the Euler factor-by-factor rearrangement of the same product (identical
  limit, different accumulation order — kept separate as a cross-check);
* the Hurwitz-zeta route for log G_r(z): the Barnes zeta derivative
  sum_j a_j(w) zeta_H'(-j, w) = log Gamma_r(w) plus a polynomial fixed by
  G_r(1) = 1, at w = z + M with Re w > 0, walked back down with the
  defining recurrence G_r(w+1) = G_{r-1}(w) G_r(w).  It has no remainder
  term, so it stays accurate where the products lose accuracy (large |z|).

The front door runs Gauss and falls back on the zeta route where Gauss
misses the tolerance.  Before the full Gauss sweep it probes the ladder's
first octaves at level min(r, 2), on the start of the same sweep (level 1
of the probe starts from mpmath.loggamma): where they predict that the ladder
cannot reach tolerance/10 (large |z|), the zeta route answers alone and the
sweep never runs.  On top of these sit the Hurwitz-zeta oracle for
log Gamma_r(z) (the zeta route's sum at rational z > 0, sharing no code with
the products), the raw higher Stirling formula, the multiple sine, the
multiplication-formula residual, and the calibration that checks the
derived sign/shift conventions (``exact_poly.ConventionSet``) against the
other seven candidates.

All log values are accumulated additively from principal logs of individual
factors; the imaginary part is therefore path-dependent (it is not reduced
modulo 2 pi), and exactness claims attach to exp(value) and to real parts on
the positive real axis.

The product sweep runs in fixed point.  Each log G_k value of the integer and
the shifted lattices is a Python int scaled by 2^(p+g): p is the working
precision in bits and g = N.bit_length() guard bits for the ladder top
N = 2^14 (_N).  Level 0, log n and log(z+n), takes few logs.  The
integer row takes one per prime and adds the logs of prime factors; the
shifted level 0 writes z+n = m + d with m an integer and takes log m from the
integer row plus log(1 + d/m) from short real odd series in fixed point:
2 atanh(d/(2m+d)) for real d; for complex d, atanh of one real argument for
log|m+d| - log m and atan of another for arg(m+d).  Each series is a Horner
sum whose k-th accumulator keeps only the bits that its later factor
t^(2k+1) leaves above the sum's last place; its term count is set per octave
of m, from the argument at the octave's first m, and it runs over blocks of
at most 2^10 m, so that its temporary rows stay short.  Only the entries
with m below a cutoff of 2^4 or more (|Im z| raises it), every z+n with
Re <= 0 among them, and those with m past 2N keep a direct log, so the
integer row never grows past 2N.  Logs and series run a few bits past the
grid, so every level-0 entry x is within (2 + log2 max(2, |x|)) 2^-(p+g) of
log x (_integer_log_table and _level0_entries give the details).

The real and imaginary parts of the levels above and of the partial sums
are exact integer sums of level-0 entries, so no level above 0 is kept
whole.  One reader serves both lattices (_shifted_rungs), the integer one
as the lattice at z = 0: level 0 is streamed once, in blocks, through
K = max(r, 3) nested running sums, which are kept at m = s+1 and m = s+N+1
for the rungs N only, s = floor(Re z).  Only the integer level 0 is kept
whole, one row for each of the four most recently used precisions, and the
Euler route streams the integer levels it telescopes from it.  Level k of
the shifted lattice starts from its extrapolated base log G_k(z+1), so its
partial sums are the bases times binomials in N plus differences of those
running sums: the same exact integers a row of level k would add up to
(_sums_at).  An entry depends on m and d alone, so the rung points are
memoized per exact d (_SHIFTED_RUNGS, ten keys; the integer lattice apart,
in _INT_RUNGS): a later z + k with |k| <= 16, as the recurrence and the
multiplication formula take, walks each point k steps and builds only
those entries.  A level-r ladder fills both memos at depth r before its
probe and its lower-level bases read them, so one call sweeps each lattice
once.  A single partial (gauss_partial, euler_partial) sums both lattices
into a private memo, so it stays an independent check of the ladder.
Values return to mpf/mpc only at ladder checkpoints.  cache_info() reports
what the module-level caches hold.  Results are plain LogValue records;
cli.py renders them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, chain, islice, repeat
from operator import add, floordiv, mul, rshift, sub
from typing import Any, Sequence, Union

import mpmath
from mpmath.libmp import from_int, fzero, mpf_sub, to_fixed

from . import constants
from .constants import Precision, hurwitz_zeta_sderiv, hurwitz_zeta_sderivs, zeta_prime_neg
from .exact_poly import (
    DERIVED,
    ConventionSet,
    RationalPoly,
    bernoulli_numbers,
    binom_poly,
    composition_counts,
    grj_poly,
    phi_rj_poly,
    psi_poly,
)

__all__ = [
    "SingularInputError",
    "CalibrationError",
    "LogValue",
    "ResidualReport",
    "EvalConfig",
    "HigherStirlingTerms",
    "higher_stirling_terms",
    "log_g0",
    "gauss_partial",
    "euler_partial",
    "extrapolate",
    "product_extrapolated",
    "log_multigamma_asymptotic",
    "log_multigamma",
    "barnes_zeta_oracle",
    "log_gamma_r",
    "multiple_sine",
    "multiplication_residual",
    "calibrate_conventions",
    "cache_info",
]

SINGULAR_EPS = 1e-8
# The doubling ladder of the product routes: their partial products at these
# N, Richardson-extrapolated in 1/N.
_LADDER = tuple(2**k for k in range(6, 15))
_N = _LADDER[-1]
# Richardson depth of the front door's product value.
_ORDER = 4
# Bases feed every shifted-level entry, so their error is amplified ~N times
# per level above them; the deepest tableau the ladder's nine rungs support
# is the right depth for them (memoized — the extra columns are free).
_BASE_ORDER = 8

ComplexLike = Union[int, float, complex, Fraction, Any]


class SingularInputError(ValueError):
    """Input within 10^-8 of a lattice singularity of G_r."""


class CalibrationError(RuntimeError):
    """Convention calibration did not find the derived set as its one survivor."""


# ---------------------------------------------------------------------------
# Value containers and configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogValue:
    """A logarithm accumulated additively, tagged with its method of origin.

    The imaginary part is the continued log along the accumulation path, not
    reduced modulo 2 pi; the product and zeta routes both sum principal logs
    of z+n, so they land on the same branch.  err_est is an absolute error
    estimate (None when the producing operation has no model for it: a
    single partial product, the raw asymptotic formula).  A plain record:
    the CLI renders it.
    """

    value: Any  # mpf or mpc
    method: str  # gauss | euler | zeta | asymptotic | oracle | exact
    err_est: Any = None
    cross_check: Any = None  # |difference| between two methods, when both ran

    def __post_init__(self) -> None:
        if self.method not in {"gauss", "euler", "zeta", "asymptotic", "oracle", "exact"}:
            raise ValueError(f"unknown method tag {self.method!r}")


@dataclass(frozen=True)
class ResidualReport:
    """One identity instance checked numerically: lhs, rhs, relative residual."""

    identity: str
    r: int
    p: int
    z: Any
    lhs: Any
    rhs: Any
    residual: Any
    tolerance: float
    verdict: str  # "pass" | "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings shared by every numeric operation.

    precision: the decimal digits asked for; the product ladder (_LADDER)
    and its Richardson order (_ORDER) are fixed.
    tolerance: the absolute error the front door must reach, positive and
    finite; the zeta route answers wherever the product route's err_est is
    predicted (from the ladder's first octaves) or found to miss
    tolerance/10.
    cross_validate: run both routes in full at every front-door call, with
    no prediction, and check that they agree.
    """

    precision: Precision = Precision()
    tolerance: float = 1e-8
    cross_validate: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class HigherStirlingTerms:
    """Exact polynomial pieces of the higher Stirling formula at level r.

    log G_r(z+1) ~ log_coeff(z) * log(z+1) - power_part(z)
                   - sum_j zeta_multipliers[j](z) * zeta'(-j)  +  O(1/z).
    """

    r: int
    log_coeff: RationalPoly
    power_part: RationalPoly
    zeta_multipliers: tuple[tuple[int, RationalPoly], ...]


@lru_cache(maxsize=None)
def higher_stirling_terms(r: int) -> HigherStirlingTerms:
    """The exact coefficient polynomials of the level-r asymptotic expansion."""
    if r < 1:
        raise ValueError("r must be >= 1")
    nums = bernoulli_numbers(r)
    log_coeff = binom_poly(r).shift(1)
    for j in range(r):
        log_coeff = log_coeff + grj_poly(r, j).scale(Fraction(nums[j + 1], j + 1))
    zp1 = RationalPoly((1, 1))  # z + 1
    power = RationalPoly.zero()
    zp1_pow = RationalPoly.one()
    for j in range(r):
        zp1_pow = zp1_pow * zp1
        power = power + (grj_poly(r, j) * zp1_pow).scale(Fraction(1, (j + 1) ** 2))
    zmult = tuple((j, grj_poly(r, j)) for j in range(r))
    return HigherStirlingTerms(r=r, log_coeff=log_coeff, power_part=power,
                               zeta_multipliers=zmult)


# ---------------------------------------------------------------------------
# Scalar plumbing
# ---------------------------------------------------------------------------


def _to_mp(z: ComplexLike):
    """Convert to mpf/mpc at the current working precision."""
    if isinstance(z, Fraction):
        return mpmath.mpf(z.numerator) / z.denominator
    if isinstance(z, complex):
        return mpmath.mpc(z.real, z.imag)
    return mpmath.mpmathify(z)


def _z_key(zm) -> tuple:
    """Exact binary identity of an mpf/mpc, for memo keys."""
    if isinstance(zm, mpmath.mpc):
        return ("c",) + zm._mpc_
    return ("r", zm._mpf_)


def _check_not_singular(r: int, zm) -> None:
    """Reject arguments within SINGULAR_EPS of a lattice singularity of G_r.

    G_0(z) = z vanishes only at 0; for r >= 1 the singular set is the
    non-positive integers.
    """
    if r == 0:
        if abs(zm) < SINGULAR_EPS:
            raise SingularInputError("G_0(z) = z vanishes at the lattice point 0")
        return
    x, y = mpmath.re(zm), mpmath.im(zm)
    if abs(y) < SINGULAR_EPS and x < 0.5:
        n = int(mpmath.nint(x))
        if n <= 0 and abs(zm - n) < SINGULAR_EPS:
            raise SingularInputError(
                f"G_{r} is singular at the lattice point {n} (input within 1e-8)")


# ---------------------------------------------------------------------------
# Fixed-point lattice
# ---------------------------------------------------------------------------


def _fixed_bits(cfg: EvalConfig) -> int:
    """Fractional bits of the fixed-point lattice: working bits plus guard bits.

    Each level-0 entry lies on the grid 2^-bits; the levels above and the
    partial sums are exact integer sums of those entries.  N.bit_length()
    guard bits, N = _N the ladder top, make 2^-bits at most 2^-p / N, p the
    working precision in bits, so the few units of 2^-bits by which each
    level-0 entry misses its log add a few 2^-p over a row of N.  The bits
    therefore depend on the precision alone.
    """
    return mpmath.libmp.dps_to_prec(cfg.precision.working_dps) + _N.bit_length()


def _to_fixed(x, bits: int) -> tuple[int, int]:
    """(re, im) of an mpf/mpc as Python ints scaled by 2^bits (floor)."""
    if isinstance(x, mpmath.mpc):
        re, im = x._mpc_
        return to_fixed(re, bits), to_fixed(im, bits)
    return to_fixed(x._mpf_, bits), 0


def _from_fixed(re: int, im: int, bits: int, cplx: bool):
    """mpf (or mpc, when cplx) at the working precision from scaled ints."""
    value = mpmath.mpf((re, -bits))
    return mpmath.mpc(value, mpmath.mpf((im, -bits))) if cplx else value


# Bits the level-0 series and logs carry below the lattice grid, so that
# their own rounding stays far below the one floor onto the grid.
_SERIES_GUARD = 10
# Shifted entries log(z+n), z+n = m + d, with m below 2^4 (or below 2|d|)
# take a direct log: a series there needs many terms for few entries.
_FIRST_SERIES_OCTAVE = 4
# The most entries one _log1p_block sums at once, so that the series'
# temporary rows stay short.
_SERIES_BLOCK = 2**10

# _INT_TABLES[dps][n] = log n scaled by 2^bits (index 0 unused), grown on
# demand, for the _INT_KEYS most recently used working precisions dps.
_INT_TABLES: dict[int, list] = {}
_INT_KEYS = 4


def _evict(cache: dict, keys: int) -> None:
    """Drop cache's least recently inserted keys until at most keys are left."""
    while len(cache) > keys:
        del cache[next(iter(cache))]


def _smallest_prime_factors(lo: int, hi: int) -> list[int]:
    """spf[n - lo] = the smallest prime factor of n for lo <= n <= hi (n itself below 2).

    Sieves [lo, hi] alone, so a table grown in pieces sieves each n once.
    """
    spf = list(range(lo, hi + 1))
    # descending, so that the smallest divisor >= 2 of each n, a prime, writes last
    for p in range(math.isqrt(hi), 1, -1):
        first = max(p * p, -(-lo // p) * p)
        spf[first - lo::p] = [p] * len(range(first, hi + 1, p))
    return spf


def _integer_log_table(cfg: EvalConfig, n_max: int) -> list:
    """log n for 1 <= n <= n_max (list index n), as fixed-point ints: level 0.

    Takes one log per prime: a prime's log is computed _SERIES_GUARD bits
    past the grid and floored onto it, and a composite n with smallest prime
    factor p is log p + log(n/p).  Entry n is therefore below log n by less
    than Omega(n) (1 + 2^-10 log n) 2^-bits, Omega(n) <= log2(n) the number
    of prime factors with multiplicity, and it depends on n alone, not on
    how the table was grown.  The levels above are never kept whole: they
    are exact running sums of this row, read at the ladder rungs as the
    z = 0 lattice of _shifted_rungs, and streamed by _integer_levels.
    """
    key = cfg.precision.working_dps
    row0 = _INT_TABLES[key] = _INT_TABLES.pop(key, [None])
    _evict(_INT_TABLES, _INT_KEYS)
    if len(row0) <= n_max:
        bits = _fixed_bits(cfg)
        lo = len(row0)
        spf = _smallest_prime_factors(lo, n_max)
        with mpmath.workprec(bits + _SERIES_GUARD):
            for n in range(lo, n_max + 1):
                p = spf[n - lo]
                row0.append(row0[p] + row0[n // p] if p < n
                            else to_fixed(mpmath.log(n)._mpf_, bits))
    return row0


def _integer_levels(row0: list, k: int):
    """log G_k(n), n = 1, 2, ..., streamed from level 0 without keeping a row.

    G_k(1) = 1 and G_k(n+1) = G_{k-1}(n) G_k(n), so level k is k nested
    exact running sums of level 0.  The Euler route streams its telescoping
    ratios through it.
    """
    level = islice(row0, 1, None)
    for _ in range(k):
        level = accumulate(level, initial=0)
    return level


def _odd_series(t: list, sign: int, prec: int, shift: int, top: int) -> list:
    """(t sum_{k<terms} (sign t^2)^k / (2k+1)) 2^-shift, floored, entrywise.

    t is a row of ints scaled by 2^prec, each |t| <= |top| <= 1/2; sign 1
    sums atanh t, sign -1 atan t.  The term count and the taper come from top
    alone, so no entry depends on the others in its row.  With |top| <=
    2^-gain, terms = ceil(prec / (2 gain)) leaves a dropped tail below
    |t|^(2 terms + 1) <= 2^-(prec + gain): the atan tail alternates and
    shrinks, and the atanh tail is below |t|^(2 terms + 1) / ((2 terms + 1)
    (1 - |t|^2)).  Horner runs from the top term down; the k-th accumulator
    is later multiplied by t^(2k+1), at most 2^-((2k+1) gain), so it is kept
    to prec - s_k bits only, s_k = floor(k (2 gain - 1)).  Its two floors
    then cost at most 2^(1-gain-k) 2^-prec in the sum, below 2^(2-gain)
    2^-prec over all k whatever prec is.
    """
    gain = prec - math.log2(abs(top) + 2)
    terms = math.ceil(prec / (2 * gain))
    taper = [math.floor(k * (2 * gain - 1)) for k in range(terms)]
    w = list(map(rshift, map(mul, t, t), repeat(prec)))
    acc = [(1 << (prec - taper[-1])) // (2 * terms - 1)] * len(t)
    op = add if sign > 0 else sub
    for k in reversed(range(terms - 1)):
        products = map(rshift, map(mul, w, acc), repeat(prec + taper[k] - taper[k + 1]))
        acc = list(map(op, repeat((1 << (prec - taper[k])) // (2 * k + 1)), products))
    return list(map(rshift, map(mul, t, acc), repeat(shift)))


def _log1p_args(ms: range, dr: int, di: int, prec: int) -> tuple[list, list | None]:
    """The series arguments of _log1p_block at each m in ms, ints scaled by 2^prec.

    Real d: t = d/(2m+d), and None.  Complex d: t = (2m dr + |d|^2) /
    (2m^2 + 2m dr + |d|^2) and v = di/(m+dr).  Each is one exact division
    per entry, and |t|, |v| fall with m.
    """
    if not di:
        return list(map(floordiv, repeat(dr << prec), [(m << (prec + 1)) + dr for m in ms])), None
    dd = dr * dr + di * di
    num = [(m * dr << (prec + 1)) + dd for m in ms]  # (2m dr + |d|^2) 2^(2 prec)
    t = list(map(floordiv, [x << prec for x in num],
                 [(m * m << (2 * prec + 1)) + x for m, x in zip(ms, num)]))
    v = list(map(floordiv, repeat(di << prec), [(m << prec) + dr for m in ms]))
    return t, v


def _log1p_block(ms: range, dr: int, di: int, prec: int, bits: int) -> tuple[list, list | None]:
    """log(1 + d/m) for m in ms, d = (dr + i di) 2^-prec, as rows on the grid 2^-bits.

    ms lies in one octave [2^j, 2^(j+1)).  Each part is one real odd series
    (_odd_series) in ints scaled by 2^prec over the arguments of _log1p_args;
    m >= 2|d| keeps them <= |d|/m <= 1/2.  Real d: 2 atanh(t).  Complex d:
    the real part log|m+d| - log m is atanh(t), and the imaginary part
    arg(m+d) is atan(v).  Each series takes its term count from its argument
    at the octave's first m, 2^j, which bounds the rest, so an entry depends
    on m and d alone, not on where the block starts.  The imaginary row is
    None for real d.
    """
    t, v = _log1p_args(ms, dr, di, prec)
    m0 = 1 << (ms.start.bit_length() - 1)
    t0, v0 = (t, v) if ms.start == m0 else _log1p_args(range(m0, m0 + 1), dr, di, prec)
    if v is None:
        return _odd_series(t, 1, prec, 2 * prec - bits - 1, t0[0]), None
    return (_odd_series(t, 1, prec, 2 * prec - bits, t0[0]),
            _odd_series(v, -1, prec, 2 * prec - bits, v0[0]))


# _SHIFTED_RUNGS[(dps, exact d)] = (shift s, {m: point}): the running sums of
# the shifted level 0 with fractional part d at m = s+1 and at m = s+R+1 for
# a prefix of the ladder rungs R, centred on the latest s.  At most
# _SHIFTED_KEYS keys, the least recently used evicted first; a later shift
# within _WALK of s walks every point there.  _INT_RUNGS holds the integer
# lattice, z = 0, in the same form, one key per precision, always at shift
# 0: kept apart, so that an integer z, whose key is the same, cannot walk it.
_SHIFTED_RUNGS: dict[tuple, tuple[int, dict[int, tuple]]] = {}
_INT_RUNGS: dict[tuple, tuple[int, dict[int, tuple]]] = {}
_SHIFTED_KEYS = 10
_WALK = 16


def _level0_entries(zm, cfg: EvalConfig, shift: int, dr: int, di: int,
                    cut: int, ms: range) -> tuple[list, list]:
    """(re, im) fixed-point rows of log(m + d) for m in ms, z = shift + d.

    The entries with cut <= m <= 2N, N = _N, are log m from the integer
    table plus, for d != 0, log(1 + d/m) from _log1p_block, in blocks of at
    most _SERIES_BLOCK m within one octave; d = (dr + i di) 2^-prec.  The
    others are direct logs of z + (m - shift), prec bits, floored onto the
    grid.  The series stops at m = 2N so that the integer table stays O(N)
    long however large Re z is.

    With m = n + shift and 0 <= Re d < 1 (_shifted_grid), the entry is
    log(z+n).  From m >= 2^j >= 2|d|, j >= _FIRST_SERIES_OCTAVE, each series
    takes its term count from its argument at the octave's first m.  Its
    error in ints scaled by 2^prec, from that argument's floor, the floor of
    its square, the dropped tail and the tapered Horner floors, stays below
    8 units (16 for real d's 2 atanh), 2^-6 2^-bits; with the floor onto the
    grid and log m's error, such an entry is within (Omega(m) + 2) 2^-bits
    of log(z+n) in each part (Omega as in _integer_log_table); for integer z
    it is the table's own entry.  Every other entry, including each z+n with
    Re <= 0 and each m past the top, is mpmath.log(z+n) taken _SERIES_GUARD
    bits past the grid and floored onto it: within (1 + 2^-10 |log(z+n)|)
    2^-bits.  Every entry depends on m, d and the precision alone, not on
    ms or on z's shift.
    """
    bits = _fixed_bits(cfg)
    prec = bits + _SERIES_GUARD
    lo = min(max(cut, ms.start), ms.stop)
    hi = max(lo, min(ms.stop, 2 * _N + 1))
    with mpmath.workprec(prec):
        direct = [_to_fixed(mpmath.log(zm + (m - shift)), bits)
                  for m in chain(range(ms.start, lo), range(hi, ms.stop))]
    re0 = [re for re, _ in direct[:lo - ms.start]]
    im0 = [im for _, im in direct[:lo - ms.start]]
    if hi > lo:
        log_m = _integer_log_table(cfg, hi - 1)
        if not (dr or di):
            re0.extend(log_m[lo:hi])
            im0.extend(repeat(0, hi - lo))
        else:
            for j in range(lo.bit_length() - 1, (hi - 1).bit_length()):
                octave = range(max(lo, 1 << j), min(hi, 2 << j))
                for start in range(octave.start, octave.stop, _SERIES_BLOCK):
                    block = range(start, min(octave.stop, start + _SERIES_BLOCK))
                    series_re, series_im = _log1p_block(block, dr, di, prec, bits)
                    re0.extend(map(add, log_m[block.start:block.stop], series_re))
                    im0.extend(repeat(0, len(block)) if series_im is None else series_im)
    re0.extend(re for re, _ in direct[lo - ms.start:])
    im0.extend(im for _, im in direct[lo - ms.start:])
    return re0, im0


def _shifted_grid(zm, cfg: EvalConfig) -> tuple[tuple, int, int, int, int]:
    """(memo key, shift, dr, di, cut): z's shifted level 0 as _level0_entries builds it.

    z+n = m + d with m = n + shift, shift = floor(Re z), 0 <= Re d < 1; the
    key is (working dps, exact d), and d floored onto 2^-prec, prec = bits +
    _SERIES_GUARD, is (dr + i di) 2^-prec.  The series starts at m = cut,
    the first power of two >= 2^_FIRST_SERIES_OCTAVE and >= 2|d|; an integer
    z reads the integer table from m = 1.
    """
    shift = int(mpmath.floor(mpmath.re(zm)))
    re_z, im_z = zm._mpc_ if isinstance(zm, mpmath.mpc) else (zm._mpf_, fzero)
    # exact; z - shift at the working precision can round when -1 < Re z < 0
    d_key = (mpf_sub(re_z, from_int(shift)), im_z)
    key = (cfg.precision.working_dps, d_key)
    if d_key == (fzero, fzero):  # z+n = m: the integer table's own entries
        return key, shift, 0, 0, 1
    prec = _fixed_bits(cfg) + _SERIES_GUARD
    dr, di = _to_fixed(zm, prec)
    dr -= shift << prec
    d_log2 = math.log2(math.isqrt(dr * dr + di * di) + 2) - prec  # >= log2 |d|
    return key, shift, dr, di, 1 << max(_FIRST_SERIES_OCTAVE, math.ceil(d_log2) + 1)


def _running_sums(start: Sequence[int], row: list, offsets: Sequence[int]) -> list[tuple]:
    """The running sums (W_1..W_K) at each offset, from their values start at offset 0.

    offsets ascend in (0, len(row)].  row holds level 0, W_0, from offset 0
    on, and W_k(m+1) = W_k(m) + W_{k-1}(m): each level is one exact running
    sum of the one below.  The top level is read at the offsets only, and a
    part that is 0 throughout (the imaginary part of a real lattice right of
    0) stays 0.
    """
    if not (any(start) or any(row)):
        return [tuple(start)] * len(offsets)
    columns = []
    level = row
    for w in start[:-1]:
        level = list(accumulate(islice(level, len(row)), initial=w))
        columns.append([level[t] for t in offsets])
    top, below, column = start[-1], iter(level), []
    for t, at in zip(offsets, [0, *offsets]):
        top += sum(islice(below, t - at))
        column.append(top)
    columns.append(column)
    return list(zip(*columns))


def _streamed(build, point: tuple, m0: int, ms: Sequence[int]) -> list[tuple]:
    """The (re, im) running sums at each m in ms, ascending and > m0, from point at m0.

    build(range) gives level 0 over the range; it is built and summed in
    blocks that end at multiples of _SERIES_BLOCK, like the series' own, so
    no row longer than that is alive.
    """
    out = []
    for lo in chain([m0], range(m0 - m0 % _SERIES_BLOCK + _SERIES_BLOCK, ms[-1], _SERIES_BLOCK)):
        hi = min(lo - lo % _SERIES_BLOCK + _SERIES_BLOCK, ms[-1])
        offsets = [m - lo for m in ms if lo < m <= hi]
        sums = [_running_sums(levels, row, offsets + [hi - lo])
                for levels, row in zip(point, build(range(lo, hi)))]
        out.extend(zip(*(part[:-1] for part in sums)))
        point = tuple(part[-1] for part in sums)
    return out


def _walked_back(levels: Sequence[int], row: list) -> tuple:
    """The running sums len(row) steps before levels, row the level-0 entries over those steps."""
    levels = list(levels)
    for below in reversed(row):
        for k, w in enumerate(levels):
            levels[k] = below = w - below
    return tuple(levels)


def _shifted_rungs(zm, cfg: EvalConfig, depth: int, ns: Sequence[int],
                   memo: dict) -> tuple[tuple, list[tuple]]:
    """The running sums of z's shifted level 0 at m = s+1 and at each m = s+n+1, n in ns.

    s = floor(Re z), and ns ascends: a prefix of the ladder _LADDER, or a
    single partial's N.  A point is a pair (re, im) of tuples (W_1..W_K),
    K >= max(depth, 3), W_0 = log(z+n) at m = n + s (_level0_entries) and
    W_k the exact running sums above it: W_k(m+1) = W_k(m) + W_{k-1}(m).
    Memoized in memo (_SHIFTED_RUNGS, _INT_RUNGS, or a caller's own {}); a
    miss streams level 0 on from the last rung held (_streamed).  A key held
    at another shift s' with |s - s'| <= _WALK is first walked there point
    by point from the few entries between; one held too far away or too
    shallow is swept again from m = s+1, where every W_k is 0.
    """
    key, shift, dr, di, cut = _shifted_grid(zm, cfg)
    depth = max(depth, 3)
    build = partial(_level0_entries, zm, cfg, shift, dr, di, cut)
    held_shift, points = memo.pop(key, (shift, {}))
    step = shift - held_shift
    if not points or len(points[held_shift + 1][0]) < depth or abs(step) > _WALK:
        points = {shift + 1: ((0,) * depth, (0,) * depth)}
    elif step > 0:
        points = {m + step: _streamed(build, point, m, [m + step])[0]
                  for m, point in points.items()}
    elif step < 0:
        points = {m + step: tuple(map(_walked_back, point, build(range(m + step, m))))
                  for m, point in points.items()}
    memo[key] = (shift, points)
    _evict(memo, _SHIFTED_KEYS)
    wanted = [shift + n + 1 for n in ns]
    last = max(points)
    ahead = [m for m in wanted if m > last]
    if ahead:
        points.update(zip(ahead, _streamed(build, points[last], last, ahead)))
    return points[shift + 1], [points[m] for m in wanted]


def _level_bases(r: int, zm, cfg: EvalConfig) -> list[tuple[int, int]]:
    """B_k = log G_k(z+1), k = 1..r-1, as (re, im) ints on the grid.

    Each is the level-k Gauss ladder extrapolated at _BASE_ORDER: the bases
    enter the level-r sums with O(N)-fold amplification, so they take a
    higher order than the caller's, and they are memoized.
    """
    bits = _fixed_bits(cfg)
    return [_to_fixed(product_extrapolated("gauss", k, zm, cfg, order=_BASE_ORDER).value, bits)
            for k in range(1, r)]


def _sums_at(r: int, ns: Sequence[int], start: tuple, points: Sequence[tuple],
             bases: Sequence[tuple]) -> list[tuple[int, int]]:
    """(re, im) of sum_{n<=N} log G_{r-1}(z+n) at each N in ns, fixed-point ints.

    start and points are the running sums at m = s+1 and m = s+N+1, bases
    B_1..B_{r-1} as (re, im) ints.  Level k of the shifted lattice starts
    from B_k and walks the recurrence log G_k(z+n+1) = log G_k(z+n) +
    log G_{k-1}(z+n), so the sum is sum_{k<r} B_k binom(N, r-k) + U_r(N+1),
    U_r the r-fold running sum of level 0 from n = 1, and U_r(N+1) is
    W_r(s+N+1) - sum_{k<=r} W_k(s+1) binom(N, r-k): the same exact integer
    that a row of level r-1 adds up to.
    """
    out = []
    for n, point in zip(ns, points):
        binoms = [math.comb(n, r - k) for k in range(1, r + 1)]
        out.append(tuple(end[r - 1] - sum(map(mul, binoms, begin))
                         + sum(base[part] * c for base, c in zip(bases, binoms))
                         for part, (begin, end) in enumerate(zip(start, point))))
    return out


# ---------------------------------------------------------------------------
# Product routes
# ---------------------------------------------------------------------------


def _partial_checkpoints(method: str, r: int, zm, cfg: EvalConfig, ns: Sequence[int],
                         sums: Sequence[tuple[int, int]], memo: dict) -> list[LogValue]:
    """Partial-product log values at each checkpoint N in ns, one shared sweep.

    gauss: sum_{n<=N} [log G_{r-1}(n) - log G_{r-1}(z+n)]
           + sum_k binom(z, r-k) log G_k(N+1).
    euler: the same quantity accumulated factor-by-factor, the correction
           distributed as telescoping ratios (G_k(n+1)/G_k(n))^binom(z, r-k),
           each rounded onto the fixed-point grid.

    sums are the shifted sums sum_{n<=N} log G_{r-1}(z+n) at each N in ns
    (_sums_at).  The integer sum up to N is log G_r(N+1).  It and the
    corrections' log G_k(N+1), k >= 1, are the running sums W_k(N+1) of the
    z = 0 lattice of _shifted_rungs, read from memo (_INT_RUNGS, or a single
    partial's own): they start from 0 at m = 1.  log(N+1) is the table's
    entry.  euler streams each ratio G_k(n+1)/G_k(n), G_{k-1}(n) or (n+1)/n
    at k = 0, from level 0 (_integer_levels).  The sums run exactly over
    fixed-point ints; values become mpf/mpc only at checkpoints, where gauss
    also adds its corrections at the working precision.  A real z < -1 has
    z+1 < 0, and then log G_{r-1}(z+1) carries a multiple of i pi, so the
    values are complex.
    """
    n_top = ns[-1]
    bits = _fixed_bits(cfg)
    with mpmath.workdps(cfg.precision.working_dps):
        exponents = [binom_poly(r - k).evaluate(zm) for k in range(r)]
        cplx = isinstance(zm, mpmath.mpc) or zm < -1
        row0 = _integer_log_table(cfg, n_top + 1)
        _, points = _shifted_rungs(mpmath.mp.zero, cfg, r, ns, memo)
        # log G_k(N+1) for k = 0..r at each rung N
        rungs = [(row0[n + 1], *re[:r]) for n, (re, _) in zip(ns, points)]
        # per part (re, im): what the integer lattice adds to the sum at each rung
        added = [[rung[r] for rung in rungs], [0] * len(ns)]
        if method == "euler":
            for k, exponent in enumerate(exponents):
                for part, e in enumerate(_to_fixed(exponent, bits)):
                    if e:
                        ratios = (map(sub, islice(row0, 2, None), islice(row0, 1, None)) if k == 0
                                  else _integer_levels(row0, k - 1))
                        terms = map(rshift, map(mul, repeat(e), ratios), repeat(bits))
                        added[part] = list(map(add, added[part],
                                               accumulate(_segment_sums(terms, ns))))

        out = []
        for rung, (sum_re, sum_im), add_re, add_im in zip(rungs, sums, *added):
            value = _from_fixed(add_re - sum_re, add_im - sum_im, bits, cplx)
            if method == "gauss":
                for k in range(r):
                    value += exponents[k] * mpmath.mpf((rung[k], -bits))
            out.append(LogValue(value=+value, method=method))
        return out


def _segment_sums(values, ns: Sequence[int]) -> list[int]:
    """Sums of an iterator's values for n = 1..ns[-1] over each (previous rung, rung]."""
    out, lo = [], 0
    for n in ns:
        out.append(sum(islice(values, n - lo)))
        lo = n
    return out


def _single_partial(method: str, r: int, z: ComplexLike, n: int, cfg: EvalConfig) -> LogValue:
    """One partial at any N, its two lattices summed into a private {}, not a rung memo.

    So it stays an independent check of the ladder's checkpoints, which it
    must equal bit for bit at a rung.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if n < 1:
        raise ValueError("truncation N must be >= 1")
    with mpmath.workdps(cfg.precision.working_dps):
        zm = _to_mp(z)
        _check_not_singular(r, zm + 1)
        bases = _level_bases(r, zm, cfg)
        start, points = _shifted_rungs(zm, cfg, r, [n], {})
        sums = _sums_at(r, [n], start, points, bases)
        return _partial_checkpoints(method, r, zm, cfg, [n], sums, {})[0]


def gauss_partial(r: int, z: ComplexLike, n: int, cfg: EvalConfig = EvalConfig()) -> LogValue:
    """log of the N-th Gauss bracket for log G_r(z+1).

    prod_{m<=N} G_{r-1}(m)/G_{r-1}(z+m) * prod_{k<r} G_k(N+1)^binom(z, r-k),
    computed additively in O(N r): both lattices stream level 0 through
    max(r, 3) running sums read at N+1, into a private memo, not the rung
    memos (_single_partial).
    """
    return _single_partial("gauss", r, z, n, cfg)


def euler_partial(r: int, z: ComplexLike, n: int, cfg: EvalConfig = EvalConfig()) -> LogValue:
    """log of the N-th Euler partial product for log G_r(z+1).

    Same limit as the Gauss bracket — the correction factors are distributed
    per-n as telescoping ratios, giving a different accumulation order and an
    independent rounding path.
    """
    return _single_partial("euler", r, z, n, cfg)


def extrapolate(seq: Sequence[LogValue], order: int) -> LogValue:
    """Richardson-extrapolate partial values taken at N, 2N, 4N, ...

    Assumes an asymptotic error expansion in integer powers of 1/N (valid for
    both product routes).  The error estimate is the difference between the
    last two extrapolants on the deepest diagonal.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if len(seq) < order + 1:
        raise ValueError(f"need at least order+1 = {order + 1} ladder values, got {len(seq)}")
    tags = {lv.method for lv in seq}
    if len(tags) != 1:
        raise ValueError(f"mixed method tags in extrapolation ladder: {sorted(tags)}")

    col = [lv.value for lv in seq]
    diag = [col[-1]]
    for m in range(1, order + 1):
        w = mpmath.mpf(2) ** m
        col = [(w * col[i + 1] - col[i]) / (w - 1) for i in range(len(col) - 1)]
        diag.append(col[-1])
    if len(col) >= 2:
        err = abs(col[-1] - col[-2])
    else:
        err = abs(diag[-1] - diag[-2]) if len(diag) >= 2 else mpmath.mpf(0)
    return LogValue(value=col[-1], method=seq[0].method, err_est=err)


# Extrapolated product values, per (method, r, working dps, order, exact z):
# at most _EXTRAP_KEYS, the least recently used evicted first.
_EXTRAP_CACHE: dict[tuple, LogValue] = {}
_EXTRAP_KEYS = 4096


def _extrap_key(method: str, r: int, zm, cfg: EvalConfig, order: int) -> tuple:
    return (method, r, cfg.precision.working_dps, order, _z_key(zm))


def cache_info() -> dict[str, dict[str, int]]:
    """What each module-level cache holds now.

    For _INT_TABLES, _EXTRAP_CACHE and the lru_caches of zeta_prime_neg and
    _barnes_polys: a row is one level-0 row of _INT_TABLES (one per precision
    key), one memoized LogValue, one zeta'(-j) or one k's polynomials; entries
    count the fixed-point ints or the values in them (the rows themselves for
    the lru_caches).  For the rung memos _INT_RUNGS and _SHIFTED_RUNGS: their
    keys, the points (tuples of running sums) they hold, and the ints in those.
    """
    def rung_memo(memo: dict) -> dict[str, int]:
        points = [point for _, held in memo.values() for point in held.values()]
        return {"keys": len(memo), "tuples": len(points),
                "ints": sum(len(re) + len(im) for re, im in points)}

    zeta_primes = constants.zeta_prime_neg.cache_info().currsize
    barnes = _barnes_polys.cache_info().currsize
    return {
        "_INT_TABLES": {"rows": len(_INT_TABLES),
                        "entries": sum(len(row) - 1 for row in _INT_TABLES.values())},
        "_INT_RUNGS": rung_memo(_INT_RUNGS),
        "_EXTRAP_CACHE": {"rows": len(_EXTRAP_CACHE), "entries": len(_EXTRAP_CACHE)},
        "_SHIFTED_RUNGS": rung_memo(_SHIFTED_RUNGS),
        "constants.zeta_prime_neg": {"rows": zeta_primes, "entries": zeta_primes},
        "_barnes_polys": {"rows": barnes, "entries": barnes},
    }


def product_extrapolated(method: str, r: int, z: ComplexLike, cfg: EvalConfig = EvalConfig(),
                         order: int | None = None) -> LogValue:
    """Extrapolated product value of log G_r(z+1), memoized per (method, r, z, precision, order).

    method is "gauss" or "euler".  One sweep takes the partial products at
    every rung of the doubling ladder _LADDER, N = 2^6..2^14; order, at most
    8, defaults to _ORDER = 4.  The shifted sums come from the rung memo
    _SHIFTED_RUNGS (_shifted_rungs, _sums_at), so the ladders of every level
    and both methods at z, and at z + k for |k| <= _WALK, share one sweep
    of level 0.
    """
    if method not in ("gauss", "euler"):
        raise ValueError(f"unknown product method {method!r}")
    if r < 1:
        raise ValueError("r must be >= 1")
    if order is None:
        order = _ORDER
    with mpmath.workdps(cfg.precision.working_dps):
        zm = _to_mp(z)
        _check_not_singular(r, zm + 1)
        key = _extrap_key(method, r, zm, cfg, order)
        hit = _EXTRAP_CACHE.pop(key, None)
        if hit is not None:
            _EXTRAP_CACHE[key] = hit
            return hit
        # both lattices' rungs at depth r first: the bases' lower-level
        # ladders then read them instead of sweeping a shallower lattice
        _shifted_rungs(mpmath.mp.zero, cfg, r, _LADDER, _INT_RUNGS)
        start, points = _shifted_rungs(zm, cfg, r, _LADDER, _SHIFTED_RUNGS)
        sums = _sums_at(r, _LADDER, start, points, _level_bases(r, zm, cfg))
        checkpoints = _partial_checkpoints(method, r, zm, cfg, _LADDER, sums, _INT_RUNGS)
        result = extrapolate(checkpoints, order)
    _EXTRAP_CACHE[key] = result
    _evict(_EXTRAP_CACHE, _EXTRAP_KEYS)
    return result


def _ladder_predicted_err(r: int, zm, cfg: EvalConfig):
    """The err_est the level-r Gauss ladder at z is predicted to reach, from its first octaves.

    Sweeps level min(r, 2) over the ladder's first q+2 rungs, q = _ORDER,
    and extrapolates at order q; the full ladder's estimate comes from its
    last q+2 rungs, which lie octaves above, and Richardson's error after q
    steps falls like N^-(q+1), so the probe's estimate scales by
    (rung / N)^(q+1).  Level 1 alone is 6-13x optimistic
    for level 2 at 30 <= z <= 45, so r >= 2 probes level 2 itself.  Its
    level-1 base is log G_1(z+1) = mpmath.loggamma(z+1), which lands
    on the products' branch: a Gauss base would need the full ladder, and
    this one only informs the decision, entering no returned value.  At
    r >= 3 the full ladder's estimate sits on the level-base floor (ROADMAP
    item 2), not on Richardson's rate, so the prediction stays optimistic
    there.  The probe's rungs are the full ladder's first ones: it fills
    both rung memos at the depth the level-r sweep needs, which then streams
    level 0 on from the probe's last rung.
    """
    q = _ORDER
    probe = _LADDER[:q + 2]
    level = min(r, 2)
    _shifted_rungs(mpmath.mp.zero, cfg, r, probe, _INT_RUNGS)
    start, points = _shifted_rungs(zm, cfg, r, probe, _SHIFTED_RUNGS)
    bases = [_to_fixed(mpmath.loggamma(zm + 1), _fixed_bits(cfg))] if level == 2 else []
    sums = _sums_at(level, probe, start, points, bases)
    checkpoints = _partial_checkpoints("gauss", level, zm, cfg, probe, sums, _INT_RUNGS)
    est = extrapolate(checkpoints, q).err_est
    return est * (mpmath.mpf(probe[-1]) / _N) ** (q + 1)


# ---------------------------------------------------------------------------
# Asymptotic formula and the Hurwitz-zeta route
# ---------------------------------------------------------------------------


def log_multigamma_asymptotic(r: int, z: ComplexLike, cfg: EvalConfig = EvalConfig()) -> LogValue:
    """log G_r(z+1) by the raw higher Stirling formula at z: no shift, no descent.

    The formula of higher_stirling_terms without its O(1/z) remainder.  That
    remainder has no error model here, so err_est is None; the front door
    does not use this route.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    with mpmath.workdps(cfg.precision.working_dps):
        zm = _to_mp(z)
        _check_not_singular(r, zm + 1)
        terms = higher_stirling_terms(r)
        value = terms.log_coeff.evaluate(zm) * mpmath.log(zm + 1) - terms.power_part.evaluate(zm)
        for j, poly in terms.zeta_multipliers:
            value -= poly.evaluate(zm) * zeta_prime_neg(j, cfg.precision)
        return LogValue(value=+value, method="asymptotic")


@lru_cache(maxsize=32)
def _barnes_polys(k: int) -> tuple[RationalPoly, ...]:
    """Q^(j)/j!, j < k, for Q(t) = binom(t+k-1, k-1): exact, built once per k."""
    q, polys = binom_poly(k - 1).shift(k - 1), []
    for j in range(k):
        polys.append(q)
        q = q.derivative().scale(Fraction(1, j + 1))
    return tuple(polys)


def _barnes_coeffs(k: int, w) -> list:
    """a_j(w) = Q^(j)(-w)/j!, j < k: binom(t - w + k - 1, k - 1) = sum_j a_j(w) t^j.

    Then sum_{n>=0} binom(n+k-1, k-1) (w+n)^-s = sum_j a_j(w) zeta_H(s-j, w);
    exact at an int or Fraction w, at the working precision otherwise.
    """
    return [q.evaluate(-w) for q in _barnes_polys(k)]


def _zeta_levels(r: int, wm, prec: Precision) -> list[tuple]:
    """(log G_k(w), err) for k = 1..r, at Re w > 0, from the Hurwitz zeta.

    L_k(w) = sum_j a_j(w) zeta_H'(-j, w) (_barnes_coeffs) is log Gamma_k(w),
    and L_k(w+1) = L_k(w) - L_{k-1}(w), so F_k = (-1)^(k-1) L_k satisfies
    the recurrence of log G_k with F_0 = log.  log G_k - F_k is then a
    polynomial p_k with p_k(w+1) - p_k(w) = p_{k-1}(w), and G_i(1) = 1 at
    every level fixes it:
        log G_k(w) = F_k(w) - sum_{i<=k} F_i(1) binom(w-1, k-i),
    with F_i(1) from zeta'(-j) = zeta_H'(-j, 1).  One pass at w gives
    zeta_H'(-j, w) for every j < r (hurwitz_zeta_sderivs).  No convention
    enters.  Each product c v summed counts 10^-digits |c| (1 + |v|) towards
    err: Hurwitz promises 10^-digits max(1, |v|), and the guard digits absorb
    the rounding.
    """
    eps = mpmath.mpf(10) ** -prec.digits
    zetas = hurwitz_zeta_sderivs(r, wm, prec)
    consts = [zeta_prime_neg(j, prec) for j in range(r)]
    f_at_1 = []
    levels = []
    for k in range(1, r + 1):
        sign = (-1) ** (k - 1)
        f_at_1.append(sign * mpmath.fdot((_to_mp(a), c)
                                         for a, c in zip(_barnes_coeffs(k, 1), consts)))
        pairs = [(sign * a, zj) for a, zj in zip(_barnes_coeffs(k, wm), zetas)]
        pairs += [(-f1, binom_poly(k - i).evaluate(wm - 1)) for i, f1 in enumerate(f_at_1, 1)]
        err = eps * mpmath.fsum(abs(c) * (1 + abs(v)) for c, v in pairs)
        levels.append((mpmath.fdot(pairs), err))
    return levels


def _log_multigamma_zeta(r: int, zm, cfg: EvalConfig) -> LogValue:
    """log G_r(z) by the Hurwitz-zeta route, zm off the singular lattice.

    The caller sets the working precision (the front door does).

    Evaluates every level at w = z + M, M >= 0 the least integer with
    Re w > 0 (_zeta_levels), then walks down with the exact recurrence
    log G_k(z+m) = log G_k(z+m+1) - log G_{k-1}(z+m), m = M-1..0, from
    principal logs at level 0.  err_est follows each value down the descent,
    adding 10^-digits |value| per step.
    """
    eps = mpmath.mpf(10) ** -cfg.precision.digits
    m_shift = max(0, int(mpmath.floor(-mpmath.re(zm))) + 1)
    below = []
    for m in range(m_shift):
        log_zm = mpmath.log(zm + m)
        below.append((log_zm, eps * abs(log_zm)))
    for value, err in _zeta_levels(r, zm + m_shift, cfg.precision):
        row = []
        for prev, prev_err in reversed(below):
            value -= prev
            err += prev_err + eps * abs(value)
            row.append((value, err))
        below = row[::-1]
    return LogValue(value=+value, method="zeta", err_est=+err)


# ---------------------------------------------------------------------------
# Front door
# ---------------------------------------------------------------------------


def log_g0(z: ComplexLike, prec: Precision = Precision()) -> LogValue:
    """log G_0(z) = principal log z."""
    with mpmath.workdps(prec.working_dps):
        zm = _to_mp(z)
        _check_not_singular(0, zm)
        return LogValue(value=mpmath.log(zm), method="exact", err_est=mpmath.mpf(0))


def log_multigamma(r: int, z: ComplexLike, cfg: EvalConfig = EvalConfig()) -> LogValue:
    """log G_r(z) — the front door.

    Runs the extrapolated Gauss product at z-1.  First a probe sweeps level
    min(r, 2) over the ladder's first q+2 rungs (to N/8 at the defaults),
    its level 1 started from mpmath.loggamma(z), and predicts the full
    ladder's err_est (_ladder_predicted_err); when that prediction is not
    below tolerance/10 (large |z|), the Hurwitz-zeta route answers alone,
    with cross_check None.  The probe is skipped when the Gauss value is
    memoized and under cfg.cross_validate.  Otherwise the full ladder runs;
    when its error estimate cannot beat tolerance/10 either, the zeta route
    also runs and the better estimate wins, and cfg.cross_validate runs it at
    every call as a check only.  Whenever both run, cross_check is their
    difference, and they must agree within max(10 max(err), 100 tolerance),
    or ArithmeticError is raised.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return log_g0(z, cfg.precision)
    with mpmath.workdps(cfg.precision.working_dps):
        zm = _to_mp(z)
        _check_not_singular(r, zm)
        tol = mpmath.mpf(cfg.tolerance)
        memoized = _extrap_key("gauss", r, zm - 1, cfg, _ORDER) in _EXTRAP_CACHE
        if not (memoized or cfg.cross_validate):
            if not _ladder_predicted_err(r, zm - 1, cfg) < tol / 10:
                return _log_multigamma_zeta(r, zm, cfg)
        gauss = product_extrapolated("gauss", r, zm - 1, cfg)
        fallback = not (gauss.err_est < tol / 10)
        if not (fallback or cfg.cross_validate):
            return gauss
        zeta = _log_multigamma_zeta(r, zm, cfg)
        disagreement = abs(gauss.value - zeta.value)
        allowed = max(10 * max(gauss.err_est, zeta.err_est), 100 * tol)
        if disagreement > allowed:
            raise ArithmeticError(
                f"product and zeta routes disagree by {mpmath.nstr(disagreement, 5)} "
                f"(allowed {mpmath.nstr(allowed, 5)}) at r={r}, z={mpmath.nstr(zm, 10)}; "
                "suspect the implementation")
        best = zeta if fallback and zeta.err_est < gauss.err_est else gauss
        return replace(best, cross_check=disagreement)


# ---------------------------------------------------------------------------
# Hurwitz-zeta oracle and Gamma_r / S_r
# ---------------------------------------------------------------------------


def _exact_fraction(x) -> Fraction:
    """Exact Fraction from int/Fraction/float/mpf (all are dyadic rationals)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, mpmath.mpf):
        num, den = mpmath.libmp.to_rational(x._mpf_)
        return Fraction(int(num), int(den))
    raise TypeError(f"cannot convert {type(x).__name__} to an exact Fraction")


def barnes_zeta_oracle(r: int, z, prec: Precision = Precision()) -> LogValue:
    """log Gamma_r(z) by the zeta route, for real z > 0.

    The Barnes-type series sum over r-tuples collapses to
    sum_k binom(k+r-1, r-1) (z+k)^-s; writing the binomial as an exact
    polynomial in (k+z) gives zeta_r(s, z) = sum_j a_j(z) zeta_H(s-j, z),
    so log Gamma_r(z) = d/ds zeta_r(s,z)|_0 = sum_j a_j(z) zeta_H'(-j, z).
    Each zeta_H'(-j, z) comes from hurwitz_zeta_sderiv, a pass of its own
    per j, each within 10^-digits max(1, |value|).  Shares no code with the
    product routes; the front door's zeta route forms the same sum from one
    pass for every j, so a check against this oracle must take its other
    side from the product route.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    zq = _exact_fraction(z)
    if zq <= 0:
        raise ValueError("oracle domain is real z > 0")
    with mpmath.workdps(prec.working_dps):
        zm = _to_mp(zq)
        total = mpmath.mpf(0)
        for j, aj in enumerate(_barnes_coeffs(r, zq)):
            if aj == 0:
                continue
            total += _to_mp(aj) * hurwitz_zeta_sderiv(-j, zm, prec)
        err = mpmath.mpf(10) ** -prec.digits
        return LogValue(value=+total, method="oracle", err_est=err)


def log_gamma_r(r: int, z: ComplexLike, cfg: EvalConfig = EvalConfig(), *,
                conventions: ConventionSet = DERIVED) -> LogValue:
    """log Gamma_r(z) via G_r and the residual factor R_r.

    G_r(z) = R_r(z) Gamma_r(z)^((-1)^(r-1)) with
    log R_r(z) = s_R sum_j G_{r,j}(z-1) zeta'(-j) (ConventionSet derives s_R).
    conventions is DERIVED except while calibrate_conventions tries its
    candidates.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    base = log_multigamma(r, z, cfg)
    with mpmath.workdps(cfg.precision.working_dps):
        zm = _to_mp(z)
        correction = mpmath.mpf(0)
        for j in range(r):
            correction += grj_poly(r, j).evaluate(zm - 1) * zeta_prime_neg(j, cfg.precision)
        sign = (-1) ** (r - 1)
        value = sign * (base.value - conventions.s_R * correction)
        return LogValue(value=+value, method=base.method, err_est=base.err_est,
                        cross_check=base.cross_check)


def multiple_sine(r: int, z: ComplexLike, cfg: EvalConfig = EvalConfig()):
    """S_r(z) = Gamma_r(r-z) * Gamma_r(z)^((-1)^(r+1)), returned as a number.

    Note this normalization makes S_1(z) = 1/(2 sin(pi z)).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    with mpmath.workdps(cfg.precision.working_dps):
        zm = _to_mp(z)
        first = log_gamma_r(r, r - zm, cfg)
        second = log_gamma_r(r, zm, cfg)
        log_s = first.value + (-1) ** (r + 1) * second.value
        return mpmath.exp(log_s)


# ---------------------------------------------------------------------------
# Multiplication formula
# ---------------------------------------------------------------------------


def multiplication_residual(r: int, p: int, z: ComplexLike,
                            cfg: EvalConfig = EvalConfig(), *,
                            conventions: ConventionSet = DERIVED) -> ResidualReport:
    """Residual of the order-p multiplication formula for G_r at z.

    LHS = sum over the p^r shifted arguments (collapsed by composition
    counts) of log G_r((z+s)/p); RHS = phi_r(z) - psi_r(z) log p + log G_r(z),
    phi_r under conventions (DERIVED except in calibrate_conventions).
    Residual is |LHS - RHS| relative to max(1, |LHS|).
    """
    if r < 1 or p < 1:
        raise ValueError("need r >= 1 and p >= 1")
    with mpmath.workdps(cfg.precision.working_dps):
        zm = _to_mp(z)
        lhs = mpmath.mpf(0)
        for s, count in enumerate(composition_counts(p, r)):
            lhs += count * log_multigamma(r, (zm + s) / p, cfg).value
        phi = mpmath.mpf(0)
        for j in range(r):
            phi += phi_rj_poly(r, j, p, conventions).evaluate(zm) * zeta_prime_neg(j, cfg.precision)
        rhs = phi - psi_poly(r).evaluate(zm) * mpmath.log(p) + log_multigamma(r, zm, cfg).value
        residual = abs(lhs - rhs) / max(mpmath.mpf(1), abs(lhs))
        verdict = "pass" if residual < cfg.tolerance else "fail"
        return ResidualReport(identity="multiplication", r=r, p=p, z=zm,
                              lhs=+lhs, rhs=+rhs, residual=+residual,
                              tolerance=cfg.tolerance, verdict=verdict)


# ---------------------------------------------------------------------------
# Convention calibration
# ---------------------------------------------------------------------------

_MULT_ANCHORS = (
    (1, 2, Fraction(1)), (1, 2, Fraction(3, 2)),
    (1, 3, Fraction(1)), (1, 3, Fraction(3, 2)),
    (2, 2, Fraction(2)), (2, 2, Fraction(5, 2)),
)
_ORACLE_ANCHORS = (Fraction(1), Fraction(1, 2), Fraction(2))


def calibrate_conventions(cfg: EvalConfig = EvalConfig()) -> ConventionSet:
    """Check the derived conventions by numeric arbitration.

    Enumerates s_phi in {+1,-1}, sigma_phi in {-1,-2}, s_R in {+1,-1} and
    keeps the combinations for which (a) the multiplication residuals at
    r=1, p in {2,3} and r=2, p=2 anchors vanish within tolerance, and
    (b) log Gamma_1 via G_1/R_1 matches the Hurwitz-zeta oracle.  The
    expensive log values are shared across all eight candidates.  Raises
    CalibrationError (with the full residual table) unless DERIVED is the
    only survivor; returns DERIVED with its residuals as evidence.
    """
    candidates = [
        ConventionSet(s_phi=sp, sigma_phi=Fraction(sg), s_R=sr)
        for sp in (1, -1) for sg in (-1, -2) for sr in (1, -1)
    ]
    with mpmath.workdps(cfg.precision.working_dps):
        oracle_vals = {zq: barnes_zeta_oracle(1, zq, cfg.precision).value
                       for zq in _ORACLE_ANCHORS}
        rows = []
        survivors = []
        for cand in candidates:
            evidence = []
            worst = mpmath.mpf(0)
            for r, p, zq in _MULT_ANCHORS:
                rep = multiplication_residual(r, p, zq, cfg, conventions=cand)
                evidence.append({
                    "anchor": "multiplication", "r": r, "p": p, "z": str(zq),
                    "residual": float(rep.residual),
                })
                worst = max(worst, rep.residual)
            for zq in _ORACLE_ANCHORS:
                got = log_gamma_r(1, zq, cfg, conventions=cand).value
                resid = abs(got - oracle_vals[zq]) / max(mpmath.mpf(1), abs(oracle_vals[zq]))
                evidence.append({
                    "anchor": "oracle", "r": 1, "p": 1, "z": str(zq),
                    "residual": float(resid),
                })
                worst = max(worst, resid)
            rows.append((cand, worst, evidence))
            if worst < cfg.tolerance:
                survivors.append((cand, evidence))

    if [cand for cand, _ in survivors] != [DERIVED]:
        table = "\n".join(
            f"  s_phi={cand.s_phi:+d} sigma_phi={cand.sigma_phi} s_R={cand.s_R:+d}"
            f"  worst residual = {float(worst):.3e}"
            for cand, worst, _ in rows
        )
        raise CalibrationError(
            f"{len(survivors)} convention candidates survive at tolerance "
            f"{cfg.tolerance:.1e} (need exactly 1, s_phi=-1 sigma_phi=-1 s_R=-1); "
            f"residual table:\n{table}")
    return replace(DERIVED, evidence=tuple(survivors[0][1]))
