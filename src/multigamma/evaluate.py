"""Numeric evaluation of the Vigneras hierarchy G_r(z).

Three routes are implemented and cross-checked:

* the Gauss infinite product for log G_r(z+1), truncated at N = 2^11 (_N)
  and completed by its exact remainder.  With f_k = log G_k, Delta f_k =
  f_{k-1} and f_0 = log, Newton's forward-difference series of f_r at
  x = N + 1 gives (Noerlund, Vorlesungen ueber Differenzenrechnung, 1924)

      log G_r(z+1) = gauss_partial(r, z, N) + T_r(z, x),
      T_r(z, x)    = sum_{j>=1} binom(z, r+j) Delta^j log x,

  from logs of integers and binomials in z alone; |Delta^j log x| <=
  Gamma(j) Gamma(x) / Gamma(x+j) bounds the terms left out (_tail_bounds);
* the Euler factor-by-factor rearrangement: its N-th partial equals the
  Gauss bracket, accumulated in another order, and the same T_r completes it;
* the Hurwitz-zeta route for log G_r(z): the paper's polynomials G_{r,j}
  give log G_r(w) = sum_j G_{r,j}(w-1) (zeta_H'(-j, w) - zeta'(-j)) at
  w = z + M with Re w > 0 (_zeta_levels), walked back down with the
  defining recurrence G_r(w+1) = G_{r-1}(w) G_r(w).

The front door (log_multigamma) runs both routes, or the zeta route alone
where T_r's bound cannot reach tolerance/10 (|z| near N or beyond).  On top
sit the Hurwitz-zeta oracle for log Gamma_r(z), the raw higher Stirling
formula, the multiple sine, the multiplication-formula residual, and the
calibration of the derived conventions (``exact_poly.ConventionSet``).

Log values are sums of principal logs of factors: the imaginary part is
path-dependent (not reduced modulo 2 pi), and exactness claims attach to
exp(value) and to real parts on the positive real axis.  Every routine sets
mpmath's working precision, which is global: evaluate from one thread at a
time.

The product sweep runs in fixed point (_fixed_bits): level 0, log n and
log(z+n), takes few logs (_integer_log_table, _level0_entries), and the
levels above are exact integer sums of it, kept only at their two end
points m = s+1 and s+N+1, s = floor(Re z) (_lattice_ends, memoized per
fractional part); log G_k(N+1) is z = 0's sum (_sums_at).  Each product
level is completed on its own, on the Gauss levels below it (_completed),
so no value or err_est depends on what the memos held.  A single partial
(gauss_partial, euler_partial) sums its lattices into private memos, an
independent check of the products.
cache_info() reports the module-level caches; cli.py renders the results.
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
    composition_counts,
    grj_poly,
    phi_rj_poly,
    psi_poly,
)
# Not called here; bench/tracing.py wraps it on this module and fails if it is missing.
from .exact_poly import binom_poly  # noqa: F401

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
# The products' truncation, and the point x = N + 1 at which their Newton
# remainder is expanded.
_N = 2**11
_X = _N + 1
# The most terms a Newton remainder takes.
_J_MAX = 256

ComplexLike = Union[int, float, complex, Fraction, Any]


class SingularInputError(ValueError):
    """Input within 10^-8 of a lattice singularity of G_r."""


class CalibrationError(RuntimeError):
    """Convention calibration did not find the derived set as its one survivor."""


# ---------------------------------------------------------------------------
# Value containers and configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LogValue:
    """A logarithm accumulated additively, tagged with its method of origin.

    The imaginary part is the continued log along the accumulation path, not
    reduced modulo 2 pi: the product and zeta routes both sum principal logs
    of z+n, so they land on the same branch.  err_est is an absolute error
    bound, None for a single partial product and the raw asymptotic formula.
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

    precision: the decimal digits asked for (the products' N = 2^11 is fixed).
    tolerance: the absolute error the front door must reach, positive and
    finite: the Gauss value answers where its err_est is below tolerance/10.
    Evaluation sets mpmath's precision, which is global: one thread at a time.
    """

    precision: Precision = Precision()
    tolerance: float = 1e-8

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
    log_coeff = psi_poly(r).shift(1)  # binom(z+1, r) + sum_j B_{j+1}/(j+1) G_{r,j}(z)
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
    """Convert to mpf/mpc at the current working precision; a non-finite z raises ValueError."""
    if isinstance(z, Fraction):
        zm = mpmath.mpf(z.numerator) / z.denominator
    elif isinstance(z, complex):
        zm = mpmath.mpc(z.real, z.imag)
    else:
        zm = mpmath.mpmathify(z)
    if not mpmath.isfinite(zm):
        raise ValueError("z must be finite")
    return zm


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
    """Fractional bits of the fixed-point lattice: the working bits p plus N.bit_length().

    Each level-0 entry lies on the grid 2^-bits <= 2^-p / N, N = _N, so the
    few units by which each misses its log add a few 2^-p over a row of N.
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

# _INT_TABLES[dps][n] = log n scaled by 2^bits (index 0 unused), grown on
# demand, for the _INT_KEYS most recently used working precisions dps.
_INT_TABLES: dict[int, list] = {}
_INT_KEYS = 4


def _evict(cache: dict, keys: int) -> None:
    """Drop cache's least recently inserted keys until at most keys are left."""
    while len(cache) > keys:
        del cache[next(iter(cache))]


def _memoized(cache: dict, keys: int, key, make):
    """cache[key], from make() on a miss, made the most recently used of at most keys."""
    value = cache.pop(key, None)
    if value is None:
        value = make()
    cache[key] = value
    _evict(cache, keys)
    return value


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
    how the table was grown.  The levels above are exact running sums of
    this row: z = 0's lattice (_lattice_ends), or _integer_levels streamed.
    """
    row0 = _memoized(_INT_TABLES, _INT_KEYS, cfg.precision.working_dps, lambda: [None])
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


# _SHIFTED_RUNGS[(dps, exact d)] = (shift s, (start, end)): the running sums
# of the shifted level 0 with fractional part d at m = s+1 and at m = s+N+1,
# N = _N, for the latest s.  At most _SHIFTED_KEYS keys, the least recently
# used evicted first; a later shift less than N/4 from s walks both points
# there.  Key d = 0 is the integer lattice, read at s = 0 for log G_k(N+1).
_SHIFTED_RUNGS: dict[tuple, tuple[int, tuple[tuple, tuple]]] = {}
_SHIFTED_KEYS = 10


def _level0_entries(zm, cfg: EvalConfig, shift: int, dr: int, di: int,
                    series: range, ms: range) -> tuple[list, list]:
    """(re, im) fixed-point rows of log(m + d) for m in ms, z = shift + d.

    The entries with m in series (_shifted_grid; it stops at 2N for the
    partial's N, so the integer table stays O(N) long) are log m from the
    table plus, for d != 0, log(1 + d/m) from _log1p_block, one block per
    octave; d = (dr + i di) 2^-prec.

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
    2^-bits.  Every entry depends on m, d, series and the precision alone,
    not on ms or on z's shift.
    """
    bits = _fixed_bits(cfg)
    prec = bits + _SERIES_GUARD
    lo = min(max(series.start, ms.start), ms.stop)
    hi = max(lo, min(ms.stop, series.stop))
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
                series_re, series_im = _log1p_block(octave, dr, di, prec, bits)
                re0.extend(map(add, log_m[octave.start:octave.stop], series_re))
                im0.extend(repeat(0, len(octave)) if series_im is None else series_im)
    re0.extend(re for re, _ in direct[lo - ms.start:])
    im0.extend(im for _, im in direct[lo - ms.start:])
    return re0, im0


def _shifted_grid(zm, cfg: EvalConfig, n: int = _N) -> tuple[tuple, int, int, int, range]:
    """(memo key, shift, dr, di, series): z's shifted level 0 as _level0_entries builds it.

    z+n = m + d with m = n + shift, shift = floor(Re z), 0 <= Re d < 1; the
    key is (working dps, exact d), and d floored onto 2^-prec, prec = bits +
    _SERIES_GUARD, is (dr + i di) 2^-prec.  The series runs over m from the
    first power of two >= 2^_FIRST_SERIES_OCTAVE and >= 2|d| to 2 max(n, _N)
    for a partial at n; an integer z reads the integer table from m = 1.
    """
    top = 2 * max(n, _N) + 1
    shift = int(mpmath.floor(mpmath.re(zm)))
    re_z, im_z = zm._mpc_ if isinstance(zm, mpmath.mpc) else (zm._mpf_, fzero)
    # exact; z - shift at the working precision can round when -1 < Re z < 0
    d_key = (mpf_sub(re_z, from_int(shift)), im_z)
    key = (cfg.precision.working_dps, d_key)
    if d_key == (fzero, fzero):  # z+n = m: the integer table's own entries
        return key, shift, 0, 0, range(1, top)
    prec = _fixed_bits(cfg) + _SERIES_GUARD
    dr, di = _to_fixed(zm, prec)
    dr -= shift << prec
    d_log2 = math.log2(math.isqrt(dr * dr + di * di) + 2) - prec  # >= log2 |d|
    return key, shift, dr, di, range(1 << max(_FIRST_SERIES_OCTAVE, math.ceil(d_log2) + 1), top)


def _running_sums(levels: Sequence[int], row: list) -> tuple:
    """The running sums len(row) steps after levels, row the level-0 entries over those steps.

    W_k(m+1) = W_k(m) + W_{k-1}(m): each level is one exact running sum of
    the one below, and the top level is only added up.  A part that is 0
    throughout (the imaginary part of a real lattice right of 0) stays 0.
    """
    if not (any(levels) or any(row)):
        return tuple(levels)
    out = []
    for w in levels[:-1]:
        row = list(accumulate(row, initial=w))
        out.append(row.pop())
    return (*out, levels[-1] + sum(row))


def _walked_back(levels: Sequence[int], row: list) -> tuple:
    """The running sums len(row) steps before levels, row the level-0 entries over those steps."""
    levels = list(levels)
    for below in reversed(row):
        for k, w in enumerate(levels):
            levels[k] = below = w - below
    return tuple(levels)


def _lattice_ends(zm, cfg: EvalConfig, depth: int, n: int, memo: dict) -> tuple[tuple, tuple]:
    """(start, end): the running sums of z's shifted level 0 at m = s+1 and m = s+n+1.

    s = floor(Re z); n is _N for the products or a single partial's N, and
    level 0 takes the series up to 2 max(n, _N).  A point is a pair (re, im)
    of tuples (W_1..W_K), K >= max(depth, 3), W_0 = log(z+j) at m = s + j
    (_level0_entries) and W_k the exact running sums above it: W_k(m+1) =
    W_k(m) + W_{k-1}(m).  Memoized in memo (_SHIFTED_RUNGS, read at n = _N
    only, or a single partial's own {}).  A key held at another shift s'
    with 4 |s - s'| < n, at most about a sweep's cost, is walked there from
    the entries between: forward by their running sums, back by
    _walked_back.  One held further away or too shallow is summed again
    from m = s+1, where every W_k is 0, over a row of n entries.
    """
    key, shift, dr, di, series = _shifted_grid(zm, cfg, n)
    depth = max(depth, 3)
    build = partial(_level0_entries, zm, cfg, shift, dr, di, series)
    held_shift, ends = memo.pop(key, (shift, None))
    step = shift - held_shift
    if ends is None or len(ends[0][0]) < depth or 4 * abs(step) >= n:
        start = ((0,) * depth,) * 2
        ends = start, tuple(map(_running_sums, start, build(range(shift + 1, shift + n + 1))))
    elif step:
        walk = _running_sums if step > 0 else _walked_back
        ends = tuple(tuple(map(walk, point, build(range(min(m, m + step), max(m, m + step)))))
                     for m, point in zip((held_shift + 1, held_shift + n + 1), ends))
    memo[key] = (shift, ends)
    _evict(memo, _SHIFTED_KEYS)
    return ends


def _sums_at(r: int, n: int, start: tuple, end: tuple, bases: Sequence[tuple]) -> tuple[int, int]:
    """(re, im) of sum_{m<=n} log G_{r-1}(z+m), fixed-point ints.

    start and end are the running sums at m = s+1 and m = s+n+1, bases
    B_1..B_{r-1} as (re, im) ints.  Level k of the shifted lattice starts
    from B_k and walks the recurrence log G_k(z+m+1) = log G_k(z+m) +
    log G_{k-1}(z+m), so the sum is sum_{k<r} B_k binom(n, r-k) + U_r(n+1),
    U_r the r-fold running sum of level 0 from m = 1, and U_r(n+1) is
    W_r(s+n+1) - sum_{k<=r} W_k(s+1) binom(n, r-k): the same exact integer
    that a row of level r-1 adds up to.
    """
    binoms = [math.comb(n, r - k) for k in range(1, r + 1)]
    return tuple(top[r - 1] - sum(map(mul, binoms, begin))
                 + sum(base[part] * c for base, c in zip(bases, binoms))
                 for part, (begin, top) in enumerate(zip(start, end)))


# ---------------------------------------------------------------------------
# Product routes
# ---------------------------------------------------------------------------


def _wide_bits(r: int, zm, cfg: EvalConfig) -> int:
    """Bits that keep the roundings of a level-r partial and its remainder below the grid:
    their largest terms stay below (|z| + x + r)^(r+1) for |z| < x = N + 1."""
    return _fixed_bits(cfg) + (r + 1) * math.ceil(math.log2(min(abs(zm), _X) + _X + r)) + 16


def _extend_binomials(binoms: list, zm, top: int) -> None:
    """Extend binoms = [binom(z, 0), ...], (re, im) ints scaled by 2^prec (the current
    precision), to m = top by binom(z, m+1) = binom(z, m) (z-m)/(m+1).  z is exact on
    that grid and each step floors twice, so binom(z, m) is within 4m binom(|z| + m, m) units.
    """
    prec = mpmath.mp.prec
    zr, zi = _to_fixed(zm, prec)
    for m in range(len(binoms) - 1, top):
        cr, ci = binoms[m]
        ar = zr - (m << prec)
        binoms.append((((cr * ar - ci * zi) >> prec) // (m + 1),
                       ((cr * zi + ci * ar) >> prec) // (m + 1)))


def _partial(method: str, r: int, zm, cfg: EvalConfig, n: int, start: tuple, end: tuple,
             ints: tuple, below: Sequence[LogValue], binoms: list) -> tuple:
    """(value, err): the log of the N-th partial product at the current precision, and its rounding.

    gauss: sum_{n<=N} [log G_{r-1}(n) - log G_{r-1}(z+n)] + sum_k binom(z, r-k) log G_k(N+1);
    euler: the same, the correction distributed as telescoping ratios
    (G_k(n+1)/G_k(n))^binom(z, r-k), G_{k-1}(n) or (n+1)/n, each floored onto
    the grid.  The second sum comes from the shifted running sums at start
    and end on the bases below (_sums_at), binoms is extended to m = r, and
    log G_k(N+1) the same sum over the end points ints of z = 0, on bases
    log G_j(1) = 0.  A real z < -1 gives a complex value.

    err: each level-0 entry misses by less than e0 = bit_length(2 max(N, _N))
    + 3 units of 2^-bits, a level-k sum at N+1 adds binom(N+k-1, k) of them,
    each floored base costs binom(N, r-k) units, and euler's floored
    exponents cost the ratios' sum, log G_k(N+1), plus a floor per term.
    The mpf arithmetic and the binomials' errors cost (r + 2) 2^(3-prec) per
    unit of the terms' sizes and of binom(|z| + m, m) log G_k(N+1).
    """
    bits = _fixed_bits(cfg)
    shifted = _sums_at(r, n, start, end, [_to_fixed(b.value, bits) for b in below])
    _extend_binomials(binoms, zm, r)
    cplx = isinstance(zm, mpmath.mpc) or zm < -1
    coeffs = [_from_fixed(*binoms[r - k], mpmath.mp.prec, isinstance(zm, mpmath.mpc))
              for k in range(r)]  # binom(z, r-k)
    row0 = _integer_log_table(cfg, n + 1)
    rung = (row0[n + 1], *(_sums_at(k, n, *ints, [(0, 0)] * (k - 1))[0] for k in range(1, r + 1)))
    e0 = (2 * max(n, _N)).bit_length() + 3
    units = 2 * e0 * math.comb(n + r - 1, r) + sum(math.comb(n, r - k) for k in range(1, r))
    units += e0 * mpmath.fsum(abs(c) * math.comb(n + k - 1, k) for k, c in enumerate(coeffs))
    added = [rung[r], 0]
    if method == "euler":
        for k in range(r):
            for part, e in enumerate(_to_fixed(coeffs[k], bits)):
                if e:
                    ratios = (map(sub, islice(row0, 2, None), islice(row0, 1, None)) if k == 0
                              else _integer_levels(row0, k - 1))
                    terms = map(rshift, map(mul, repeat(e), ratios), repeat(bits))
                    added[part] += sum(islice(terms, n))
            units += 2 * (n + (rung[k] >> bits) + 1)
    value = _from_fixed(added[0] - shifted[0], added[1] - shifted[1], bits, cplx)
    corrections = [c * mpmath.mpf((rung[k], -bits)) for k, c in enumerate(coeffs)]
    ceil_z = math.ceil(abs(zm))
    size = abs(value) + mpmath.fsum(map(abs, corrections)) + mpmath.fsum(
        math.comb(ceil_z + r - k, r - k) * mpmath.mpf((rung[k], -bits)) for k in range(r))
    size *= (r + 2) * 4 * mpmath.eps
    if method == "gauss":
        value += mpmath.fsum(corrections)
    return value, units * mpmath.mpf(2) ** -bits + size


# [scale, e, [D_1, D_2, ...]]: D_j 2^-e is within 2^(1-scale) of Delta^j log x, x = _X.
_LOG_DIFFS: list = [0, 0, []]


def _log_differences(terms: int, scale: int) -> tuple[int, list[int]]:
    """(e, diffs): Delta^j log x within 2^(1-scale) as diffs[j-1] 2^-e, x = _X, for j <= terms.

    Delta^j log x = sum_i (-1)^(j-i) binom(j, i) log(x+i) cancels about
    j log2(2x) bits, so each log(x+i), i <= J, is floored onto 2^-(scale+J)
    (within 1.01 units), and their exact differences miss by less than
    1.01 2^j units.  A larger request rebuilds the table with twice the
    terms (at most _J_MAX), if it needs more, and 64 bits to spare.
    """
    held_scale, e, diffs = _LOG_DIFFS
    if len(diffs) < terms or held_scale < scale:
        terms = max(terms, min(2 * len(diffs), _J_MAX)) if len(diffs) < terms else len(diffs)
        scale = max(scale, held_scale) + 64
        e = scale + terms
        with mpmath.workprec(e + 10):
            row = [to_fixed(mpmath.log(_X + i)._mpf_, e) for i in range(terms + 1)]
        diffs = []
        for _ in range(terms):
            row = list(map(sub, row[1:], row[:-1]))
            diffs.append(row[0])
        _LOG_DIFFS[:] = scale, e, diffs
    return e, diffs


def _tail_bounds(k: int, zabs: float):
    """log2 of bounds (u_J, sum_{j>J} u_j) on the terms |binom(z, k+j) Delta^j log x|, J = 1, 2, ...

    For |z| < x - 1, x = _X, from |z| alone: binom(|z| + k + j, k + j) >=
    |binom(z, k+j)|.  From Delta^j log x = (-1)^(j-1) int_0^1 u^(x-1) (1-u)^j
    / (-log u) du and 1 - u <= -log u, |Delta^j log x| <= B(j, x) = Gamma(j)
    Gamma(x) / Gamma(x+j).  With u_j = binom(|z| + k + j, k + j) B(j, x):
    u_{j+1} <= rho_j u_j, rho_j = (|z| + k + j)/(k + j + 1) j/(x + j) <=
    ((k+j)/(k+j+1))^s, s = min(x + 1 - |z|, k + 1) >= 2, so sum_{j>J} u_j <=
    rho_J u_J (1 + (k+J+1)/(s-1)).  One more bit covers the floats' roundings;
    no float overflows.
    """
    log_b = -math.log2(_X)  # log2 B(1, x)
    log_c = sum(math.log2((zabs + m + 1) / (m + 1)) for m in range(k + 1))
    for j in range(1, _J_MAX + 1):
        rho = (zabs + k + j) / (k + j + 1) * j / (_X + j)
        log_u = log_c + log_b
        yield log_u, log_u + math.log2(rho * (1 + (k + j + 1) / min(_X - zabs, k))) + 1
        log_b += math.log2(j / (_X + j))
        log_c += math.log2((zabs + k + j + 1) / (k + j + 1))


def _newton_reaches(r: int, zabs, tolerance: float) -> bool:
    """Whether T_r's bound can fall below tolerance/10 within _J_MAX terms, from |z|, r and N."""
    limit = math.log2(tolerance) - math.log2(10)
    return zabs < _X - 1 and any(tail < limit for _, tail in _tail_bounds(r, float(zabs)))


def _newton_tail(k: int, zm, binoms: list, bits: int) -> tuple:
    """(T_k(z, x), err) at x = _X = N + 1 and the current precision; (0, inf) for |z| >= x - 1.

    The terms stop at the first J whose remainder bound (_tail_bounds) is
    below 2^-bits, or at _J_MAX, and are summed exactly in ints.  err adds
    the bound, the table's error (scaled below 2^-bits), the binomials'
    (binoms, shared with its level's partial) and the final rounding.
    """
    if not abs(zm) < _X - 1:
        return mpmath.mpf(0), mpmath.inf
    for j, (log_u, log_tail) in enumerate(_tail_bounds(k, float(abs(zm))), 1):
        if j == 1:
            log_size = max(log_u, log_tail) + 1  # the terms' sum
        if log_tail < -bits:
            break
    _extend_binomials(binoms, zm, k + j)
    terms = binoms[k + 1:k + j + 1]
    top = math.log2(math.comb(math.ceil(abs(zm)) + k + j, k + j))  # >= log2 |binom(z, k+j')|
    e, diffs = _log_differences(j, bits + math.ceil(top) + j.bit_length() + 1)
    prec = mpmath.mp.prec
    value = _from_fixed(sum(map(mul, (c[0] for c in terms), diffs)),
                        sum(map(mul, (c[1] for c in terms), diffs)), prec + e,
                        isinstance(zm, mpmath.mpc))
    rounding = (abs(value) + 4 * (k + j) * mpmath.ldexp(1, math.ceil(log_size))) * mpmath.eps
    return value, mpmath.ldexp(1, math.ceil(log_tail)) + mpmath.ldexp(1, -bits) + rounding


def _completed(method: str, k: int, zm, cfg: EvalConfig) -> LogValue:
    """log G_k(z+1) as the partial at N = _N plus T_k(z, N+1), rounded to the working
    precision and memoized in _EXTRAP_CACHE per (method, k, precision, exact z).

    A miss sweeps level 0 at depth k first, so that the Gauss bases i < k,
    completed the same way, read its end points from _SHIFTED_RUNGS, and
    reads z = 0's after them at that depth (an integer z shares its key).
    Level k then takes _wide_bits(k) and binomials of its own, so its value
    and err_est depend on method, k, z and the precision alone.  Base i's
    err_est enters times binom(N, k-i).
    """
    def complete() -> LogValue:
        start, end = _lattice_ends(zm, cfg, k, _N, _SHIFTED_RUNGS)
        below = [_completed("gauss", i, zm, cfg) for i in range(1, k)]
        ints = _lattice_ends(mpmath.mpf(0), cfg, len(start[0]), _N, _SHIFTED_RUNGS)
        with mpmath.workprec(_wide_bits(k, zm, cfg)):
            binoms = [(1 << mpmath.mp.prec, 0)]
            value, err = _partial(method, k, zm, cfg, _N, start, end, ints, below, binoms)
            tail, tail_err = _newton_tail(k, zm, binoms, _fixed_bits(cfg))
            value += tail
            err += tail_err + mpmath.fsum(b.err_est * math.comb(_N, k - i)
                                          for i, b in enumerate(below, 1))
        with mpmath.workdps(cfg.precision.working_dps):
            err += abs(value) * mpmath.eps
            return LogValue(value=+value, method=method, err_est=+err)

    return _memoized(_EXTRAP_CACHE, _EXTRAP_KEYS, _extrap_key(method, k, zm, cfg), complete)


def _single_partial(method: str, r: int, z: ComplexLike, n: int, cfg: EvalConfig) -> LogValue:
    """One partial at any N, its lattices summed into private {}s: an independent check
    of the products, equal to theirs bit for bit at N = _N, on the same Gauss bases."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if n < 1:
        raise ValueError("truncation N must be >= 1")
    with mpmath.workdps(cfg.precision.working_dps):
        zm = _to_mp(z)
        _check_not_singular(r, zm + 1)
        below = [_completed("gauss", i, zm, cfg) for i in range(1, r)]
        start, end = _lattice_ends(zm, cfg, r, n, {})
        ints = _lattice_ends(mpmath.mpf(0), cfg, r, n, {})
        with mpmath.workprec(_wide_bits(r, zm, cfg)):
            value, _ = _partial(method, r, zm, cfg, n, start, end, ints, below,
                                [(1 << mpmath.mp.prec, 0)])
        return LogValue(value=+value, method=method)


def gauss_partial(r: int, z: ComplexLike, n: int, cfg: EvalConfig = EvalConfig()) -> LogValue:
    """log of the N-th Gauss bracket for log G_r(z+1), in O(N r) (_single_partial):

    prod_{m<=N} G_{r-1}(m)/G_{r-1}(z+m) * prod_{k<r} G_k(N+1)^binom(z, r-k).
    """
    return _single_partial("gauss", r, z, n, cfg)


def euler_partial(r: int, z: ComplexLike, n: int, cfg: EvalConfig = EvalConfig()) -> LogValue:
    """log of the N-th Euler partial product for log G_r(z+1): the Gauss bracket with its
    correction factors distributed per n as telescoping ratios, another rounding path."""
    return _single_partial("euler", r, z, n, cfg)


def extrapolate(seq: Sequence[LogValue], order: int) -> LogValue:
    """Richardson-extrapolate partial values taken at N, 2N, 4N, ...

    Assumes an asymptotic error expansion in integer powers of 1/N (valid for
    both product routes).  The error estimate is the difference between the
    last two extrapolants on the deepest diagonal.  The library's products
    do not use it: they add their exact remainder instead.
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
    pair = col if len(col) >= 2 else diag if order else [col[-1]] * 2
    err = abs(pair[-1] - pair[-2])
    return LogValue(value=col[-1], method=seq[0].method, err_est=err)


# Completed product values, per (method, r, working dps, exact z), and the
# front door's zeta-route values, method "zeta": at most _EXTRAP_KEYS, the
# least recently used evicted first.
_EXTRAP_CACHE: dict[tuple, LogValue] = {}
_EXTRAP_KEYS = 4096


def _extrap_key(method: str, r: int, zm, cfg: EvalConfig) -> tuple:
    return (method, r, cfg.precision.working_dps, _z_key(zm))


def cache_info() -> dict[str, dict[str, int]]:
    """What each module-level cache holds now.

    A row is a level-0 row of _INT_TABLES (one per precision), a memoized
    LogValue (a completed product or a zeta-route value), the table
    _LOG_DIFFS or a block of four zeta'(-j); entries count the ints or
    values in them.
    For the rung memo: its keys, the integer lattice's among them, the
    points (tuples of running sums) it holds, and the ints in those.
    """
    points = [point for _, ends in _SHIFTED_RUNGS.values() for point in ends]
    zeta_blocks = constants._zeta_prime_block.cache_info().currsize
    diffs = len(_LOG_DIFFS[2])
    return {
        "_INT_TABLES": {"rows": len(_INT_TABLES),
                        "entries": sum(len(row) - 1 for row in _INT_TABLES.values())},
        "_EXTRAP_CACHE": {"rows": len(_EXTRAP_CACHE), "entries": len(_EXTRAP_CACHE)},
        "_SHIFTED_RUNGS": {"keys": len(_SHIFTED_RUNGS), "tuples": len(points),
                           "ints": sum(len(re) + len(im) for re, im in points)},
        "_LOG_DIFFS": {"rows": int(diffs > 0), "entries": diffs},
        "constants.zeta_prime_neg": {"rows": zeta_blocks, "entries": 4 * zeta_blocks},
    }


def product_extrapolated(method: str, r: int, z: ComplexLike,
                         cfg: EvalConfig = EvalConfig()) -> LogValue:
    """log G_r(z+1) as the partial product at N = _N = 2^11 plus its Newton remainder.

    method, "gauss" or "euler", is the partial's accumulation order; both
    take T_r(z, N+1) (_newton_tail) and the completed Gauss products below r
    as level bases (_completed).  err_est is the remainder's bound plus the
    partial's rounding plus each base's err_est times binom(N, r-k),
    infinite for |z| >= N.  Memoized per (method, r, z, precision), the
    same whatever the memos held; every level and method at z, and at z + k
    for |k| < N/4, share one sweep of level 0.
    """
    if method not in ("gauss", "euler"):
        raise ValueError(f"unknown product method {method!r}")
    if r < 1:
        raise ValueError("r must be >= 1")
    with mpmath.workdps(cfg.precision.working_dps):
        zm = _to_mp(z)
        _check_not_singular(r, zm + 1)
        return _completed(method, r, zm, cfg)


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


def _zeta_levels(r: int, wm, prec: Precision) -> list[tuple]:
    """(log G_k(w), err) for k = 1..r, at Re w > 0, from the Hurwitz zeta:
    log G_k(w) = L_k(w) = sum_{j<k} G_{k,j}(w-1) (zeta_H'(-j, w) - zeta'(-j)).

    Proof, with no convention: (1) L_k(1) = 0, as zeta_H'(-j, 1) = zeta'(-j);
    (2) zeta_H'(-j, w+1) = zeta_H'(-j, w) + w^j log w and the telescoping
    law G_{k,j}(w) - G_{k,j}(w-1) = G_{k-1,j}(w-1) (grj_telescoping[m<L])
    give L_k(w+1) - L_k(w) = L_{k-1}(w) + log w sum_j G_{k,j}(w) w^j, L_0 = 0;
    (3) that sum is binom(0, k-1): L_k solves log G_k's recurrence from
    log G_0 = log, so L_k - log G_k is, level by level, 1-periodic and 0 at
    1, and with its (k+1)-th derivative tending to 0 on the real axis, 0.
    One pass gives every zeta_H'(-j, w) (hurwitz_zeta_sderivs).  Each
    product c v summed counts 10^-digits |c| (1 + |v|) towards err: Hurwitz
    promises 10^-digits max(1, |v|), and the guard digits absorb the rounding.
    """
    eps = mpmath.mpf(10) ** -prec.digits
    zetas = hurwitz_zeta_sderivs(r, wm, prec)
    consts = [zeta_prime_neg(j, prec) for j in range(r)]
    levels = []
    for k in range(1, r + 1):
        coeffs = [grj_poly(k, j).evaluate(wm - 1) for j in range(k)]
        pairs = [*zip(coeffs, zetas), *zip([-c for c in coeffs], consts)]
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
    """log G_0(z) = principal log z, err_est its rounding bound |log z| eps."""
    with mpmath.workdps(prec.working_dps):
        zm = _to_mp(z)
        _check_not_singular(0, zm)
        value = mpmath.log(zm)
        return LogValue(value=value, method="exact", err_est=abs(value) * mpmath.eps)


def log_multigamma(r: int, z: ComplexLike, cfg: EvalConfig = EvalConfig()) -> LogValue:
    """log G_r(z) — the front door.

    Where the remainder of the Gauss product at z-1 cannot reach
    tolerance/10 (_newton_reaches, from |z|, r and N alone), the zeta route
    answers alone, cross_check None.  Otherwise both run, their difference
    is cross_check and must not exceed the sum of their err_est
    (ArithmeticError), and the Gauss value answers if its err_est is below
    tolerance/10, the zeta value otherwise.  Both routes' values are
    memoized in _EXTRAP_CACHE per (r, z, precision); the cross-check runs
    on every call.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return log_g0(z, cfg.precision)
    with mpmath.workdps(cfg.precision.working_dps):
        zm = _to_mp(z)
        _check_not_singular(r, zm)
        zeta = _memoized(_EXTRAP_CACHE, _EXTRAP_KEYS, _extrap_key("zeta", r, zm, cfg),
                         partial(_log_multigamma_zeta, r, zm, cfg))
        if not _newton_reaches(r, abs(zm - 1), cfg.tolerance):
            return zeta
        gauss = product_extrapolated("gauss", r, zm - 1, cfg)
        gap = abs(gauss.value - zeta.value)
        if gap > gauss.err_est + zeta.err_est:
            raise ArithmeticError(
                f"product and zeta routes disagree by {mpmath.nstr(gap, 5)} "
                f"(err_est {mpmath.nstr(gauss.err_est, 5)} and {mpmath.nstr(zeta.err_est, 5)}) "
                f"at r={r}, z={mpmath.nstr(zm, 10)}; suspect the implementation")
        return replace(gauss if gauss.err_est < cfg.tolerance / 10 else zeta, cross_check=gap)


# ---------------------------------------------------------------------------
# Hurwitz-zeta oracle and Gamma_r / S_r
# ---------------------------------------------------------------------------


def _exact_fraction(x) -> Fraction:
    """Exact Fraction from int/Fraction/float/mpf (all are dyadic rationals)."""
    if isinstance(x, (Fraction, int, float)):
        return Fraction(x)
    if isinstance(x, mpmath.mpf):
        num, den = mpmath.libmp.to_rational(x._mpf_)
        return Fraction(int(num), int(den))
    raise TypeError(f"cannot convert {type(x).__name__} to an exact Fraction")


def barnes_zeta_oracle(r: int, z, prec: Precision = Precision()) -> LogValue:
    """log Gamma_r(z) = (-1)^(r-1) sum_{j<r} G_{r,j}(z-1) zeta_H'(-j, z), for real z > 0.

    binom(t-z+r-1, r-1) = (-1)^(r-1) sum_j G_{r,j}(z-1) t^j turns the Barnes
    series sum_n binom(n+r-1, r-1) (z+n)^-s into Hurwitz zetas, and the sum
    is its s-derivative at 0, (-1)^(r-1) times _zeta_levels' level r without
    its zeta'(-j) terms, log R_r.  The coefficients are exact; each
    zeta_H'(-j, z) is a hurwitz_zeta_sderiv pass of its own, within
    10^-digits max(1, |value|).  No code is shared with the product routes,
    while the front door's zeta route forms the same sum from one pass for
    all j: a check against this oracle takes its other side from a product.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    zq = _exact_fraction(z)
    if zq <= 0:
        raise ValueError("oracle domain is real z > 0")
    with mpmath.workdps(prec.working_dps):
        zm = _to_mp(zq)
        total = mpmath.mpf(0)
        for j in range(r):
            coeff = (-1) ** (r - 1) * grj_poly(r, j).evaluate(zq - 1)
            if coeff:
                total += _to_mp(coeff) * hurwitz_zeta_sderiv(-j, zm, prec)
        return LogValue(value=+total, method="oracle", err_est=mpmath.mpf(10) ** -prec.digits)


def log_gamma_r(r: int, z: ComplexLike, cfg: EvalConfig = EvalConfig(), *,
                conventions: ConventionSet = DERIVED) -> LogValue:
    """log Gamma_r(z) via G_r and the residual factor R_r.

    G_r(z) = R_r(z) Gamma_r(z)^((-1)^(r-1)) with
    log R_r(z) = s_R sum_j G_{r,j}(z-1) zeta'(-j) (ConventionSet derives s_R).
    conventions is DERIVED except while calibrate_conventions tries its
    candidates.  err_est adds to G_r's the residual factor's: each
    zeta'(-j) is within 10^-digits max(1, |zeta'(-j)|), times |G_{r,j}(z-1)|,
    plus the rounding (|value| + |correction|) eps.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    base = log_multigamma(r, z, cfg)
    with mpmath.workdps(cfg.precision.working_dps):
        correction, err = _residual_sum(r, _to_mp(z), cfg.precision)
        value = _log_gamma_r_value(r, base.value, correction, conventions)
        err += (abs(value) + abs(correction)) * mpmath.eps
        return LogValue(value=+value, method=base.method, err_est=base.err_est + err,
                        cross_check=base.cross_check)


def _residual_sum(r: int, zm, prec: Precision) -> tuple:
    """(sum_j G_{r,j}(z-1) zeta'(-j), its error from the zeta'(-j)): log R_r(z) without s_R."""
    eps = mpmath.mpf(10) ** -prec.digits
    correction = err = mpmath.mpf(0)
    for j in range(r):
        coeff, zeta_j = grj_poly(r, j).evaluate(zm - 1), zeta_prime_neg(j, prec)
        correction += coeff * zeta_j
        err += abs(coeff) * eps * max(1, abs(zeta_j))
    return correction, err


def _log_gamma_r_value(r: int, log_g, correction, conventions: ConventionSet):
    """log Gamma_r(z) from log G_r(z) and _residual_sum's correction, under conventions."""
    return (-1) ** (r - 1) * (log_g - conventions.s_R * correction)


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
        return _multiplication_report(r, p, zm, _multiplication_parts(r, p, zm, cfg),
                                      cfg, conventions)


def _multiplication_parts(r: int, p: int, zm, cfg: EvalConfig) -> tuple:
    """(LHS, psi_r(z) log p, log G_r(z)): the multiplication formula's convention-free parts."""
    lhs = mpmath.mpf(0)
    for s, count in enumerate(composition_counts(p, r)):
        lhs += count * log_multigamma(r, (zm + s) / p, cfg).value
    return lhs, psi_poly(r).evaluate(zm) * mpmath.log(p), log_multigamma(r, zm, cfg).value


def _multiplication_report(r: int, p: int, zm, parts: tuple, cfg: EvalConfig,
                           conventions: ConventionSet) -> ResidualReport:
    """The residual of _multiplication_parts once phi_r(z) under conventions joins the RHS."""
    lhs, psi_log_p, log_g = parts
    phi = mpmath.mpf(0)
    for j in range(r):
        phi += phi_rj_poly(r, j, p, conventions).evaluate(zm) * zeta_prime_neg(j, cfg.precision)
    rhs = phi - psi_log_p + log_g
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
    (b) log Gamma_1 via G_1/R_1 matches the Hurwitz-zeta oracle.  Each
    anchor's convention-free parts (the multiplication formula's LHS,
    psi_r(z) log p and log G_r(z); the oracle, log G_1 and the R_1 sum) are
    computed once, and each candidate adds only its phi_r and s_R terms.  Raises
    CalibrationError (with the full residual table) unless DERIVED is the
    only survivor; returns DERIVED with its residuals as evidence.
    """
    candidates = [
        ConventionSet(s_phi=sp, sigma_phi=Fraction(sg), s_R=sr)
        for sp in (1, -1) for sg in (-1, -2) for sr in (1, -1)
    ]
    with mpmath.workdps(cfg.precision.working_dps):
        mult_parts = {(r, p, zq): _multiplication_parts(r, p, _to_mp(zq), cfg)
                      for r, p, zq in _MULT_ANCHORS}
        oracle_parts = {zq: (barnes_zeta_oracle(1, zq, cfg.precision).value,
                             log_multigamma(1, zq, cfg).value,
                             _residual_sum(1, _to_mp(zq), cfg.precision)[0])
                        for zq in _ORACLE_ANCHORS}
        rows = []
        survivors = []
        for cand in candidates:
            evidence = []
            worst = mpmath.mpf(0)
            for (r, p, zq), parts in mult_parts.items():
                rep = _multiplication_report(r, p, _to_mp(zq), parts, cfg, cand)
                evidence.append({
                    "anchor": "multiplication", "r": r, "p": p, "z": str(zq),
                    "residual": float(rep.residual),
                })
                worst = max(worst, rep.residual)
            for zq, (oracle, log_g, correction) in oracle_parts.items():
                got = _log_gamma_r_value(1, log_g, correction, cand)
                resid = abs(got - oracle) / max(mpmath.mpf(1), abs(oracle))
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
