"""Numeric evaluation routes checked against each other and external anchors.

The independent anchors: the integer factorial lattice (exact integer
products from the recurrence, computed here with math.factorial), classical
closed forms (Gamma(1/2) = sqrt(pi), the Glaisher-Kinkelin value of the
Barnes function at 1/2), the stacked-difference identity that collapses the
whole hierarchy to log(1+1/z), mpmath's loggamma and barnesg, and the
Hurwitz-zeta-series oracle, which shares no code with the product routes.
Error estimates are treated as part of the contract: the value lies within
err_est of the reference.
"""

import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigamma import evaluate
from multigamma.cli import main as cli_main
from multigamma.constants import Precision, zeta_prime_neg
from multigamma.exact_poly import DERIVED, grj_poly
from multigamma.evaluate import (
    CalibrationError,
    EvalConfig,
    LogValue,
    SingularInputError,
    barnes_zeta_oracle,
    calibrate_conventions,
    euler_partial,
    extrapolate,
    gauss_partial,
    log_g0,
    log_gamma_r,
    log_multigamma,
    multiple_sine,
    multiplication_residual,
    product_extrapolated,
)

# Fast config for bulk checks; the default (digits=30) where a test needs
# the extra headroom.
CFG = EvalConfig(precision=Precision(digits=20))
CFG30 = EvalConfig()


@lru_cache(maxsize=None)
def resolved():
    return calibrate_conventions(CFG)


# ---------------------------------------------------------------------------
# Exact anchors: normalization and the integer lattice
# ---------------------------------------------------------------------------


def test_normalization_at_one_is_exact():
    for r in (1, 2, 3):
        got = log_multigamma(r, 1, CFG)
        assert got.value == 0


def test_gauss_partial_at_zero_argument_is_exactly_zero():
    for n in (1, 4, 32):
        assert gauss_partial(1, 0, n, CFG).value == 0
        assert euler_partial(1, 0, n, CFG).value == 0


def superfactorial(n):
    """G_2(n) = prod_{k <= n-2} k! for integer n >= 2, exactly."""
    acc = 1
    for k in range(1, n - 1):
        acc *= math.factorial(k)
    return acc


def g3_integer(n):
    """G_3(n) for integer n >= 2 by the recurrence G_3(m+1) = G_2(m) G_3(m)."""
    acc = 1
    for m in range(2, n):
        acc *= superfactorial(m)
    return acc


def test_superfactorial_lattice():
    with mpmath.workdps(40):
        for n in range(2, 9):
            want = mpmath.log(superfactorial(n))
            got = log_multigamma(2, n, CFG30)
            assert abs(got.value - want) <= 1e-12 * max(1, abs(want))


def test_third_level_integer_lattice():
    assert [g3_integer(n) for n in range(2, 7)] == [1, 1, 1, 2, 24]
    # The third level inherits the base values of the two below it, the
    # level-1 base entering binom(N, 2) times.
    with mpmath.workdps(40):
        for n in range(2, 7):
            want = mpmath.log(g3_integer(n))
            got = log_multigamma(3, n, CFG30)
            assert abs(got.value - want) <= 2e-11


def test_gamma_at_half_is_sqrt_pi():
    with mpmath.workdps(40):
        want = mpmath.log(mpmath.pi) / 2
        got = log_multigamma(1, mpmath.mpf("0.5"), CFG30)
        assert abs(got.value - want) < 1e-17
        assert abs(got.value - want) <= 10 * got.err_est


def test_barnes_function_at_half_glaisher_form():
    # G_2(1/2) = 2^(1/24) e^(1/8) pi^(-1/4) A^(-3/2), ln A = 1/12 - zeta'(-1)
    with mpmath.workdps(40):
        ln_a = mpmath.mpf(1) / 12 - zeta_prime_neg(1)
        want = (mpmath.log(2) / 24 + mpmath.mpf(1) / 8
                - mpmath.log(mpmath.pi) / 4 - 3 * ln_a / 2)
        got = log_multigamma(2, mpmath.mpf("0.5"), CFG30)
        assert abs(got.value - want) < 1e-15


# ---------------------------------------------------------------------------
# Recurrence and cross-route consistency
# ---------------------------------------------------------------------------


RECURRENCE_GRID = [mpmath.mpf("0.5"), mpmath.mpf("1.5"), mpmath.mpf("2.5"), mpmath.mpc(1, 1)]


def test_recurrence_residual_on_grid():
    with mpmath.workdps(40):
        for r in (1, 2, 3):
            bound = 1e-12 if r <= 2 else 1e-10  # third level: amplified bases
            for z in RECURRENCE_GRID:
                lhs = log_multigamma(r, z + 1, CFG).value
                rhs = log_multigamma(r - 1, z, CFG).value + log_multigamma(r, z, CFG).value
                assert abs(lhs - rhs) < bound, (r, z)


def test_stacked_differences_collapse_to_log_ratio():
    # Applying the forward difference r+1 times to log G_r peels one level
    # per application and lands on log G_0(z+1) - log G_0(z) = log(1 + 1/z).
    with mpmath.workdps(40):
        for r in (1, 2, 3):
            bound = 1e-11 if r <= 2 else 1e-9  # third level: amplified bases
            for z0 in (mpmath.mpf("0.7"), mpmath.mpf("1.3")):
                acc = mpmath.mpf(0)
                for k in range(r + 2):
                    sign = (-1) ** (r + 1 - k)
                    acc += sign * math.comb(r + 1, k) * log_multigamma(r, z0 + k, CFG).value
                assert abs(acc - mpmath.log(1 + 1 / z0)) < bound, (r, z0)


def test_gauss_and_euler_partials_agree_to_rounding():
    # Algebraically identical partial values accumulated in different orders.
    with mpmath.workdps(40):
        for z in (mpmath.mpf("0.5"), mpmath.mpc("1.5", "0.5")):
            for r in (1, 2):
                for n in (16, 128, 1024):
                    g = gauss_partial(r, z, n, CFG).value
                    e = euler_partial(r, z, n, CFG).value
                    assert abs(g - e) <= 1e-22 * max(1, abs(g)), (r, z, n)


def bracket_from_loggamma(r, z, n):
    """log of the N-th Gauss bracket for G_r(z+1), r = 1 or 2, from loggamma.

    prod_{m<=N} G_{r-1}(m)/G_{r-1}(z+m) * prod_{k<r} G_k(N+1)^binom(z, r-k),
    with G_0(x) = x and G_1 = Gamma.
    """
    lg = mpmath.loggamma
    if r == 1:
        return lg(n + 1) + lg(z + 1) - lg(z + n + 1) + z * mpmath.log(n + 1)
    return (mpmath.fsum(lg(m) - lg(z + m) for m in range(1, n + 1))
            + z * (z - 1) / 2 * mpmath.log(n + 1) + z * lg(n + 1))


@pytest.mark.parametrize("digits", [30, 60])
def test_partials_match_the_bracket_summed_from_loggamma(digits):
    # At r = 2 the shifted lattice starts from the completed log G_1(z+1).
    # Its error enters each of the N bracket terms once and the N = 1 bracket
    # once, so p(N) - N p(1) is compared, in which it cancels.  z = -7/4 has
    # z+1 < 0: a sweep that drops that term's i pi flips the sign of exp.
    cfg = EvalConfig(precision=Precision(digits=digits))
    n = 2**10
    for z in (Fraction(29, 4), Fraction(-7, 4), mpmath.mpc(1.5, 0.5)):
        with mpmath.workdps(digits + 20):
            zm = z if isinstance(z, mpmath.mpc) else mpmath.mpf(z.numerator) / z.denominator
            want = {r: bracket_from_loggamma(r, zm, n) - n * bracket_from_loggamma(r, zm, 1)
                    for r in (1, 2)}
        for r in (1, 2):
            for partial in (gauss_partial, euler_partial):
                top, first = partial(r, z, n, cfg).value, partial(r, z, 1, cfg).value
                with mpmath.workdps(digits + 20):
                    rel = abs(mpmath.exp(top - n * first - want[r]) - 1)
                assert rel < mpmath.mpf(10) ** -digits, (r, z, partial.__name__, rel)


def test_single_partial_equals_its_ladder_checkpoint(monkeypatch):
    # The completed product reads its partial at N = 2^11 from the rung
    # memos; gauss_partial sums the same N into a private memo, starting
    # from the same memoized level-1 base, and must give the same value
    # bit for bit.
    z = Fraction(37, 16)
    partials = []
    real_partial = evaluate._partial

    def recording(method, r, *args):
        value, err = real_partial(method, r, *args)
        partials.append((r, value))
        return value, err

    monkeypatch.setattr(evaluate, "_EXTRAP_CACHE", {})
    monkeypatch.setattr(evaluate, "_partial", recording)
    log_multigamma(2, z + 1, CFG30)
    (completed,) = [value for r, value in partials if r == 2]
    single = gauss_partial(2, z, evaluate._N, CFG30).value
    with mpmath.workdps(CFG30.precision.working_dps):
        assert +completed == single


def test_euler_completion_is_its_partial_plus_the_newton_tail():
    # The Euler partial at N = 2^11 equals the Gauss bracket, so the same
    # remainder T_r(z, N+1) completes it; both products meet their err_est.
    bits = evaluate._fixed_bits(CFG30)
    for r in (1, 2):
        for z in (Fraction(1, 2), Fraction(3, 2), (Fraction(-5, 2), Fraction(3))):
            euler = product_extrapolated("euler", r, mp_z(z, CFG30), CFG30)
            gauss = product_extrapolated("gauss", r, mp_z(z, CFG30), CFG30)
            partial = euler_partial(r, mp_z(z, CFG30), evaluate._N, CFG30).value
            with mpmath.workdps(CFG30.precision.working_dps):
                zm = mp_arg(z)
                with mpmath.workprec(evaluate._wide_bits(r, zm, CFG30)):
                    tail, _ = evaluate._newton_tail(r, zm, [(1 << mpmath.mp.prec, 0)], bits)
                assert abs(euler.value - (partial + tail)) <= euler.err_est, (r, z)
                assert abs(euler.value - gauss.value) <= euler.err_est + gauss.err_est, (r, z)


def prime_count(n):
    """pi(n), by trial division."""
    return sum(all(k % p for p in range(2, math.isqrt(k) + 1)) for k in range(2, n + 1))


def test_one_call_takes_one_row_of_logs(monkeypatch):
    # Every level of the shifted lattice derives from the one row log(z+n),
    # n <= N, and only its entries below the series cutoff take a log: with
    # the integer row warm, a product takes a handful (the front door's
    # zeta route adds the logs of its Hurwitz pass).  The integer row
    # takes one log per prime.
    log_multigamma(1, Fraction(7, 2), CFG30)
    calls = []
    real_log = mpmath.log

    def counting(*args, **kwargs):
        calls.append(args)
        return real_log(*args, **kwargs)

    monkeypatch.setattr(mpmath, "log", counting)
    monkeypatch.setattr(evaluate, "_SHIFTED_RUNGS", {})
    product_extrapolated("gauss", 4, Fraction(41, 16) - 1, CFG30)
    assert len(calls) <= 64
    calls.clear()
    monkeypatch.setattr(evaluate, "_SHIFTED_RUNGS", {})
    with mpmath.workdps(CFG30.precision.working_dps):
        product_extrapolated("gauss", 4, mp_arg((Fraction(7, 6), Fraction(1, 4))) - 1, CFG30)
    assert len(calls) <= 64
    calls.clear()
    monkeypatch.setattr(evaluate, "_INT_TABLES", {})
    evaluate._integer_log_table(CFG30, evaluate._N)
    assert len(calls) <= prime_count(evaluate._N + 64) + 64


def test_far_argument_takes_o_n_logs_and_a_short_integer_table(monkeypatch):
    # Past m = 2N the shifted level 0 takes a direct log per entry instead
    # of reading log m from the integer table, so a far z costs O(N) logs and
    # leaves the table O(N) long, not O(Re z).  The front door sees from |z|
    # alone that the products' remainder cannot reach the tolerance, so the
    # zeta route answers without any sweep; a single partial at N still
    # builds its row of N.
    n_top = evaluate._N
    monkeypatch.setattr(evaluate, "_INT_TABLES", {})
    calls = []
    real_log = mpmath.log
    built = []
    real_entries = evaluate._level0_entries

    def counting(*args, **kwargs):
        calls.append(args)
        return real_log(*args, **kwargs)

    def counting_entries(zm, cfg, shift, dr, di, series, ms):
        if zm != 0:  # not the integer lattice
            built.append(len(ms))
        return real_entries(zm, cfg, shift, dr, di, series, ms)

    monkeypatch.setattr(mpmath, "log", counting)
    monkeypatch.setattr(evaluate, "_level0_entries", counting_entries)
    for z in (Fraction(10**7), Fraction(3 * 10**7 + 1, 3)):
        calls.clear()
        built.clear()
        monkeypatch.setattr(evaluate, "_SHIFTED_RUNGS", {})
        got = log_multigamma(1, z, CFG30)
        assert got.method == "zeta" and got.cross_check is None, z
        assert built == [], z
        gauss_partial(1, z, n_top, CFG30)
        assert sum(built) == n_top, z
        assert len(calls) <= 2 * n_top, z
        assert all(len(row0) <= 2 * n_top + 1 for row0 in evaluate._INT_TABLES.values()), z


def test_single_partials_past_the_products_n_keep_the_series(monkeypatch):
    # A partial at N = 2^14 takes the series up to m = 2N, its own top, not
    # up to the products' 2^12: with the integer table warm it takes only
    # the direct logs below the series' first octave, not ~12k past 2^12.
    z, n = Fraction(21, 4), 2**14
    calls = []
    real_log = mpmath.log

    def counting(*args, **kwargs):
        calls.append(args)
        return real_log(*args, **kwargs)

    for r in (1, 2):
        gauss_partial(r, z, n, CFG30)  # warms the integer table and the base
        calls.clear()
        monkeypatch.setattr(mpmath, "log", counting)
        gauss_partial(r, z, n, CFG30)
        euler_partial(r, z, n, CFG30)
        monkeypatch.setattr(mpmath, "log", real_log)
        assert len(calls) <= 64, (r, len(calls))


# Real and complex z: z+n < 0 for small n (-37/3), an integer Re z
# (-11+3i/4, 3+i/4: the modulus series' argument is then |d|^2-small), an
# |Im z| that lifts the series cutoff to m = 2^9 (-5+150i), eval-large's
# size of |Im z| (649/13-62i/9), |d| > 1 with Re z in (-1, 0) (-1/10+9i/10),
# z = 0, where the row is the integer table's own, a z whose row crosses the
# series' top m = 2N (60001/3), and one past it (10^7 + 1/3).
LEVEL0_ARGS = (Fraction(17, 3), Fraction(-37, 3), (Fraction(7, 3), Fraction(-5, 11)),
               (Fraction(-11), Fraction(3, 4)), (Fraction(3), Fraction(1, 4)),
               (Fraction(-5), Fraction(150)), (Fraction(649, 13), Fraction(-62, 9)),
               (Fraction(-1, 10), Fraction(9, 10)), Fraction(0),
               Fraction(60001, 3), Fraction(3 * 10**7 + 1, 3))
LEVEL0_NS = list(range(1, 301)) + list(range(301, 2**14 + 1, 37))


def mp_arg(z):
    """mpf (a Fraction) or mpc (a pair of Fractions) at the current precision."""
    if isinstance(z, tuple):
        return mpmath.mpc(*(mpmath.mpf(x.numerator) / x.denominator for x in z))
    return mpmath.mpf(z.numerator) / z.denominator


def mp_z(z, cfg):
    """mp_arg(z) at cfg's working precision."""
    with mpmath.workdps(cfg.precision.working_dps):
        return mp_arg(z)


def level0_row(zm, cfg, n_max, n_top=None):
    """(re, im) of log(z+n), n = 1..n_max (list index n-1), built cold in one piece
    as a partial at N = n_top (default n_max) builds it."""
    _, shift, dr, di, series = evaluate._shifted_grid(zm, cfg, n_top or n_max)
    return evaluate._level0_entries(zm, cfg, shift, dr, di, series,
                                    range(shift + 1, shift + n_max + 1))


def assert_within_16_ulps(got_re, got_im, want, cfg):
    """got (fixed-point ints on cfg's lattice grid) within 16 2^-p of want."""
    bits = evaluate._fixed_bits(cfg)
    bound = 16 * mpmath.mpf(2) ** -mpmath.libmp.dps_to_prec(cfg.precision.working_dps)
    assert abs(mpmath.mpf((got_re, -bits)) - mpmath.re(want)) <= bound
    assert abs(mpmath.mpf((got_im, -bits)) - mpmath.im(want)) <= bound


@pytest.mark.parametrize("digits", [30, 60])
def test_level0_row_is_within_16_ulps_of_log(digits):
    cfg = EvalConfig(precision=Precision(digits=digits))
    for z in LEVEL0_ARGS:
        with mpmath.workdps(cfg.precision.working_dps):
            zm = mp_arg(z)
            re0, im0 = level0_row(zm, cfg, 2**14)
        with mpmath.workdps(cfg.precision.working_dps + 20):
            for n in LEVEL0_NS:
                assert_within_16_ulps(re0[n - 1], im0[n - 1], mpmath.log(zm + n), cfg)


def prime_factor_count(m):
    """Omega(m): prime factors of m >= 1 counted with multiplicity."""
    count, p = 0, 2
    while p * p <= m:
        while m % p == 0:
            m, count = m // p, count + 1
        p += 1
    return count + (m > 1)


def test_level0_entries_meet_their_stated_bound():
    # _level0_entries: an entry with m = n + floor(Re z) is within
    # (Omega(m) + 2) 2^-bits of log(z+n) in each part, a direct log within
    # (1 + 2^-10 |log(z+n)|) 2^-bits, which is below 2 2^-bits here.
    bits = evaluate._fixed_bits(CFG30)
    for z in LEVEL0_ARGS:
        with mpmath.workdps(CFG30.precision.working_dps):
            zm = mp_arg(z)
            re0, im0 = level0_row(zm, CFG30, 2**14)
        shift = math.floor(z[0] if isinstance(z, tuple) else z)
        with mpmath.workdps(CFG30.precision.working_dps + 20):
            for n in LEVEL0_NS:
                want = mpmath.log(zm + n) * 2**bits
                bound = prime_factor_count(max(1, n + shift)) + 2
                assert abs(re0[n - 1] - mpmath.re(want)) <= bound, (z, n)
                assert abs(im0[n - 1] - mpmath.im(want)) <= bound, (z, n)


@pytest.mark.parametrize("sign, exact", [(1, mpmath.atanh), (-1, mpmath.atan)],
                         ids=["atanh", "atan"])
def test_odd_series_is_within_4_units_of_atanh_and_atan(sign, exact):
    # |t| just below 2^-gain for whole gains, at precisions some of which are
    # multiples of 2 gain: the term count is then as tight as the tail bound
    # allows, and one term fewer misses by up to 2^gain units.  The
    # sum's own error is the tail, the tapered Horner floors, the floor of
    # t^2 and the final floor: below 4 units of 2^-prec.
    for prec in (40, 60, 100, 161, 200, 256):
        with mpmath.workprec(prec + 40):
            for gain in range(1, 31):
                t0 = (1 << (prec - gain)) - 3
                row = [t0, -t0, t0 // 3, -(t0 // 5), t0 >> 7, 1, 0]
                got = evaluate._odd_series(row, sign, prec, prec, t0)
                for t, y in zip(row, got):
                    assert abs(y - exact(mpmath.mpf(t) / 2**prec) * 2**prec) <= 4, (prec, gain, t)


def test_level0_row_does_not_depend_on_its_length():
    # The N = 2^11 partial must equal the completed product's bit for bit
    # (test_single_partial_equals_its_ladder_checkpoint), and a walk in the
    # rung memo builds level 0 a few entries at a time: an entry must not
    # depend on where its row starts or stops, only on the top of its series.
    for z in LEVEL0_ARGS:
        with mpmath.workdps(CFG30.precision.working_dps):
            zm = mp_arg(z)
            short = level0_row(zm, CFG30, 2**10, 2**14)
            full = level0_row(zm, CFG30, 2**14)
            _, shift, dr, di, series = evaluate._shifted_grid(zm, CFG30, 2**14)
            block = evaluate._level0_entries(zm, CFG30, shift, dr, di, series,
                                             range(shift + 700, shift + 1800))
        assert short[0] == full[0][:2**10] and short[1] == full[1][:2**10], z
        assert block[0] == full[0][699:1799] and block[1] == full[1][699:1799], z


def shifted_sums_r123(zm, cfg, bases):
    """The rung memo's shifted sums at N = _N, r = 1, 2, 3, with the given level bases."""
    start, end = evaluate._lattice_ends(zm, cfg, 3, evaluate._N, evaluate._SHIFTED_RUNGS)
    return [evaluate._sums_at(r, evaluate._N, start, end, bases[:r - 1]) for r in (1, 2, 3)]


# Walks over z + Z: d = 1/2 from Re z <= 0, where level 0 starts with direct
# logs, to Re z = 19/2; d = 1/2 across floor(Re z) = 16, where it starts
# inside an octave of the series, with steps of 16, the most the memo walks;
# and a complex d.
MEMO_WALKS = ([Fraction(1, 2) + k for k in (0, 3, -2, 9, -7, 0)],
              [Fraction(33, 2) + k for k in (0, -16, 0, 16, 1)],
              [(Fraction(3, 4) + k, Fraction(1, 4)) for k in (0, -3, 2, 5, -1)])
# as many other fractional parts as the memo holds besides the walk's,
# touched between the steps of a walk
OTHER_DS = [Fraction(k, 11) + 2 for k in range(1, evaluate._SHIFTED_KEYS)]


@pytest.mark.parametrize("digits", [30, 60])
def test_rungs_walked_in_the_memo_equal_a_cold_sweep(digits, monkeypatch):
    # Each step of a walk finds its d held at another shift and walks the
    # two held end points there; its shifted sums at every level must equal
    # a cold sweep's bit for bit.
    cfg = EvalConfig(precision=Precision(digits=digits))
    bases = [(-(3 << 150), 5 << 140), (7 << 149, -(1 << 151))]
    built = []
    real_entries = evaluate._level0_entries

    def counting(zm, cfg, shift, dr, di, series, ms):
        built.append(len(ms))
        return real_entries(zm, cfg, shift, dr, di, series, ms)

    monkeypatch.setattr(evaluate, "_level0_entries", counting)
    monkeypatch.setattr(evaluate, "_SHIFTED_RUNGS", {})
    with mpmath.workdps(cfg.precision.working_dps):
        for walk in MEMO_WALKS:
            for step, z in enumerate(walk):
                zm = mp_arg(z)
                built.clear()
                warm = shifted_sums_r123(zm, cfg, bases)
                if step:
                    # the two held end points walked |k| <= 16 steps each
                    assert sum(built) <= 2 * 16, (z, built)
                assert len(evaluate._SHIFTED_RUNGS) <= evaluate._SHIFTED_KEYS
                held = evaluate._SHIFTED_RUNGS
                monkeypatch.setattr(evaluate, "_SHIFTED_RUNGS", {})
                cold = shifted_sums_r123(zm, cfg, bases)
                monkeypatch.setattr(evaluate, "_SHIFTED_RUNGS", held)
                assert warm == cold, (digits, z)
                for other in OTHER_DS:
                    evaluate._lattice_ends(mp_arg(other), cfg, 3, evaluate._N,
                                           evaluate._SHIFTED_RUNGS)


def test_rung_memo_keeps_the_latest_fractional_parts_only(monkeypatch):
    monkeypatch.setattr(evaluate, "_SHIFTED_RUNGS", {})
    keys = evaluate._SHIFTED_KEYS
    with mpmath.workdps(CFG30.precision.working_dps):
        zs = [mp_arg(Fraction(k, 23) + 5) for k in range(1, 21)]
        for zm in zs:
            evaluate._lattice_ends(zm, CFG30, 3, evaluate._N, evaluate._SHIFTED_RUNGS)
        assert [key for key in evaluate._SHIFTED_RUNGS] == [
            evaluate._shifted_grid(zm, CFG30)[0] for zm in zs[-keys:]]
    # each key holds its end points s+1 and s+N+1: three levels in two parts
    assert evaluate.cache_info()["_SHIFTED_RUNGS"] == {
        "keys": keys, "tuples": keys * 2, "ints": keys * 2 * 6}


def test_integer_table_grown_in_pieces_equals_one_build(monkeypatch):
    # The integer lattice keeps level 0 alone, and it must be what one full
    # build gives, however it was grown.
    top = 2**14 + 13
    monkeypatch.setattr(evaluate, "_INT_TABLES", {})
    row0 = list(evaluate._integer_log_table(CFG30, top))
    monkeypatch.setattr(evaluate, "_INT_TABLES", {})
    evaluate._integer_log_table(CFG30, 100)
    assert evaluate._integer_log_table(CFG30, top) == row0
    # n <= 300 covers primes and composites, then every 37th and the last entry
    with mpmath.workdps(CFG30.precision.working_dps + 20):
        for n in LEVEL0_NS + [top]:
            assert_within_16_ulps(row0[n], 0, mpmath.log(n), CFG30)


@pytest.mark.parametrize("digits", [30, 60])
def test_integer_rungs_equal_the_levels_streamed_from_level_0(digits, monkeypatch):
    # The levels above level 0 are read at N+1 as the z = 0 lattice of
    # _lattice_ends, memoized in _INT_RUNGS: its running sums at m = N+1
    # must be log G_k(N+1), the exact sums _integer_levels streams,
    # whichever depth the memo was filled with first.
    cfg = EvalConfig(precision=Precision(digits=digits))
    n = evaluate._N
    row0 = evaluate._integer_log_table(cfg, n + 1)
    levels = [list(islice(evaluate._integer_levels(row0, k), n + 1)) for k in range(5)]
    monkeypatch.setattr(evaluate, "_INT_RUNGS", {})
    with mpmath.workdps(cfg.precision.working_dps):
        for r in (1, 2, 3, 4):
            start, end = evaluate._lattice_ends(mpmath.mpf(0), cfg, r, n, evaluate._INT_RUNGS)
            assert start == ((0,) * len(start[0]),) * 2
            assert end[1] == (0,) * len(end[1])
            for k in range(1, r + 1):
                assert end[0][k - 1] == levels[k][n], (r, k)
                assert evaluate._sums_at(k, n, start, end, ()) == (levels[k][n], 0), (r, k)


def test_integer_caches_hold_one_row_per_precision_for_four_precisions(monkeypatch):
    # After r = 4 sweeps, each precision holds level 0 as its one row, and
    # the integer rung memo one key at shift 0: the points at m = 1 and at
    # N+1, four running sums in two parts each.
    monkeypatch.setattr(evaluate, "_INT_TABLES", {})
    monkeypatch.setattr(evaluate, "_INT_RUNGS", {})
    monkeypatch.setattr(evaluate, "_EXTRAP_CACHE", {})
    for digits in (30, 60):
        log_multigamma(4, Fraction(7, 3), EvalConfig(precision=Precision(digits=digits)))
    info = evaluate.cache_info()
    assert info["_INT_TABLES"]["rows"] == len(evaluate._INT_TABLES) == 2
    for row0 in evaluate._INT_TABLES.values():
        assert row0[0] is None and all(type(x) is int for x in row0[1:])
    assert info["_INT_TABLES"]["entries"] == sum(len(row0) - 1
                                                 for row0 in evaluate._INT_TABLES.values())
    points = 2
    assert info["_INT_RUNGS"] == {"keys": 2, "tuples": 2 * points, "ints": 2 * points * 8}
    assert all(shift == 0 for shift, _ in evaluate._INT_RUNGS.values())
    assert set(info) == {"_INT_TABLES", "_INT_RUNGS", "_EXTRAP_CACHE", "_SHIFTED_RUNGS",
                         "_LOG_DIFFS", "constants.zeta_prime_neg", "_barnes_polys"}
    assert info["_LOG_DIFFS"] == {"rows": 1, "entries": len(evaluate._LOG_DIFFS[2])}
    # a fifth precision evicts the least recently used row; the rung memo
    # keeps up to _SHIFTED_KEYS precisions, most recently used last
    cfgs = {d: EvalConfig(precision=Precision(digits=d)) for d in (10, 11, 12, 13, 14)}
    monkeypatch.setattr(evaluate, "_INT_TABLES", {})
    monkeypatch.setattr(evaluate, "_INT_RUNGS", {})
    for digits in (10, 11, 12, 13, 10, 14):
        # as a product reads them, up to N+1
        evaluate._integer_log_table(cfgs[digits], evaluate._N + 1)
        evaluate._lattice_ends(mpmath.mpf(0), cfgs[digits], 3, evaluate._N, evaluate._INT_RUNGS)
    dps = {d: cfgs[d].precision.working_dps for d in cfgs}
    assert list(evaluate._INT_TABLES) == [dps[d] for d in (12, 13, 10, 14)]
    assert [key[0] for key in evaluate._INT_RUNGS] == [dps[d] for d in (11, 12, 13, 10, 14)]


def test_cold_r4_call_sums_the_integer_lattice_once(monkeypatch):
    # The bases read the integer lattice at level 3 at most; it is filled
    # at the caller's depth 4 first, so no level sweeps it again from
    # m = 1: N entries in all, not 2N.
    for memo in ("_INT_RUNGS", "_SHIFTED_RUNGS", "_EXTRAP_CACHE"):
        monkeypatch.setattr(evaluate, memo, {})
    built = []
    real_entries = evaluate._level0_entries

    def counting(zm, cfg, shift, dr, di, series, ms):
        if zm == 0:  # the integer lattice
            built.append(len(ms))
        return real_entries(zm, cfg, shift, dr, di, series, ms)

    monkeypatch.setattr(evaluate, "_level0_entries", counting)
    assert log_multigamma(4, Fraction(7, 3), CFG30).method == "gauss"
    assert sum(built) == evaluate._N


def test_single_partials_leave_the_rung_memos_as_they_were():
    # A single partial sums both lattices into a private memo, so 200
    # distinct N add no point to either rung memo.
    before = evaluate.cache_info()
    for n in range(1000, 1200):
        (gauss_partial if n % 2 else euler_partial)(1, Fraction(7, 2), n, CFG30)
    after = evaluate.cache_info()
    for memo in ("_INT_RUNGS", "_SHIFTED_RUNGS"):
        assert after[memo] == before[memo], memo


def test_extrapolation_memo_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(evaluate, "_EXTRAP_CACHE", {})
    monkeypatch.setattr(evaluate, "_EXTRAP_KEYS", 3)
    first, second, third = (product_extrapolated("gauss", 1, z, CFG) for z in (2, 3, 4))
    # a hit returns the memoized object and makes it the most recently used
    assert product_extrapolated("gauss", 1, 2, CFG) is first
    product_extrapolated("gauss", 1, 5, CFG)
    assert len(evaluate._EXTRAP_CACHE) == 3
    assert product_extrapolated("gauss", 1, 2, CFG) is first
    assert product_extrapolated("gauss", 1, 4, CFG) is third
    # z = 3, the least recently used, was evicted and is swept again
    again = product_extrapolated("gauss", 1, 3, CFG)
    assert again is not second and again == second
    assert len(evaluate._EXTRAP_CACHE) == 3


def test_cold_r4_product_peaks_below_three_level0_rows(monkeypatch):
    # No shifted level is kept: a cold r = 4 product builds level 0 over
    # m = s+1..s+N once, sums it level by level and keeps the running sums
    # at m = s+1 and s+N+1 only, so its traced peak stays below three
    # level-0 rows of N entries.  Holding every level row would put it
    # above four.
    with mpmath.workdps(CFG30.precision.working_dps):
        zm = mp_arg((Fraction(7, 6), Fraction(1, 4)))
        # warms the integer row, the end points and mpmath's caches
        product_extrapolated("gauss", 4, zm, CFG30)
        tracemalloc.start()
        try:
            row = level0_row(zm, CFG30, evaluate._N)
            row_size = tracemalloc.get_traced_memory()[0]
            del row
            monkeypatch.setattr(evaluate, "_EXTRAP_CACHE", {})
            monkeypatch.setattr(evaluate, "_SHIFTED_RUNGS", {})
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            product_extrapolated("gauss", 4, zm, CFG30)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak < 3 * row_size, (peak, row_size)


def test_three_routes_agree_within_stated_errors():
    with mpmath.workdps(CFG30.precision.working_dps):
        z = mpmath.mpf(21)
        for r in (1, 2, 3):
            routes = [product_extrapolated("gauss", r, z - 1, CFG30),
                      product_extrapolated("euler", r, z - 1, CFG30),
                      evaluate._log_multigamma_zeta(r, z, CFG30)]
            for i, a in enumerate(routes):
                for b in routes[i + 1:]:
                    assert abs(a.value - b.value) <= 10 * max(a.err_est, b.err_est), (r, a, b)


@settings(max_examples=12, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=2),
    z=st.floats(min_value=0.2, max_value=3.0, allow_nan=False, allow_infinity=False),
)
def test_recurrence_property(r, z):
    with mpmath.workdps(30):
        zm = mpmath.mpf(z)
        lhs = log_multigamma(r, zm + 1, CFG).value
        rhs = log_multigamma(r - 1, zm, CFG).value + log_multigamma(r, zm, CFG).value
        assert abs(lhs - rhs) < 1e-11


def test_complex_and_real_inputs_agree_on_the_real_axis():
    with mpmath.workdps(30):
        a = log_multigamma(2, mpmath.mpf(2.5), CFG).value
        b = log_multigamma(2, mpmath.mpc(2.5, 0), CFG).value
        assert abs(a - b) < 1e-18


# ---------------------------------------------------------------------------
# Extrapolation helper
# ---------------------------------------------------------------------------


def lv(x, method="gauss"):
    return LogValue(value=mpmath.mpf(x), method=method, err_est=None)


def test_extrapolate_constant_sequence():
    with mpmath.workdps(30):
        out = extrapolate([lv(3)] * 5, order=2)
        assert out.value == 3
        assert out.err_est == 0


def test_extrapolate_kills_pure_1_over_n_term():
    with mpmath.workdps(30):
        seq = [lv(1 + mpmath.mpf(1) / n) for n in (64, 128, 256, 512)]
        out = extrapolate(seq, order=1)
        assert abs(out.value - 1) < mpmath.mpf(10) ** -25


def test_extrapolate_rejects_mixed_tags_and_short_ladders():
    with mpmath.workdps(30):
        with pytest.raises(ValueError, match="mixed method tags"):
            extrapolate([lv(1, "gauss"), lv(1, "euler")], order=0)
        with pytest.raises(ValueError, match="at least order"):
            extrapolate([lv(1)] * 3, order=4)
        with pytest.raises(ValueError, match=">= 0"):
            extrapolate([lv(1)] * 3, order=-1)


# ---------------------------------------------------------------------------
# Hurwitz-zeta route: accuracy, honesty of the error model, route choice
# ---------------------------------------------------------------------------


def branch_free_distance(a, b):
    """|a - b| with the imaginary part reduced modulo 2 pi."""
    d = a - b
    k = mpmath.nint(mpmath.im(d) / (2 * mpmath.pi))
    return abs(d - 2j * mpmath.pi * k)


def test_shifted_route_estimate_covers_actual_error_r1():
    # The zeta route anchors at z + M right of the imaginary axis and walks
    # down M steps with principal logs: the same branch as mpmath.loggamma.
    for z in (Fraction(20), Fraction(-37, 3), (Fraction(-5), Fraction(150))):
        with mpmath.workdps(CFG30.precision.working_dps):
            zm = mp_arg(z)
            got = evaluate._log_multigamma_zeta(1, zm, CFG30)
        with mpmath.workdps(60):
            assert abs(got.value - mpmath.loggamma(zm)) <= got.err_est < 1e-25, z


def test_zeta_route_descent_estimate_covers_actual_error():
    # 41 descent steps at r = 2 against mpmath's Barnes G (whose log is
    # principal, hence the branch-free distance)
    for z in ((Fraction(-81, 2), Fraction(1, 4)), Fraction(-81, 2)):
        with mpmath.workdps(CFG30.precision.working_dps):
            zm = mp_arg(z)
            got = evaluate._log_multigamma_zeta(2, zm, CFG30)
        with mpmath.workdps(60):
            want = mpmath.log(mpmath.barnesg(zm))
            assert branch_free_distance(got.value, want) <= got.err_est < 1e-20, z


def test_zeta_route_makes_one_hurwitz_pass_at_w(monkeypatch):
    # r = 4 needs zeta_H'(-j, w) for j = 0..3: one pass gives all four, and
    # no per-j call runs.  w = z + 3 is the first point with Re w > 0.
    passes = []
    real = evaluate.hurwitz_zeta_sderivs
    monkeypatch.setattr(evaluate, "hurwitz_zeta_sderivs",
                        lambda j_max, a, prec: passes.append((j_max, a)) or real(j_max, a, prec))
    monkeypatch.setattr(evaluate, "hurwitz_zeta_sderiv", None)  # calling it would fail
    with mpmath.workdps(CFG30.precision.working_dps):
        zm = mp_arg((Fraction(-5, 2), Fraction(1, 4)))
        got = evaluate._log_multigamma_zeta(4, zm, CFG30)
    assert passes == [(4, zm + 3)]
    cfg60 = EvalConfig(precision=Precision(digits=60))
    with mpmath.workdps(cfg60.precision.working_dps):
        want = evaluate._log_multigamma_zeta(4, mp_arg((Fraction(-5, 2), Fraction(1, 4))), cfg60)
        assert abs(got.value - want.value) <= got.err_est < 1e-25


def test_front_door_prefers_product_route_at_small_arguments():
    got = log_multigamma(2, 4, EvalConfig())
    assert got.method == "gauss"
    assert got.cross_check is not None
    with mpmath.workdps(40):
        assert abs(got.value - mpmath.log(2)) < 1e-15


def test_front_door_switches_to_shifted_route_far_out():
    got = log_multigamma(1, mpmath.mpf(5001), CFG30)
    with mpmath.workdps(40):
        assert got.method == "zeta"
        assert abs(got.value - mpmath.loggamma(5001)) <= got.err_est <= CFG30.tolerance


def log_lattice(r, n):
    """log G_r(n) for integer n >= 2, r = 2, 3, from the exact integers."""
    if r == 2:
        return mpmath.log(superfactorial(n))
    return mpmath.fsum(mpmath.log(superfactorial(m)) for m in range(2, n))


# Arguments where the Richardson-extrapolated product missed the tolerance
# at 30 digits; the completed product's remainder converges there.
FAR_CASES = [
    (1, Fraction(1114, 3)),
    (1, (Fraction(-500), Fraction(3))),
    (1, (Fraction(-5), Fraction(150))),
    (2, Fraction(200)),
    (3, Fraction(200)),
]


@pytest.mark.parametrize("r,z", FAR_CASES,
                         ids=["G1(1114/3)", "G1(-500+3i)", "G1(-5+150i)", "G2(200)", "G3(200)"])
def test_front_door_meets_the_tolerance_far_out(r, z):
    with mpmath.workdps(CFG30.precision.working_dps):
        zm = mp_arg(z)
    got = log_multigamma(r, zm, CFG30)
    with mpmath.workdps(60):
        want = mpmath.loggamma(zm) if r == 1 else log_lattice(r, int(z))
        assert got.method == "gauss" and got.cross_check is not None
        assert abs(got.value - want) <= got.err_est <= CFG30.tolerance


def test_front_door_raises_when_its_routes_disagree(monkeypatch):
    # At r = 1, z = 45 both routes run on every call and must agree within
    # the sum of their err_est: a zeta route off by 1e-3 is caught.
    real_zeta = evaluate._log_multigamma_zeta

    def off(r, zm, cfg):
        got = real_zeta(r, zm, cfg)
        return replace(got, value=got.value + mpmath.mpf("1e-3"))

    assert log_multigamma(1, 45, CFG30).cross_check is not None
    monkeypatch.setattr(evaluate, "_log_multigamma_zeta", off)
    # the warm-up memoized the true zeta value
    monkeypatch.setattr(evaluate, "_EXTRAP_CACHE", {})
    with pytest.raises(ArithmeticError):
        log_multigamma(1, 45, CFG30)


def count_hurwitz_passes(monkeypatch) -> list:
    """Record the point of each hurwitz_zeta_sderivs pass the evaluator makes."""
    passes = []
    real = evaluate.hurwitz_zeta_sderivs
    monkeypatch.setattr(evaluate, "hurwitz_zeta_sderivs",
                        lambda j_max, a, prec: passes.append(a) or real(j_max, a, prec))
    return passes


@pytest.mark.parametrize("r, z, both", [(2, Fraction(7, 3), True), (1, Fraction(3001), False)],
                         ids=["both-routes", "zeta-only"])
def test_front_door_memoizes_its_zeta_route(r, z, both, monkeypatch):
    # A repeated (r, z, precision) finds the zeta value in _EXTRAP_CACHE and
    # makes no Hurwitz pass; the cross-check still runs on the memoized
    # values, so the result is the same.  Another r or precision is
    # another key, one pass each.
    monkeypatch.setattr(evaluate, "_EXTRAP_CACHE", {})
    passes = count_hurwitz_passes(monkeypatch)
    first = log_multigamma(r, z, CFG30)
    assert len(passes) == 1
    assert (first.cross_check is not None) == both
    again = log_multigamma(r, z, CFG30)
    assert len(passes) == 1
    for got, want in ((again.value, first.value), (again.err_est, first.err_est),
                      (again.cross_check, first.cross_check)):
        assert got == want and type(got) is type(want)
    assert again.method == first.method
    log_multigamma(r + 1, z, CFG30)
    assert len(passes) == 2
    log_multigamma(r, z, EvalConfig(precision=Precision(digits=40)))
    assert len(passes) == 3


# The edges of the benchmark's eval-small domains (Re z at both ends, real
# and complex, |Im z| = 1), the far ends of cli-session's table grids
# (Re z <= 7 at r = 2, <= 11/3 at r = 3) and eval-large's r = 1, 2 domains
# (38 <= |z| <= 56, 30 <= |z| <= 40): the Gauss value answers every one, as
# a cold sweep gives it, after one sweep of the shifted lattice.
GAUSS_DOMAINS = {1: (-12, 12), 2: (-12, 12), 3: (-9, 9), 4: (-3, 4)}
TABLE_EDGES = {2: (Fraction(34, 5),), 3: (Fraction(25, 7),)}
EVAL_LARGE_EDGES = {1: (Fraction(38), Fraction(56), (Fraction(52), Fraction(12))),
                    2: (Fraction(27), Fraction(30), Fraction(40), (Fraction(36), Fraction(12)))}


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_front_door_keeps_the_gauss_value_across_the_small_domains(r, monkeypatch):
    lo, hi = GAUSS_DOMAINS[r]
    args = [Fraction(hi * 13 - 1, 13), Fraction(lo * 13 + 1, 13),
            (Fraction(hi), Fraction(1)), (Fraction(lo), Fraction(-1)),
            *TABLE_EDGES.get(r, ()), *EVAL_LARGE_EDGES.get(r, ())]
    built = []
    real_entries = evaluate._level0_entries

    def counting_entries(zm, cfg, shift, dr, di, series, ms):
        if zm != 0:  # not the integer lattice
            built.append(len(ms))
        return real_entries(zm, cfg, shift, dr, di, series, ms)

    monkeypatch.setattr(evaluate, "_level0_entries", counting_entries)
    for digits in (30, 60):
        cfg = EvalConfig(precision=Precision(digits=digits))
        for z in args:
            with mpmath.workdps(cfg.precision.working_dps):
                zm = mp_arg(z)
                built.clear()
                monkeypatch.setattr(evaluate, "_SHIFTED_RUNGS", {})
                got = log_multigamma(r, zm, cfg)
                # one sweep of the shifted lattice serves every level
                assert sum(built) == evaluate._N, (digits, z)
                # memoized: no level is swept again
                again = log_multigamma(r, zm, cfg)
                assert sum(built) == evaluate._N and again == got, (digits, z)
                # the product again, from a cold sweep
                evaluate._EXTRAP_CACHE.clear()
                monkeypatch.setattr(evaluate, "_SHIFTED_RUNGS", {})
                want = product_extrapolated("gauss", r, zm - 1, cfg)
            assert got.method == "gauss" and got.cross_check is not None, (digits, z)
            assert got.value == want.value and got.err_est == want.err_est, (digits, z)
            assert got.err_est < cfg.tolerance / 10, (digits, z)


@pytest.mark.parametrize("digits", [30, 60])
def test_front_door_values_do_not_depend_on_the_memos(digits, monkeypatch):
    # A walk shaped like verify's: z, z+1, z-1 and z+16 at r = 1..3, real
    # and complex.  Warm, each call reads or walks what the calls before it
    # left in the memos; its value, cross_check and method must be what a
    # call with every memo emptied gives, bit for bit.  err_est agrees to
    # 1e-9 only: a memoized level below r carries the rounding terms of the
    # precision of the call that first completed it.
    cfg = EvalConfig(precision=Precision(digits=digits))
    memos = ("_SHIFTED_RUNGS", "_INT_RUNGS", "_EXTRAP_CACHE")
    for memo in memos:
        monkeypatch.setattr(evaluate, memo, {})
    for z in (Fraction(7, 3), (Fraction(-5, 4), Fraction(1, 3))):
        for r in (1, 2, 3):
            for k in (0, 1, -1, 16):
                with mpmath.workdps(cfg.precision.working_dps):
                    zm = mp_arg(z) + k
                warm = log_multigamma(r, zm, cfg)
                held = {memo: getattr(evaluate, memo) for memo in memos}
                for memo in memos:
                    setattr(evaluate, memo, {})
                cold = log_multigamma(r, zm, cfg)
                for memo, cache in held.items():
                    setattr(evaluate, memo, cache)
                assert warm.method == cold.method, (digits, z, r, k)
                for got, want in ((warm.value, cold.value), (warm.cross_check, cold.cross_check)):
                    assert evaluate._z_key(got) == evaluate._z_key(want), (digits, z, r, k)
                assert abs(warm.err_est - cold.err_est) <= 1e-9 * cold.err_est, (digits, z, r, k)


def test_probe_sends_eval_large_shaped_r2_calls_to_the_zeta_route(monkeypatch):
    # r = 2 at 30 <= |z| <= 40, the arguments that the error probe once
    # handed to the zeta route alone: _newton_reaches lets them through, so
    # the zeta route runs once per call beside the Gauss product, and
    # cross_check is their gap while the Gauss value answers.
    real_zeta = evaluate._log_multigamma_zeta
    zetas = []

    def recording(r, zm, cfg):
        zetas.append(real_zeta(r, zm, cfg))
        return zetas[-1]

    monkeypatch.setattr(evaluate, "_log_multigamma_zeta", recording)
    monkeypatch.setattr(evaluate, "_EXTRAP_CACHE", {})
    for z in (Fraction(30), Fraction(36), Fraction(40), (Fraction(33), Fraction(5))):
        zetas.clear()
        with mpmath.workdps(CFG30.precision.working_dps):
            zm = mp_arg(z)
            assert evaluate._newton_reaches(2, abs(zm - 1), CFG30.tolerance), z
            got = log_multigamma(2, zm, CFG30)
            gauss = product_extrapolated("gauss", 2, zm - 1, CFG30)
            assert len(zetas) == 1, z
            assert got.cross_check == abs(gauss.value - zetas[0].value), z
        assert got.method == "gauss" and got.value == gauss.value, z


def test_probe_lets_the_last_gauss_argument_of_r2_through(monkeypatch):
    # r = 2, z = 27, the last argument that the error probe let through to
    # the Gauss product, keeps the Gauss value, as a cold sweep gives it.
    monkeypatch.setattr(evaluate, "_EXTRAP_CACHE", {})
    got = log_multigamma(2, 27, CFG30)
    monkeypatch.setattr(evaluate, "_EXTRAP_CACHE", {})
    monkeypatch.setattr(evaluate, "_SHIFTED_RUNGS", {})
    want = product_extrapolated("gauss", 2, 26, CFG30)
    assert got.method == "gauss" and got.cross_check is not None
    assert got.value == want.value and got.err_est == want.err_est
    assert got.err_est < CFG30.tolerance / 10


def test_gauss_level_one_base_is_on_the_loggamma_branch():
    # The level-2 product starts its level 1 from the completed level-1
    # product.  Left of the imaginary axis it must continue log along the
    # path of mpmath.loggamma, whose imaginary part is not reduced either.
    for z in (Fraction(-35, 3), (Fraction(-11), Fraction(1, 4)),
              (Fraction(-11), Fraction(-1, 4)), (Fraction(-5), Fraction(20))):
        with mpmath.workdps(CFG30.precision.working_dps):
            zm = mp_arg(z) - 1
            base = product_extrapolated("gauss", 1, zm, CFG30)
            assert abs(base.value - mpmath.loggamma(zm + 1)) <= base.err_est < 1e-30, z


@pytest.mark.parametrize("r", [1, 2, 3])
def test_cross_validation_agrees_left_of_the_imaginary_axis(r):
    # Both routes sum principal logs of z+n, so they land on the same branch.
    for z in ((Fraction(-5, 2), Fraction(3)), Fraction(-37, 3), (Fraction(-5), Fraction(3, 4))):
        with mpmath.workdps(CFG30.precision.working_dps):
            got = log_multigamma(r, mp_arg(z), CFG30)
        assert got.cross_check is not None, z


# The honesty grid: the nine points of the accuracy survey, the arguments
# that the Richardson ladder missed (1114/3, 200, 1333/3, -901/2) and r = 5,
# each at 30 and 60 digits.
HONESTY_GRID = [(1, Fraction(7, 2)), (2, Fraction(26, 3)), (3, Fraction(26, 3)),
                (3, Fraction(-62, 13)), (4, Fraction(10, 3)), (4, (Fraction(7, 6), Fraction(1, 4))),
                (2, (Fraction(-5, 2), Fraction(3))), (3, Fraction(43, 9)), (1, Fraction(-37, 3)),
                (1, Fraction(1114, 3)), (2, Fraction(200)), (3, Fraction(1333, 3)),
                (3, Fraction(-901, 2)), (5, Fraction(5, 2))]


@pytest.mark.parametrize("digits", [30, 60])
def test_honesty_grid_values_lie_within_their_err_est(digits):
    # |value - ref| <= err_est for the Gauss and Euler products and the
    # front door, against the zeta route at 20 more digits, mpmath.loggamma
    # at r = 1 and mpmath.barnesg at r = 2.  At r <= 4 the Gauss error is
    # also below 10^(5-digits).
    cfg = EvalConfig(precision=Precision(digits=digits))
    ref_cfg = EvalConfig(precision=Precision(digits=digits + 20))
    for r, z in HONESTY_GRID:
        zm = mp_z(z, cfg)
        with mpmath.workdps(cfg.precision.working_dps):
            zm1 = zm - 1
        routes = [product_extrapolated("gauss", r, zm1, cfg),
                  product_extrapolated("euler", r, zm1, cfg), log_multigamma(r, zm, cfg)]
        assert routes[-1].method == "gauss", (r, z)
        with mpmath.workdps(ref_cfg.precision.working_dps):
            ref = evaluate._log_multigamma_zeta(r, zm, ref_cfg).value
            for got in routes:
                assert abs(got.value - ref) <= got.err_est, (r, z, got)
                if r == 1:
                    assert abs(got.value - mpmath.loggamma(zm)) <= got.err_est, (r, z)
                if r == 2:
                    want = mpmath.log(mpmath.barnesg(zm))
                    assert branch_free_distance(got.value, want) <= got.err_est, (r, z)
            if r <= 4:
                assert abs(routes[0].value - ref) <= mpmath.mpf(10) ** (5 - digits), (r, z)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(1, math.nan),
                               complex(math.inf, 1), mpmath.mpf("nan"), mpmath.mpc("inf", 0)],
                         ids=["nan", "inf", "-inf", "1+nan*i", "inf+i", "mpf-nan", "mpc-inf"])
def test_non_finite_arguments_are_value_errors(z):
    for call in (lambda: log_multigamma(2, z, CFG),
                 lambda: product_extrapolated("gauss", 2, z, CFG),
                 lambda: gauss_partial(2, z, 16, CFG)):
        with pytest.raises(ValueError, match="z must be finite"):
            call()


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_zeta_route_pins_s_r_by_derivation(r):
    # The zeta route's polynomial, log G_r(w) - (-1)^(r-1) log Gamma_r(w), is
    # s_R sum_j G_{r,j}(w-1) zeta'(-j) with s_R = -1, the derived value.
    prec = CFG30.precision
    with mpmath.workdps(prec.working_dps):
        for zq in (Fraction(1, 2), Fraction(29, 4), Fraction(40)):
            w = mp_arg(zq)
            value, _ = evaluate._zeta_levels(r, w, prec)[r - 1]
            correction = value - (-1) ** (r - 1) * barnes_zeta_oracle(r, zq, prec).value
            grj_sum = mpmath.fsum(grj_poly(r, j).evaluate(w - 1) * zeta_prime_neg(j, prec)
                                  for j in range(r))
            assert abs(correction - (-1) * grj_sum) <= 1e-25 * max(1, abs(grj_sum)), zq
    assert DERIVED.s_R == -1


# ---------------------------------------------------------------------------
# Domain errors
# ---------------------------------------------------------------------------


def test_singular_lattice_points_raise():
    for z in (0, -1, -3):
        with pytest.raises(SingularInputError):
            log_multigamma(1, z, CFG)
        with pytest.raises(SingularInputError):
            log_multigamma(2, z, CFG)


def test_near_lattice_within_guard_band_raises():
    with pytest.raises(SingularInputError):
        log_multigamma(1, mpmath.mpf(-3) + mpmath.mpf("1e-9"), CFG)
    # just outside the band is allowed
    log_multigamma(1, mpmath.mpf(-3) + mpmath.mpf("1e-6"), CFG)


def test_level_zero_only_excludes_the_origin():
    with pytest.raises(SingularInputError):
        log_g0(0)
    got = log_g0(mpmath.mpf("-2.5"))
    with mpmath.workdps(30):
        assert abs(mpmath.im(got.value) - mpmath.pi) < 1e-25


def test_level_zero_err_est_bounds_its_rounding():
    # log G_0 is one log rounded to the working precision: err_est is that
    # rounding's bound, not 0.
    for z in (Fraction(3), Fraction(5, 2), Fraction(-5, 2), (Fraction(1), Fraction(2))):
        zm = mp_z(z, CFG30)
        for got in (log_g0(zm, CFG30.precision), log_multigamma(0, zm, CFG30)):
            with mpmath.workdps(CFG30.precision.working_dps + 40):
                err = abs(got.value - mpmath.log(zm))
            assert got.err_est > 0 and err <= got.err_est, (z, err, got.err_est)


def test_negative_r_rejected():
    with pytest.raises(ValueError):
        log_multigamma(-1, 2, CFG)
    with pytest.raises(ValueError):
        gauss_partial(0, 1, 4, CFG)


def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(tolerance=0.0)
    for tolerance in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            EvalConfig(tolerance=tolerance)


# ---------------------------------------------------------------------------
# Zeta-series oracle
# ---------------------------------------------------------------------------


def test_oracle_matches_normalized_gamma_on_rationals():
    with mpmath.workdps(40):
        for r in (1, 2, 3):
            for zq in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
                want = barnes_zeta_oracle(r, zq, Precision(digits=20)).value
                got = log_gamma_r(r, mpmath.mpf(zq.numerator) / zq.denominator, CFG).value
                assert abs(got - want) < 1e-10, (r, zq)


def test_oracle_level_one_is_loggamma():
    # Gamma_1(z) = Gamma(z)/sqrt(2 pi): the zeta route absorbs the constant.
    with mpmath.workdps(40):
        for z in (Fraction(1, 2), Fraction(2), Fraction(7, 3)):
            got = barnes_zeta_oracle(1, z, Precision(digits=20)).value
            zm = mpmath.mpf(z.numerator) / z.denominator
            want = mpmath.loggamma(zm) - mpmath.log(2 * mpmath.pi) / 2
            assert abs(got - want) < 1e-18


def test_oracle_rejects_nonpositive_arguments():
    with pytest.raises(ValueError):
        barnes_zeta_oracle(1, 0)
    with pytest.raises(ValueError):
        barnes_zeta_oracle(2, Fraction(-1, 2))


# ---------------------------------------------------------------------------
# Normalized gamma, sine, multiplication
# ---------------------------------------------------------------------------


def test_multiple_sine_level_one_closed_form():
    with mpmath.workdps(30):
        s_half = multiple_sine(1, mpmath.mpf("0.5"), CFG)
        assert abs(s_half - mpmath.mpf("0.5")) < 1e-12
        for z in (mpmath.mpf("0.3"), mpmath.mpf("0.7"), mpmath.mpf("1.25")):
            s = multiple_sine(1, z, CFG)
            assert abs(s * 2 * mpmath.sin(mpmath.pi * z) - 1) < 1e-10, z


def test_multiple_sine_level_two_fixed_point():
    with mpmath.workdps(30):
        assert abs(multiple_sine(2, 1, CFG) - 1) < 1e-12


def test_multiplication_residuals_vanish_on_and_off_anchor():
    cases = [(1, 2, "1"), (1, 3, "1.5"), (2, 2, "2.5"), (2, 3, "2")]
    for r, p, z in cases:
        rep = multiplication_residual(r, p, mpmath.mpf(z), CFG)
        assert rep.passed, (r, p, z, rep.residual)
        assert rep.residual < 1e-12


def test_multiplication_residual_fails_with_the_wrong_s_phi():
    # At r = 1 the bracket is the constant s_phi, so s_phi = +1 moves the
    # right side by 2 zeta'(0) = -log(2 pi).
    rep = multiplication_residual(1, 2, Fraction(3, 2), CFG,
                                  conventions=replace(DERIVED, s_phi=1))
    assert not rep.passed and rep.residual > 1, rep.residual


def test_log_gamma_r_with_the_wrong_s_r_moves_by_twice_the_residual_factor():
    # log Gamma_1 = log G_1 - s_R sum_j G_{1,j}(z-1) zeta'(-j), j = 0 alone at
    # r = 1: flipping s_R from the derived -1 to +1 subtracts that sum twice.
    z = Fraction(7, 3)
    got = log_gamma_r(1, z, CFG).value
    wrong = log_gamma_r(1, z, CFG, conventions=replace(DERIVED, s_R=1)).value
    with mpmath.workdps(CFG.precision.working_dps):
        log_r = evaluate._to_mp(grj_poly(1, 0).evaluate(z - 1)) * zeta_prime_neg(0, CFG.precision)
        assert abs(got - wrong - 2 * log_r) < 1e-25


@pytest.mark.parametrize("digits", [30, 60])
def test_log_gamma_r_lies_within_its_err_est(digits):
    # err_est counts the residual factor's zeta'(-j), each within
    # 10^-digits of its own, besides G_r's err_est: at r = 1 and 30 digits
    # zeta'(0) alone puts the value 6e-37 off, and G_1's err_est at z = 40
    # is 2e-40.
    cfg = EvalConfig(precision=Precision(digits=digits))
    for r in (1, 2, 3):
        for z in (Fraction(5, 2), Fraction(7, 3), Fraction(40), Fraction(301, 3)):
            got = log_gamma_r(r, z, cfg)
            want = barnes_zeta_oracle(r, z, Precision(digits=digits + 30)).value
            with mpmath.workdps(digits + 40):
                assert abs(got.value - want) <= got.err_est, (r, z)


def test_multiplication_p_equals_one_is_trivially_exact():
    rep = multiplication_residual(2, 1, mpmath.mpf("1.5"), CFG)
    assert rep.passed


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def test_calibration_finds_the_documented_unique_survivor():
    conv = resolved()
    assert conv == DERIVED
    assert (conv.s_phi, conv.sigma_phi, conv.s_R) == (-1, Fraction(-1), -1)
    assert len(conv.evidence) == 9
    for item in conv.evidence:
        assert set(item) == {"anchor", "r", "p", "z", "residual"}
        assert item["residual"] < 1e-8


def test_calibration_is_idempotent():
    assert calibrate_conventions(CFG) == resolved()


def test_calibration_takes_one_hurwitz_pass_per_argument(monkeypatch):
    # Eight candidates evaluate the same 17 (r, z) at the front door; the
    # memo shares the zeta route's value, so each takes one pass, not one
    # per candidate (200 without the memo).
    monkeypatch.setattr(evaluate, "_EXTRAP_CACHE", {})
    passes = count_hurwitz_passes(monkeypatch)
    calibrate_conventions(CFG30)
    assert len(passes) == 17


def test_calibration_fails_when_its_survivor_is_not_the_derived_set(monkeypatch):
    monkeypatch.setattr(evaluate, "DERIVED", replace(DERIVED, s_R=1))
    with pytest.raises(CalibrationError) as exc:
        calibrate_conventions(CFG)
    assert "1 convention candidates survive" in str(exc.value)


def test_calibration_persists_loadable_file(tmp_path, capsys):
    # calibrate --conventions writes the object it prints
    path = tmp_path / "conv.json"
    argv = ["calibrate", "--precision", str(CFG.precision.digits),
            "--conventions", str(path), "--format", "json"]
    assert cli_main(argv) == 0
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert json.loads(capsys.readouterr().out)["conventions"] == obj
    conv = resolved()
    assert (obj["s_phi"], Fraction(obj["sigma_phi"]), obj["s_R"]) == \
        (conv.s_phi, conv.sigma_phi, conv.s_R)
    assert obj["evidence"] == list(conv.evidence)
    # the file verify reads back is accepted as the derived set
    assert cli_main(["verify", "--suite", "symbolic", "--r-max", "1",
                     "--conventions", str(path)]) == 0
    # byte-stable on a rerun
    first = path.read_bytes()
    assert cli_main(argv) == 0
    assert path.read_bytes() == first


def test_calibration_with_unreachable_tolerance_reports_the_table():
    cfg = EvalConfig(precision=Precision(digits=20), tolerance=1e-300)
    with pytest.raises(CalibrationError) as exc:
        calibrate_conventions(cfg)
    assert "s_phi" in str(exc.value)
