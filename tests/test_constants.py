"""Hurwitz zeta machinery against closed forms and independent constants.

The derivative constants are cross-checked against two routes that share no
code with the implementation: the Glaisher-Kinkelin limit (Richardson
extrapolated) for zeta'(-1), and the Apery central-binomial series for
zeta(3) feeding zeta'(-2) = -zeta(3)/(4 pi^2).
"""

import math
from fractions import Fraction

import mpmath
import pytest

from multigamma import constants
from multigamma.constants import (Precision, hurwitz_zeta_sderiv, hurwitz_zeta_sderivs,
                                  zeta_prime_neg)

P30 = Precision()


def mpf_frac(q):
    return mpmath.mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def glaisher_log_oracle(dps):
    """ln A from the defining limit, Richardson-extrapolated in 1/n^2.

    ln A = lim_n [ sum_{k<=n} k ln k - (n^2/2 + n/2 + 1/12) ln n + n^2/4 ];
    the error has a pure even-power expansion, so doubling n and eliminating
    powers 1/n^2, 1/n^4, ... in turn converges very fast.
    """
    with mpmath.workdps(dps + 15):
        seq = []
        acc = mpmath.mpf(0)
        prev = 0
        for n in [2**e for e in range(6, 12)]:
            for k in range(prev + 1, n + 1):
                acc += k * mpmath.log(k)
            prev = n
            nn = mpmath.mpf(n)
            seq.append(acc - (nn**2 / 2 + nn / 2 + mpmath.mpf(1) / 12) * mpmath.log(nn) + nn**2 / 4)
        level = 1
        while len(seq) > 1:
            w = mpmath.mpf(4) ** level
            seq = [(w * seq[i + 1] - seq[i]) / (w - 1) for i in range(len(seq) - 1)]
            level += 1
        return seq[0]


def zeta3_oracle(dps):
    """zeta(3) = 5/2 sum_{n>=1} (-1)^(n-1) / (n^3 binom(2n,n)), exact partial sum."""
    terms = math.ceil(dps * math.log(10) / math.log(4)) + 10
    acc = Fraction(0)
    for n in range(1, terms + 1):
        acc += Fraction((-1) ** (n - 1), n**3 * math.comb(2 * n, n))
    with mpmath.workdps(dps + 10):
        return mpf_frac(acc) * mpmath.mpf(5) / 2


# ---------------------------------------------------------------------------
# s-derivatives
# ---------------------------------------------------------------------------


def test_zeta_prime_zero():
    with mpmath.workdps(40):
        expected = -mpmath.log(2 * mpmath.pi) / 2
        assert abs(zeta_prime_neg(0, P30) - expected) < mpmath.mpf(10) ** -30


def test_sderiv_at_zero_half_is_minus_half_log2():
    with mpmath.workdps(40):
        got = hurwitz_zeta_sderiv(0, 0.5, P30)
        assert abs(got + mpmath.log(2) / 2) < mpmath.mpf(10) ** -29


def test_zeta_prime_minus_one_vs_glaisher():
    with mpmath.workdps(45):
        expected = mpmath.mpf(1) / 12 - glaisher_log_oracle(40)
        assert abs(zeta_prime_neg(1, P30) - expected) < mpmath.mpf(10) ** -28


def test_zeta_prime_minus_one_frozen_digits():
    with mpmath.workdps(40):
        frozen = mpmath.mpf("-0.165421143700450929")
        assert abs(zeta_prime_neg(1, P30) - frozen) < mpmath.mpf(10) ** -17


def test_zeta_prime_minus_two_vs_apery():
    with mpmath.workdps(45):
        expected = -zeta3_oracle(40) / (4 * mpmath.pi**2)
        assert abs(zeta_prime_neg(2, P30) - expected) < mpmath.mpf(10) ** -28


@pytest.mark.parametrize("digits", [30, 60])
def test_complex_a_matches_mpmath(digits):
    # Re a > 0 with a large, a small and a moderate imaginary part
    prec = Precision(digits=digits)
    with mpmath.workdps(digits + 20):
        for a in (mpmath.mpc(1, 150), mpmath.mpc(0.5, -12),
                  mpmath.mpc(mpf_frac(Fraction(343, 11)), mpf_frac(Fraction(24, 5)))):
            for j in range(4):
                bound = mpmath.mpf(10) ** -digits
                want = mpmath.zeta(-j, a, 1)
                assert abs(hurwitz_zeta_sderiv(-j, a, prec) - want) <= bound * abs(want), (a, j)


def test_sderiv_at_zero_is_loggamma_past_the_float_range():
    # Re a beyond the largest float: the cutoff is computed in mpmath, and
    # zeta'(0, a) = log Gamma(a) - log(2 pi)/2 holds there as anywhere.
    with mpmath.workdps(60):
        for a in (mpmath.mpf(10) ** 400, mpmath.mpc(mpmath.mpf(10) ** 400, 1),
                  mpmath.mpf(2) ** 1100):
            want = mpmath.loggamma(a) - mpmath.log(2 * mpmath.pi) / 2
            got = hurwitz_zeta_sderiv(0, a, P30)
            assert abs(got - want) <= mpmath.mpf(10) ** -30 * abs(want), a


# ---------------------------------------------------------------------------
# Precision behaviour and errors
# ---------------------------------------------------------------------------


def test_precision_monotonicity():
    with mpmath.workdps(80):
        reference = hurwitz_zeta_sderiv(-1, 1, Precision(digits=60))
        errs = []
        for digits in (15, 25, 35):
            got = hurwitz_zeta_sderiv(-1, 1, Precision(digits=digits))
            err = abs(got - reference)
            assert err < mpmath.mpf(10) ** -digits
            errs.append(err)
        assert errs[1] <= errs[0] and errs[2] <= errs[1]


def test_fraction_inputs_accepted():
    # zeta'(-1, 1/2) = -zeta'(-1)/2 - log(2)/24, from zeta(s, 1/2) = (2^s - 1) zeta(s)
    with mpmath.workdps(40):
        got = hurwitz_zeta_sderiv(Fraction(-1), Fraction(1, 2), P30)
        want = -zeta_prime_neg(1, P30) / 2 - mpmath.log(2) / 24
        assert abs(got - want) < mpmath.mpf(10) ** -30


def test_domain_errors():
    for a in (0, -3, mpmath.mpc(-1, 2)):
        with pytest.raises(ValueError):
            hurwitz_zeta_sderiv(0, a, P30)
        with pytest.raises(ValueError):
            hurwitz_zeta_sderivs(2, a, P30)
    with pytest.raises(ValueError):
        hurwitz_zeta_sderivs(0, 1, P30)
    with pytest.raises(ValueError):
        zeta_prime_neg(-1, P30)
    with pytest.raises(ValueError):
        Precision(digits=5)


def test_zeta_prime_cache_is_stable():
    first = zeta_prime_neg(1, P30)
    second = zeta_prime_neg(1, P30)
    assert first == second


def test_non_integer_s_raises_value_error():
    for s in (2, 1, 0.5, -0.7, -2.5, Fraction(-3, 2), mpmath.mpf("-1.25"), mpmath.mpc(-1, 1)):
        with pytest.raises(ValueError):
            hurwitz_zeta_sderiv(s, 1, P30)
    # integer-valued s of any numeric type is accepted
    for s in (-2, Fraction(-2), mpmath.mpf(-2), -2.0):
        assert hurwitz_zeta_sderiv(s, 1, P30) == zeta_prime_neg(2, P30)


def test_remainder_bound_stops_the_tail_or_raises(monkeypatch):
    # At the planned cutoff the tail stops once the remainder bound is below
    # the target.  At cutoff 0 and a = 1 the bound's minimum over K is about
    # e^(-2 pi), far above 10^-35: the pass raises instead of returning.
    real = constants._cutoff
    monkeypatch.setattr(constants, "_cutoff", lambda js, a, target: (0, 0.0))
    with pytest.raises(ArithmeticError, match="cannot reach"):
        hurwitz_zeta_sderivs(3, 1, P30)
    with pytest.raises(ArithmeticError, match="cannot reach"):
        hurwitz_zeta_sderiv(-20, 1, Precision(digits=10))
    monkeypatch.setattr(constants, "_cutoff", real)
    with mpmath.workdps(60):
        got = hurwitz_zeta_sderivs(3, 1, P30)
        assert all(abs(g - mpmath.zeta(-j, 1, 1)) < mpmath.mpf(10) ** -30 for j, g in enumerate(got))


# ---------------------------------------------------------------------------
# One pass for every j
# ---------------------------------------------------------------------------


# 1/3 + i/2 at 60 digits runs the fixed-point tail at a complex u with 40 to
# 90 terms; at 10 and 30 digits the guard digits can hide an error of its grid.
SDERIV_A = (1, Fraction(1, 3), Fraction(29, 4), mpmath.mpc(1, 150), mpmath.mpc(0.5, -12),
            mpmath.mpc(mpmath.mpf(1) / 3, 0.5))


def _as_mp(a):
    return mpf_frac(a) if isinstance(a, Fraction) else mpmath.mpmathify(a)


@pytest.mark.parametrize("digits", [10, 30, 60])
def test_sderivs_match_mpmath_up_to_j_40(digits):
    # the direct sum cancels about j log10(M + |a|) digits; the pass carries them
    prec = Precision(digits=digits)
    for a in SDERIV_A + (mpmath.mpf(10) ** 400,):
        got = hurwitz_zeta_sderivs(41, a, prec)
        assert len(got) == 41
        with mpmath.workdps(digits + 20):
            for j, value in enumerate(got):
                want = mpmath.zeta(-j, _as_mp(a), 1)
                assert abs(value - want) <= mpmath.mpf(10) ** -digits * max(1, abs(want)), (a, j)


@pytest.mark.parametrize("digits", [10, 30, 60])
def test_one_pass_agrees_with_per_j_calls(digits):
    prec = Precision(digits=digits)
    for a in SDERIV_A:
        together = hurwitz_zeta_sderivs(8, a, prec)
        with mpmath.workdps(digits + 20):
            for j, value in enumerate(together):
                alone = hurwitz_zeta_sderiv(-j, a, prec)
                assert abs(value - alone) <= mpmath.mpf(10) ** -digits * max(1, abs(alone)), (a, j)


def test_pass_runs_again_where_a_value_is_below_its_leading_term(monkeypatch):
    # zeta'(-30, 3) = 5.9e8 lies four digits below 3^31 log 3 / 31 = 2.2e13,
    # the size the first pass assumes; the second pass carries every digit
    # of the largest term.  At a = 6 and j < 21 the first pass suffices.
    passes = []
    real = constants._em_pass

    def recording(*args):
        passes.append(mpmath.mp.dps)
        return real(*args)

    monkeypatch.setattr(constants, "_em_pass", recording)
    got = hurwitz_zeta_sderivs(31, 3, Precision(digits=10))
    assert len(passes) == 2 and passes[0] < passes[1]
    with mpmath.workdps(40):
        for j, value in enumerate(got):
            want = mpmath.zeta(-j, 3, 1)
            assert abs(value - want) <= mpmath.mpf(10) ** -10 * max(1, abs(want)), j
    passes.clear()
    hurwitz_zeta_sderivs(21, 6, Precision(digits=10))
    assert len(passes) == 1


def test_zeta_primes_below_four_take_one_pass(monkeypatch):
    # every j < 4 of a precision comes from one pass at a = 1; j = 5 takes
    # the pass of its own block, 4 <= j < 8
    passes = []
    real = constants._em_pass

    def recording(js, *args):
        passes.append(js)
        return real(js, *args)

    monkeypatch.setattr(constants, "_em_pass", recording)
    prec = Precision(digits=37)  # a precision no other test memoizes
    got = {j: zeta_prime_neg(j, prec) for j in (2, 0, 3, 1, 2)}
    assert passes == [range(4)]
    got[5] = zeta_prime_neg(5, prec)
    assert passes == [range(4), range(4, 8)]
    with mpmath.workdps(60):
        for j, value in got.items():
            want = mpmath.zeta(-j, 1, 1)
            assert abs(value - want) <= mpmath.mpf(10) ** -37 * max(1, abs(want)), j
