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
from multigamma.constants import Precision, hurwitz_zeta, hurwitz_zeta_sderiv, zeta_prime_neg

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
# Closed forms
# ---------------------------------------------------------------------------


def test_zeta_2_1_is_pi_squared_over_six():
    with mpmath.workdps(40):
        assert abs(hurwitz_zeta(2, 1, P30) - mpmath.pi**2 / 6) < mpmath.mpf(10) ** -30


def test_zeta_at_zero_is_half_minus_a():
    with mpmath.workdps(40):
        assert abs(hurwitz_zeta(0, 0.5, P30)) < mpmath.mpf(10) ** -30
        for a in (0.3, 1.0, 2.7):
            got = hurwitz_zeta(0, a, P30)
            assert abs(got - (mpmath.mpf("0.5") - mpmath.mpf(a))) < mpmath.mpf(10) ** -29


def test_zeta_at_minus_one_is_bernoulli_quadratic():
    with mpmath.workdps(40):
        assert abs(hurwitz_zeta(-1, 1, P30) + mpmath.mpf(1) / 12) < mpmath.mpf(10) ** -30
        for a in (Fraction(1, 2), Fraction(7, 4), Fraction(3)):
            am = mpf_frac(a)
            expected = -(am**2 - am + mpmath.mpf(1) / 6) / 2
            assert abs(hurwitz_zeta(a=am, s=-1, prec=P30) - expected) < mpmath.mpf(10) ** -29


def test_zeta_at_minus_two_is_bernoulli_cubic():
    # zeta(-n, a) = -B_{n+1}(a)/(n+1)
    with mpmath.workdps(40):
        for a in (Fraction(1), Fraction(5, 3)):
            am = mpf_frac(a)
            expected = -(am**3 - 3 * am**2 / 2 + am / 2) / 3
            assert abs(hurwitz_zeta(-2, am, P30) - expected) < mpmath.mpf(10) ** -29


def test_riemann_consistency_direct_series_bracket():
    # the pure partial sum brackets zeta(s) via integral tail bounds
    with mpmath.workdps(40):
        n_cut = 2000
        for s in (2, 3, 4):
            val = hurwitz_zeta(s, 1, P30)
            partial = sum(mpmath.mpf(n) ** -s for n in range(1, n_cut + 1))
            lo = partial + mpmath.mpf(n_cut + 1) ** (1 - s) / (s - 1)
            hi = partial + mpmath.mpf(n_cut) ** (1 - s) / (s - 1)
            assert lo <= val <= hi
            assert abs(val - mpmath.zeta(s)) < mpmath.mpf(10) ** -30


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


def test_sderiv_matches_central_difference():
    # finite differencing is only a test here, never the implementation
    prec = Precision(digits=24)
    with mpmath.workdps(40):
        h = mpmath.mpf(10) ** -12
        for s, a in ((-0.7, 1.3), (0.25, 0.6), (-2.5, 2.0)):
            fd = (hurwitz_zeta(s + h, a, prec) - hurwitz_zeta(s - h, a, prec)) / (2 * h)
            got = hurwitz_zeta_sderiv(s, a, prec)
            assert abs(got - fd) < mpmath.mpf(10) ** -11


@pytest.mark.parametrize("digits", [30, 60])
def test_complex_a_matches_mpmath(digits):
    # Re a > 0 with a large, a small and a moderate imaginary part
    prec = Precision(digits=digits)
    with mpmath.workdps(digits + 20):
        for a in (mpmath.mpc(1, 150), mpmath.mpc(0.5, -12),
                  mpmath.mpc(mpf_frac(Fraction(343, 11)), mpf_frac(Fraction(24, 5)))):
            for j in range(4):
                bound = mpmath.mpf(10) ** -digits
                want = mpmath.zeta(-j, a)
                assert abs(hurwitz_zeta(-j, a, prec) - want) <= bound * max(1, abs(want)), (a, j)
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
    with mpmath.workdps(40):
        got = hurwitz_zeta(Fraction(-1), Fraction(1), P30)
        assert abs(got + mpmath.mpf(1) / 12) < mpmath.mpf(10) ** -30


def test_domain_errors():
    with pytest.raises(ValueError):
        hurwitz_zeta(1, 1, P30)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, 0, P30)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, -3, P30)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, mpmath.mpc(-1, 2), P30)
    with pytest.raises(ValueError):
        hurwitz_zeta_sderiv(0, mpmath.mpc(-1, 2), P30)
    with pytest.raises(ValueError):
        zeta_prime_neg(-1, P30)
    with pytest.raises(ValueError):
        Precision(digits=5)


def test_zeta_prime_cache_is_stable():
    first = zeta_prime_neg(1, P30)
    second = zeta_prime_neg(1, P30)
    assert first == second


def test_cutoff_doubling_divergence_stop_and_convergence_failure(monkeypatch):
    # At s = -40, a = 30 the first cutoff (8 at 30 digits) leaves correction
    # terms above the target, so _hurwitz_core doubles it once; at 10 digits
    # and s = -35 no cutoff up to 2^11 converges within the order cap.
    cutoffs = []
    real = constants._euler_maclaurin

    def recording(s, a, cutoff, order_cap, target):
        cutoffs.append(cutoff)
        return real(s, a, cutoff, order_cap, target)

    monkeypatch.setattr(constants, "_euler_maclaurin", recording)
    got = hurwitz_zeta_sderiv(-40, 30, P30)
    assert cutoffs == [8, 16]
    with mpmath.workdps(80):
        assert abs(got / mpmath.zeta(-40, 30, 1) - 1) < mpmath.mpf(10) ** -30
    cutoffs.clear()
    with pytest.raises(ArithmeticError, match="failed to converge"):
        hurwitz_zeta_sderiv(-35, 30, Precision(digits=10))
    assert cutoffs == [2**k for k in range(12)]
    # At cutoff 1 the derivative's correction terms at s = 0 shrink to about
    # 1e-6 and then grow factorially: the sum stops after two growing terms
    # instead of running on to the order cap, and reports no convergence.
    with mpmath.workdps(40):
        _, deriv, converged = real(mpmath.mpf(0), mpmath.mpf(1), 1, 200, mpmath.mpf(10) ** -40)
        assert not converged
        assert abs(deriv + mpmath.log(2 * mpmath.pi) / 2) < 1e-5
