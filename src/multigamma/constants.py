"""Arbitrary-precision Hurwitz zeta, its s-derivative, and zeta'(-j).

The evaluators and oracles in this package consume three things from here:
zeta(s, a) off the pole, the partial derivative d/ds zeta(s, a) (needed at
non-positive integer s, where finite differencing would be both slow and
inaccurate), and the derived constants zeta'(-j).

The algorithm is Euler-Maclaurin continuation,

    zeta(s, a) = sum_{n<M} (n+a)^-s  +  (M+a)^(1-s)/(s-1)  +  (M+a)^-s / 2
                 + sum_{k=1..K} B_{2k}/(2k)! * poch(s, 2k-1) * (M+a)^(-s-2k+1),

with the cutoff M and correction order K chosen from the size of the first
omitted term: M starts near 0.4 (digits + GUARD_DIGITS) and doubles until
the corrections fall below the target.  The s-derivative differentiates
every term of the same formula; the Pochhammer derivative is accumulated by
the product rule, which stays finite at negative integer s where a
logarithmic-derivative shortcut would divide by zero.

The parameter a may be complex with Re a > 0: the summand (x+a)^-s is then
analytic on x >= 0 and the same formula holds with principal powers and
logs (for rigorous tail bounds in this setting see Johansson, "Rigorous
high-precision computation of the Hurwitz zeta function and its
derivatives", arXiv:1309.2877).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .exact_poly import _bernoulli_upto

__all__ = ["Precision", "hurwitz_zeta", "hurwitz_zeta_sderiv", "zeta_prime_neg"]


# Decimal digits every evaluation carries past the requested ones.
GUARD_DIGITS = 10


@dataclass(frozen=True)
class Precision:
    """Requested decimal digits; work at digits + GUARD_DIGITS."""

    digits: int = 30

    def __post_init__(self) -> None:
        if self.digits < 10:
            raise ValueError("digits must be >= 10")

    @property
    def working_dps(self) -> int:
        return self.digits + GUARD_DIGITS


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _check_finite(value, what: str):
    if mpmath.isnan(value) or mpmath.isinf(value):
        raise ArithmeticError(f"{what} produced a non-finite value")
    return value


def _euler_maclaurin(s, a, cutoff: int, order_cap: int, target):
    """One Euler-Maclaurin evaluation of zeta(s, a) and d/ds zeta(s, a) at fixed cutoff.

    Returns (value, deriv, converged) where converged means the correction
    terms of both dropped below target before the asymptotic tail started
    growing.
    """
    base = cutoff + a
    log_base = mpmath.log(base)

    total = mpmath.mpf(0)
    dtotal = mpmath.mpf(0)
    for n in range(cutoff):
        t = (n + a) ** (-s)
        total += t
        dtotal -= mpmath.log(n + a) * t

    tail = base ** (1 - s) / (s - 1)
    half = base ** (-s) / 2
    total += tail + half
    dtotal += base ** (1 - s) * (-log_base / (s - 1) - (s - 1) ** -2)
    dtotal -= log_base * half

    nums = _bernoulli_upto(2 * order_cap)
    scale = base ** (-s + 1)
    converged = False
    prev_size = mpmath.inf
    grew = 0
    p, dp = mpmath.mpf(1), mpmath.mpf(0)  # poch(s, 2k-1) and its s-derivative
    for k in range(1, order_cap + 1):
        b2k = mpmath.mpf(nums[2 * k].numerator) / nums[2 * k].denominator
        coeff = b2k / math.factorial(2 * k)
        # two more factors (s + i) by the product rule; exact at integer s
        for i in range(max(0, 2 * k - 3), 2 * k - 1):
            dp = dp * (s + i) + p
            p = p * (s + i)
        scale = scale / (base * base)  # base**(-s - 2k + 1)
        term = coeff * p * scale
        dterm = coeff * (dp - p * log_base) * scale
        total += term
        dtotal += dterm
        # at non-positive integer s the value terms vanish (poch hits 0)
        # while the derivative terms do not; convergence must watch both
        size = max(abs(term), abs(dterm))
        if size < target:
            converged = True
            break
        if size > prev_size:
            grew += 1
            if grew >= 2:
                break  # asymptotic tail diverging; caller enlarges the cutoff
        else:
            grew = 0
        prev_size = size
    return total, dtotal, converged


def _hurwitz_core(s, a, prec: Precision):
    """(zeta(s, a), d/ds zeta(s, a)) from one Euler-Maclaurin pass."""
    with mpmath.workdps(prec.working_dps):
        s = _to_mpf(s)
        a = mpmath.mpmathify(a)
        if mpmath.re(a) <= 0:
            raise ValueError("hurwitz zeta requires Re a > 0")
        if s == 1:
            raise ValueError("hurwitz zeta has a pole at s = 1")
        target = mpmath.mpf(10) ** -(prec.digits + GUARD_DIGITS // 2)
        order_cap = max(20, prec.working_dps)
        # First omitted term decays like ((|s|+2k)/(2*pi*(M+a)))^(2k):
        # M+a modestly above dps*ln(10)/(2*pi) makes the series reach the target;
        # |M+a| >= M + Re a, so Re a alone sets the cutoff for complex a too.
        # Compared in mpmath: Re a may lie past the float range.
        m = 0.40 * prec.working_dps + 0.5 * abs(s) + 2 - mpmath.re(a)
        m = math.ceil(m) if m > 1 else 1
        for _ in range(12):
            value, deriv, converged = _euler_maclaurin(s, a, m, order_cap, target)
            if converged:
                break
            m *= 2
        else:
            raise ArithmeticError("Euler-Maclaurin failed to converge")

        _check_finite(value, "hurwitz_zeta")
        _check_finite(deriv, "hurwitz_zeta_sderiv")
        return +value, +deriv


def hurwitz_zeta(s, a, prec: Precision = Precision()):
    """zeta(s, a) = sum_{n>=0} (n+a)^-s, continued to all real s != 1.

    a is real or complex with Re a > 0 (principal powers).  Absolute error
    target 10^-digits; cutoff and correction order are chosen adaptively.
    """
    value, _ = _hurwitz_core(s, a, prec)
    return value


def hurwitz_zeta_sderiv(s, a, prec: Precision = Precision()):
    """d/ds zeta(s, a) by term-wise differentiation of Euler-Maclaurin.

    Never finite differencing — this stays accurate at s = 0, -1, -2, ...
    where the zeta'(-j) constants live.
    """
    _, deriv = _hurwitz_core(s, a, prec)
    return deriv


@lru_cache(maxsize=64)
def zeta_prime_neg(j: int, prec: Precision = Precision()):
    """zeta'(-j) for integer j >= 0; the 64 most recently used (j, precision) memoized."""
    if j < 0:
        raise ValueError("j must be >= 0")
    return hurwitz_zeta_sderiv(-j, 1, prec)
