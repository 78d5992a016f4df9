"""zeta'(-j, a) = d/ds zeta(s, a) at s = 0, -1, -2, ..., and zeta'(-j) = zeta'(-j, 1).

The package needs the Hurwitz zeta function only through these: the Barnes
zeta expansion takes zeta'(-j, w), j < r, and the normalisations zeta'(-j).
One Euler-Maclaurin pass gives zeta'(-j, a) for every j < J.  With the
cutoff M, x = M + a, L = log x and P_k(s) = s (s+1) ... (s+2k-2),

    zeta'(-j, a) = -sum_{n<M} (n+a)^j log(n+a)
                   + x^(j+1) (L/(j+1) - 1/(j+1)^2) - x^j L / 2
                   + sum_{k=1..K} B_2k/(2k)! (P_k'(-j) - P_k(-j) L) x^(j-2k+1),

the s-derivative of the continued Euler-Maclaurin formula, with principal
logs for complex a (Re a > 0).  log(n+a) and (n+a)^j are shared by every j;
P_k(-j) and P_k'(-j) are exact integers.

Remainder.  After K terms it is at most |B_2K|/(2K)! <= 4 (2 pi)^-2K times
the integral over t >= M of |f^(2K)(t)| = j! (m-1)! |t+a|^-m, with
f(t) = (t+a)^j log(t+a) and m = 2K - j.  As |t+a| >= max(t + Re a,
(t + Re a + |Im a|)/sqrt 2), for m >= 2 that is at most

    6 j! (m-2)! (2 pi)^-2K Y^(1-m),  Y = max(M + Re a, (M + Re a + |Im a|)/sqrt 2)

(for complex a see Johansson, "Rigorous high-precision computation of the
Hurwitz zeta function and its derivatives", arXiv:1309.2877).  Each tail
stops at the first K whose bound is below 10^-(digits + GUARD_DIGITS/2)
max(1, |value|).  M puts the bound's minimum over K below that for every
j < J; should the bound turn upward first, the pass raises ArithmeticError
rather than return the value.  The terms reach about |x|^(j+1) |L|, j
log10(M + |a|) digits or more above |zeta'(-j, a)|, and the pass carries
those digits too (_sderivs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath

from .exact_poly import _bernoulli_upto

__all__ = ["Precision", "hurwitz_zeta_sderiv", "hurwitz_zeta_sderivs", "zeta_prime_neg"]


# Decimal digits every evaluation carries past the requested ones.
GUARD_DIGITS = 10

_LN_2PI = math.log(2 * math.pi)


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


def _cutoff(js: range, a, target_ln: float) -> tuple[int, float]:
    """(M, log Y): the least M >= 0 whose remainder bound dips e^(2 pi) below e^-target_ln.

    Over K the bound's least value is about 6 j! (2 pi)^-(j+1) e^(-2 pi Y), convex in j.
    """
    worst = max(math.lgamma(j + 1) - (j + 1) * _LN_2PI for j in (js[0], js[-1]))
    y = (target_ln + math.log(6) + worst) / (2 * math.pi) + 1
    re, im = mpmath.re(a), abs(mpmath.im(a))
    cutoff = max(0, int(mpmath.ceil(min(y - re, math.sqrt(2) * y - re - im))))
    return cutoff, float(mpmath.log(max(cutoff + re, (cutoff + re + im) / math.sqrt(2))))


def _em_pass(js: range, a, cutoff: int, ln_y: float, target_ln: float) -> list:
    """zeta'(-j, a), j in js, at the current precision: the formula of the module docstring."""
    a = mpmath.mpmathify(a)
    x = cutoff + a
    log_x = mpmath.log(x)
    inv_x2 = 1 / (x * x)
    bases = [n + a for n in range(cutoff)]
    terms = [mpmath.log(b) for b in bases]  # (n+a)^j log(n+a) at j = 0
    coeffs = []  # B_2k/(2k)!, k = 1, 2, ...
    values = []
    x_j = mpmath.mpf(1)
    for j in range(js.stop):
        if j:
            terms = [t * b for t, b in zip(terms, bases)]
            x_j *= x
        if j < js.start:
            continue
        scale = x_j * x
        value = (scale * (log_x / (j + 1) - mpmath.mpf(1) / (j + 1) ** 2)
                 - x_j * log_x / 2 - mpmath.fsum(terms))
        p, dp = -j, 1  # P_1(s) = s and its derivative at s = -j
        prev, k = math.inf, 1
        while True:
            if k > len(coeffs):
                c = _bernoulli_upto(2 * k)[2 * k] / math.factorial(2 * k)
                coeffs.append(mpmath.mpf(c.numerator) / c.denominator)
            if k > 1:
                for i in (2 * k - 3, 2 * k - 2):
                    p, dp = p * (i - j), dp * (i - j) + p
            scale *= inv_x2
            value += coeffs[k - 1] * (dp - p * log_x) * scale
            m = 2 * k - j
            if m >= 2:
                bound = (math.log(6) - 2 * k * _LN_2PI + math.lgamma(j + 1)
                         + math.lgamma(m - 1) - (m - 1) * ln_y)
                if bound <= max(0, (mpmath.mag(value) - 2) * math.log(2)) - target_ln:
                    break
                if bound > prev:
                    raise ArithmeticError(f"Euler-Maclaurin remainder for zeta'({-j}, a) cannot "
                                          f"reach its target at cutoff {cutoff}")
                prev = bound
            k += 1
        values.append(value)
    return values


def _sderivs(js: range, a, prec: Precision) -> list:
    """[zeta'(-j, a) for j in js], each within 10^-digits max(1, |value|), from one pass.

    The pass first carries 2 digits more than its largest term has above
    |a|^(j+1) |log a| / (j+1), the size of zeta'(-j, a) at large |a|, and
    runs again with every digit of that term where a value comes out smaller.
    """
    target_ln = (prec.digits + GUARD_DIGITS // 2) * math.log(10)
    with mpmath.workdps(prec.working_dps):
        am = mpmath.mpmathify(a)
        if mpmath.re(am) <= 0:
            raise ValueError("hurwitz zeta requires Re a > 0")
        cutoff, ln_y = _cutoff(js, am, target_ln)
        x = cutoff + am
        largest_log = max(abs(mpmath.log(abs(x))), abs(mpmath.log(abs(am)))) + 4
        sizes = [(j + 1) * mpmath.log10(abs(x) + 1) + mpmath.log10(largest_log) for j in js]
        guess = max(size - max(0, (j + 1) * mpmath.log10(abs(am))
                               + mpmath.log10(abs(mpmath.log(am)) / (j + 1)))
                    for j, size in zip(js, sizes))
    every = int(mpmath.ceil(max(sizes)))
    for extra in sorted({min(int(mpmath.ceil(guess)) + 2, every), every}):
        with mpmath.workdps(prec.working_dps + extra):
            values = _em_pass(js, a, cutoff, ln_y, target_ln)
        if all(size - max(0, (mpmath.mag(v) - 2) * math.log10(2)) <= extra
               for size, v in zip(sizes, values)):
            break
    with mpmath.workdps(prec.working_dps):
        return [+value for value in values]


def hurwitz_zeta_sderivs(j_max: int, a, prec: Precision = Precision()) -> list:
    """[zeta'(-j, a) for j in range(j_max)] from one Euler-Maclaurin pass (_sderivs)."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    return _sderivs(range(j_max), a, prec)


def hurwitz_zeta_sderiv(s, a, prec: Precision = Precision()):
    """zeta'(s, a) at s = 0, -1, -2, ... from a pass for that j alone; other s: ValueError."""
    if not mpmath.isint(s) or mpmath.re(s) > 0:
        raise ValueError(f"hurwitz_zeta_sderiv takes s = 0, -1, -2, ... only, not {s!r}")
    j = -int(mpmath.re(s))
    return _sderivs(range(j, j + 1), a, prec)[0]


@lru_cache(maxsize=64)
def zeta_prime_neg(j: int, prec: Precision = Precision()):
    """zeta'(-j) for integer j >= 0; the 64 most recently used (j, precision) memoized."""
    if j < 0:
        raise ValueError("j must be >= 0")
    return hurwitz_zeta_sderiv(-j, 1, prec)
