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
takes the first K whose bound is below 10^-(digits + GUARD_DIGITS/2),
fixed before the sum runs (_tail_terms).  M puts the bound's minimum over
K below that for every j < J; should the bound turn upward first, the
pass raises ArithmeticError rather than return the value.  The terms reach
about |x|^(j+1) |L|, j log10(M + |a|) digits or more above |zeta'(-j, a)|,
and the pass carries those digits too (_sderivs, which sizes them in
floats).

Fixed-point tail.  With u = 1/x^2 and c_k = B_2k/(2k)!, the tail is
x^(j-1) (D - L P), D = sum_{k=1..K} c_k P_k'(-j) u^(k-1) and P the same
sum over c_k P_k(-j).  D and P run by Horner from k = K down over Python
ints scaled by 2^F, F the pass's binary precision plus the bit length of
J.  Each coefficient is the exact rational c_k P_k'(-j) or c_k P_k(-j)
floored onto the grid once: c_k floored by itself loses the large k.  The
floors (of a coefficient, of u and of each product's parts) are each below
one unit of 2^-F, and as |u| <= 1/Y^2 < 1/25 (Y > 5.7 wherever _cutoff
sets M) they leave D and P within 2.6 (1 + max_k |S_k|) 2^-F, S_k the
Horner partial sums.  Only the product with x^(j-1) and L is in mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
from mpmath.libmp import to_fixed

from .exact_poly import _bernoulli_upto

__all__ = ["Precision", "hurwitz_zeta_sderiv", "hurwitz_zeta_sderivs", "zeta_prime_neg"]


# Decimal digits every evaluation carries past the requested ones.
GUARD_DIGITS = 10

_LN_2PI = math.log(2 * math.pi)
_LN_10 = math.log(10)


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


def _ln_abs(v) -> float:
    """ln |v| in floats for a nonzero mpf or mpc, past the float range by one mpmath log."""
    f = abs(complex(v))
    return math.log(f) if 0 < f < math.inf else float(mpmath.log(abs(v)))


def _cutoff(js: range, a, target_ln: float) -> tuple[int, float]:
    """(M, log Y): the least M >= 0 whose remainder bound dips e^(2 pi) below e^-target_ln.

    Over K the bound's least value is about 6 j! (2 pi)^-(j+1) e^(-2 pi Y), convex in j.
    """
    worst = max(math.lgamma(j + 1) - (j + 1) * _LN_2PI for j in (js[0], js[-1]))
    y = (target_ln + math.log(6) + worst) / (2 * math.pi) + 1
    re, im = float(mpmath.re(a)), abs(float(mpmath.im(a)))
    cutoff = math.ceil(max(0.0, min(y - re, math.sqrt(2) * y - re - im)))
    y_big = max(cutoff + re, (cutoff + re + im) / math.sqrt(2))
    if y_big == math.inf:  # cutoff is 0 here
        y_big = max(mpmath.re(a), (mpmath.re(a) + abs(mpmath.im(a))) / math.sqrt(2))
    return cutoff, _ln_abs(y_big)


def _tail_terms(j: int, cutoff: int, ln_y: float, target_ln: float) -> int:
    """K: the first k whose remainder bound is below e^-target_ln.

    Raises ArithmeticError where the bound turns upward first.
    """
    prev, k = math.inf, 1
    while True:
        m = 2 * k - j
        if m >= 2:
            bound = (math.log(6) - 2 * k * _LN_2PI + math.lgamma(j + 1)
                     + math.lgamma(m - 1) - (m - 1) * ln_y)
            if bound <= -target_ln:
                return k
            if bound > prev:
                raise ArithmeticError(f"Euler-Maclaurin remainder for zeta'({-j}, a) cannot "
                                      f"reach its target at cutoff {cutoff}")
            prev = bound
        k += 1


def _em_pass(js: range, a, cutoff: int, ln_y: float, target_ln: float) -> list:
    """zeta'(-j, a), j in js, at the current precision: the formula of the module docstring."""
    a = mpmath.mpmathify(a)
    x = cutoff + a
    log_x = mpmath.log(x)
    bits = mpmath.mp.prec + js.stop.bit_length()  # the tail's grid is 2^-bits
    inv_x2 = 1 / (x * x)
    u_re, u_im = (to_fixed(part._mpf_, bits) for part in (inv_x2.real, inv_x2.imag))
    bases = [n + a for n in range(cutoff)]
    terms = [mpmath.log(b) for b in bases]  # (n+a)^j log(n+a) at j = 0
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
        count = _tail_terms(j, cutoff, ln_y, target_ln)
        bernoulli = _bernoulli_upto(2 * count)
        coeffs = []  # c_k P_k'(-j) and c_k P_k(-j) on the grid
        p, dp = -j, 1  # P_1(s) = s and its derivative at s = -j
        for k in range(1, count + 1):
            if k > 1:
                for i in (2 * k - 3, 2 * k - 2):
                    p, dp = p * (i - j), dp * (i - j) + p
            c = bernoulli[2 * k]
            den = c.denominator * math.factorial(2 * k)
            coeffs.append(((c.numerator * dp << bits) // den, (c.numerator * p << bits) // den))
        d_re = d_im = p_re = p_im = 0
        for e_d, e_p in reversed(coeffs):  # D = sum_k c_k P_k'(-j) u^(k-1), P likewise
            d_re, d_im = (((d_re * u_re - d_im * u_im) >> bits) + e_d,
                          (d_re * u_im + d_im * u_re) >> bits)
            p_re, p_im = (((p_re * u_re - p_im * u_im) >> bits) + e_p,
                          (p_re * u_im + p_im * u_re) >> bits)
        d_sum, p_sum = (mpmath.mpc((re, -bits), (im, -bits)) if u_im else mpmath.mpf((re, -bits))
                        for re, im in ((d_re, d_im), (p_re, p_im)))
        values.append(value + scale * inv_x2 * (d_sum - p_sum * log_x))
    return values


def _sderivs(js: range, a, prec: Precision) -> list:
    """[zeta'(-j, a) for j in js], each within 10^-digits max(1, |value|), from one pass.

    The pass first carries 2 digits more than its largest term has above
    |a|^(j+1) |log a| / (j+1), the size of zeta'(-j, a) at large |a|, and
    runs again with every digit of that term where a value comes out smaller.
    These sizes are float estimates.
    """
    target_ln = (prec.digits + GUARD_DIGITS // 2) * math.log(10)
    with mpmath.workdps(prec.working_dps):
        am = mpmath.mpmathify(a)
        if mpmath.re(am) <= 0:
            raise ValueError("hurwitz zeta requires Re a > 0")
        cutoff, ln_y = _cutoff(js, am, target_ln)
        ln_x, ln_a = _ln_abs(cutoff + am), _ln_abs(am)
    ln_x1 = max(ln_x, 0.0) + math.log1p(math.exp(-abs(ln_x)))  # ln(|x| + 1)
    abs_log_a = math.hypot(ln_a, math.atan2(float(am.imag), float(am.real)))
    ln_largest = math.log(max(abs(ln_x), abs(ln_a)) + 4)
    sizes = [((j + 1) * ln_x1 + ln_largest) / _LN_10 for j in js]
    leads = [((j + 1) * ln_a + math.log(abs_log_a / (j + 1))) / _LN_10 if abs_log_a else 0.0
             for j in js]  # log10 |a|^(j+1) |log a| / (j+1)
    guess = max(size - max(0.0, lead) for size, lead in zip(sizes, leads))
    every = math.ceil(max(sizes))
    for extra in sorted({min(math.ceil(guess) + 2, every), every}):
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


@lru_cache(maxsize=16)
def _zeta_prime_block(block: int, prec: Precision) -> tuple:
    """zeta'(-j) for the four j with j // 4 = block, from one pass at a = 1."""
    return tuple(_sderivs(range(4 * block, 4 * block + 4), 1, prec))


def zeta_prime_neg(j: int, prec: Precision = Precision()):
    """zeta'(-j) for integer j >= 0, from the one pass of its block of four j.

    The 16 most recently used (block, precision) pairs are memoized, so
    every j < 4 of a precision costs one pass.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    return _zeta_prime_block(j // 4, prec)[j % 4]
