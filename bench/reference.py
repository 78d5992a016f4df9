"""Independent reference for log G_r(z), built from mpmath alone.

Nothing here imports multigamma: the benchmark checks the library against
this module, so the two must share no code.

The route is the Barnes zeta function.  With
    zeta_r(s, z) = sum_{k>=0} C(k+r-1, r-1) (z+k)^-s
and t = k + z, the binomial C(t-z+r-1, r-1) is a polynomial sum_j a_j(z) t^j,
so zeta_r(s, z) = sum_j a_j(z) zeta_H(s-j, z) and

    L_r(z) = (-1)^(r-1) d/ds zeta_r(s, z)|_{s=0}
           = (-1)^(r-1) sum_j a_j(z) zeta_H'(-j, z).

L_r satisfies L_r(z+1) = L_r(z) + L_{r-1}(z) with L_0 = log z, the same
recurrence as log G_r.  The two differ by a polynomial p_r of degree r-1 with
p_r(z+1) - p_r(z) = p_{r-1}(z), p_0 = 0 and p_r(1) = -L_r(1) (from G_r(1) = 1);
that polynomial is sum_{k=1..r} p_k(1) C(z-1, r-k).

Imaginary parts of logs depend on the branch chosen along the way, so values
are compared through exp: the error of a candidate v is |exp(v - ref) - 1|,
which equals |v - ref| reduced modulo 2 pi i when that is small.

Run as a script for the self-check:  python3 bench/reference.py
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import mpmath

GUARD_DIGITS = 10


def to_mp(re: Fraction, im: Fraction = Fraction(0)):
    """An mpf (im == 0) or mpc at the current precision."""
    x = mpmath.mpf(re.numerator) / re.denominator
    if im == 0:
        return x
    return mpmath.mpc(x, mpmath.mpf(im.numerator) / im.denominator)


def _binom(x, m: int):
    """C(x, m) for any number x and integer m >= 0, by the falling product."""
    acc = mpmath.mpf(1)
    for i in range(m):
        acc = acc * (x - i)
    return acc / math.factorial(m)


def _binomial_coefficients_in_t(r: int, z) -> list:
    """a_j(z) with C(t - z + r - 1, r - 1) = sum_j a_j(z) t^j."""
    coeffs = [mpmath.mpf(1)]  # the polynomial 1
    for i in range(1, r):
        # multiply by (t + (i - z))
        shift = i - z
        nxt = [mpmath.mpf(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j] += c * shift
            nxt[j + 1] += c
        coeffs = nxt
    scale = math.factorial(r - 1)
    return [c / scale for c in coeffs]


def _zeta_route(r: int, z):
    """L_r(z) = (-1)^(r-1) zeta_r'(0, z), at the current precision."""
    total = 0
    for j, aj in enumerate(_binomial_coefficients_in_t(r, z)):
        total += aj * mpmath.zeta(-j, z, 1)
    return total if r % 2 == 1 else -total


_ANCHOR_CACHE: dict[tuple[int, int], object] = {}


def _anchor(k: int):
    """p_k(1) = -L_k(1), memoized per precision."""
    key = (k, mpmath.mp.prec)
    if key not in _ANCHOR_CACHE:
        _ANCHOR_CACHE[key] = -_zeta_route(k, mpmath.mpf(1))
    return _ANCHOR_CACHE[key]


def log_multigamma_ref(r: int, z, digits: int):
    """log G_r(z) to about `digits` digits; z is an mpmath number or Fraction.

    The branch of the imaginary part is whatever the zeta route gives; only
    exp of the value is meaningful off the positive real axis.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    with mpmath.workdps(digits + GUARD_DIGITS):
        if isinstance(z, Fraction):
            z = to_mp(z)
        else:
            z = mpmath.mpmathify(z)
        if r == 0:
            return mpmath.log(z)
        poly = 0
        for k in range(1, r + 1):
            poly += _anchor(k) * _binom(z - 1, r - k)
        return +(_zeta_route(r, z) + poly)


def log_error(value, reference, digits: int):
    """|exp(value - reference) - 1|: the error of a log, modulo 2 pi i."""
    with mpmath.workdps(digits + GUARD_DIGITS):
        return abs(mpmath.expm1(mpmath.mpmathify(value) - reference))


def zeta_prime_ref(j: int, digits: int):
    """zeta'(-j) straight from mpmath."""
    with mpmath.workdps(digits + GUARD_DIGITS):
        return mpmath.zeta(-j, 1, 1)


def integer_lattice(r: int, n: int) -> int:
    """G_r(n) for integer n >= 1 exactly: G_0(n) = n, G_r(1) = 1,
    G_r(m + 1) = G_{r-1}(m) G_r(m)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    row = list(range(n + 1))  # row[m] = G_0(m)
    for _ in range(r):
        nxt = [0, 1]
        for m in range(1, n):
            nxt.append(row[m] * nxt[m])
        row = nxt
    return row[n]


def self_check(digits: int = 40) -> list[tuple[str, float, float]]:
    """(check, worst error, bound) rows; every error must sit below its bound."""
    bound = 10.0 ** -(digits - 2)
    rows = []

    def add(name, worst, limit=bound):
        rows.append((name, float(worst), limit))

    with mpmath.workdps(digits + GUARD_DIGITS):
        pts = [Fraction(1, 3), Fraction(5, 2), Fraction(29, 4), Fraction(40),
               Fraction(-17, 5), Fraction(-1, 2)]
        add("loggamma", max(log_error(log_multigamma_ref(1, z, digits),
                                      mpmath.loggamma(to_mp(z)), digits) for z in pts))
        cpts = [(Fraction(23, 10), Fraction(7, 10)), (Fraction(-33, 10), Fraction(1, 5))]
        add("loggamma complex", max(
            log_error(log_multigamma_ref(1, to_mp(*z), digits),
                      mpmath.loggamma(to_mp(*z)), digits) for z in cpts))
        add("barnesg", max(
            log_error(log_multigamma_ref(2, z, digits),
                      mpmath.log(mpmath.barnesg(to_mp(z))), digits)
            for z in pts if z > 0))
        add("barnesg complex", max(
            log_error(log_multigamma_ref(2, to_mp(*z), digits),
                      mpmath.log(mpmath.barnesg(to_mp(*z))), digits) for z in cpts))
        worst = 0
        for r in (1, 2, 3, 4):
            for n in range(1, 9):
                exact = mpmath.log(integer_lattice(r, n))
                worst = max(worst, abs(log_multigamma_ref(r, Fraction(n), digits) - exact))
        add("integer lattice r=1..4, n=1..8", worst)
        worst = 0
        for r in (3, 4):
            for z in pts + [to_mp(*c) for c in cpts]:
                zm = z if not isinstance(z, Fraction) else to_mp(z)
                lhs = log_multigamma_ref(r, zm + 1, digits)
                rhs = log_multigamma_ref(r - 1, zm, digits) + log_multigamma_ref(r, zm, digits)
                worst = max(worst, log_error(lhs, rhs, digits))
        add("recurrence r=3,4", worst)
        add("log G_3(4) = log G_4(3) = 0",
            max(abs(log_multigamma_ref(3, Fraction(4), digits)),
                abs(log_multigamma_ref(4, Fraction(3), digits))))
    return rows


def main() -> int:
    failed = 0
    for name, worst, limit in self_check():
        ok = worst <= limit
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name:34s} worst {worst:.2e}  bound {limit:.0e}")
    print(f"python {sys.version.split()[0]}, mpmath {mpmath.__version__}, "
          f"backend {mpmath.libmp.BACKEND}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
