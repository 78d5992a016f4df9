"""Exact rational polynomial layer.

Everything in this module is exact: coefficients are ``fractions.Fraction``,
identities are decided by coefficient comparison, and no floating point enters
any code path.  The polynomial families built here are

* Bernoulli numbers/polynomials (convention t*e^{zt}/(e^t - 1), so B_1 = -1/2),
* signed Stirling numbers of the first kind (falling-factorial coefficients),
* binomial-coefficient polynomials binom(z, r),
* the expansion coefficients G_{r,j}(z) of binom(z - u, r - 1) in powers of u,
* the multiplication exponents psi_r(z) and Q_r(z) and the zeta-constant
  bracket polynomials phi_{r,j}(z), with the derived signs (DERIVED) that
  fix their orientation,

together with an exact identity checker covering the relations that connect
them (Vandermonde addition, the integral identity for psi_r, Q_r = (-1)^r
psi_r, the reflection symmetry, the Stirling values at zero, the telescoping
law, and the forward-difference law).  Its records (ConventionSet,
IdentityReport) are plain data: the CLI builds their JSON, csv and text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterable, Sequence, Union

import mpmath

__all__ = [
    "ConventionSet",
    "DERIVED",
    "RationalPoly",
    "IdentityReport",
    "bernoulli_numbers",
    "bernoulli_poly",
    "stirling_first_row",
    "binom_poly",
    "grj_poly",
    "psi_poly",
    "q_poly",
    "composition_counts",
    "phi_rj_poly",
    "definite_integral_poly",
    "check_identities",
]

Scalar = Union[Fraction, int]


def _as_fraction(value: Any) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


def _mp_from_fraction(c: Fraction):
    # One extra rounding versus a fused divide is absorbed by guard digits.
    return mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)


class RationalPoly:
    """Dense univariate polynomial over Fraction, coefficient i belongs to z^i.

    Immutable; trailing zero coefficients are stripped, so the zero polynomial
    has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Any] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("RationalPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RationalPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RationalPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Any) -> "RationalPoly":
        return cls((c,))

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly(self.coeff(i) + other.coeff(i) for i in range(n))

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly(self.coeff(i) - other.coeff(i) for i in range(n))

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(-c for c in self.coeffs)

    def __mul__(self, other: Any) -> "RationalPoly":
        if isinstance(other, RationalPoly):
            if self.is_zero or other.is_zero:
                return RationalPoly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RationalPoly(out)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "RationalPoly":
        c = _as_fraction(c)
        if c == 0:
            return RationalPoly.zero()
        return RationalPoly(a * c for a in self.coeffs)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "RationalPoly":
        return RationalPoly(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def antiderivative(self) -> "RationalPoly":
        """Antiderivative with zero constant term."""
        return RationalPoly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    # -- evaluation and composition ----------------------------------------

    def __call__(self, x: Any) -> Any:
        return self.evaluate(x)

    def evaluate(self, x: Any) -> Any:
        """Horner evaluation; exact for Fraction/int inputs, mpmath otherwise."""
        if isinstance(x, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        xm = mpmath.mpmathify(x)
        acc = mpmath.mpf(0)
        for c in reversed(self.coeffs):
            acc = acc * xm + _mp_from_fraction(c)
        return acc

    def compose_affine(self, slope: Scalar, intercept: Scalar) -> "RationalPoly":
        """Exact substitution z -> slope*z + intercept (Horner over Fraction)."""
        arg = RationalPoly((intercept, slope))
        acc = RationalPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * arg + RationalPoly.constant(c)
        return acc

    def shift(self, offset: Scalar) -> "RationalPoly":
        """p(z + offset)."""
        return self.compose_affine(1, offset)

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"RationalPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            mono = "1" if i == 0 else ("z" if i == 1 else f"z^{i}")
            if i == 0:
                term = str(c)
            elif c == 1:
                term = mono
            elif c == -1:
                term = f"-{mono}"
            else:
                term = f"{c}*{mono}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


# ---------------------------------------------------------------------------
# Bernoulli and Stirling families
# ---------------------------------------------------------------------------


# B_0, B_1, ...: one table, grown on demand and replaced whole, so that a
# tuple handed out never changes.
_BERNOULLI: tuple[Fraction, ...] = (Fraction(1), Fraction(-1, 2))


def _bernoulli_upto(n_max: int) -> tuple[Fraction, ...]:
    """B_0..B_m for some m >= n_max; callers index it.

    From the tangent numbers T_k, tan t = sum_k T_k t^(2k-1)/(2k-1)!, by
    the in-place integer recurrence of Brent and Harvey, "Fast computation
    of Bernoulli, Tangent and Secant numbers" (arXiv:1108.0286), Algorithm
    TangentNumbers: T_k = (k-1)! to start, then for k = 2..K and j = k..K,
    T_j = (j-k) T_{j-1} + (j-k+2) T_j.  Then B_2k = (-1)^(k-1) 2k T_k /
    (2^2k (2^2k - 1)), and the odd B_n vanish from n = 3 on.  A request past
    the table rebuilds it to at least twice its length, so a rising request
    rebuilds it only a few times, and to 5/4 of the request, as the
    Euler-Maclaurin tails of one Hurwitz pass ask for a few more terms at
    each j.
    """
    global _BERNOULLI
    if len(_BERNOULLI) > n_max:
        return _BERNOULLI
    half = max(n_max + n_max // 4, 2 * len(_BERNOULLI)) // 2 + 1
    tangent = [0, 1]  # T_0 unused
    for k in range(2, half + 1):
        tangent.append((k - 1) * tangent[-1])
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    out = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, half + 1):
        out += [Fraction((-1) ** (k - 1) * 2 * k * tangent[k], (4**k - 1) << 2 * k), Fraction(0)]
    _BERNOULLI = tuple(out)
    return _BERNOULLI


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """Bernoulli numbers B_0..B_{n_max} with B_1 = -1/2.

    Generating function t*e^{zt}/(e^t - 1) = sum B_n(z) t^n / n!, numbers are
    the values at z = 0.  Odd-index numbers vanish from B_3 on.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return list(_bernoulli_upto(n_max)[:n_max + 1])


@lru_cache(maxsize=None)
def bernoulli_poly(n: int) -> RationalPoly:
    """Bernoulli polynomial B_n(z); B_n(0) = B_n and B_n'(z) = n B_{n-1}(z)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    nums = _bernoulli_upto(n)
    return RationalPoly(math.comb(n, k) * nums[n - k] for k in range(n + 1))


@lru_cache(maxsize=None)
def stirling_first_row(r: int) -> tuple[int, ...]:
    """Signed Stirling numbers of the first kind as falling-factorial coefficients.

    t(t-1)...(t-r+1) = sum_j S_j t^j; returns (S_0, ..., S_r).
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    coeffs = [1]
    for i in range(r):
        # multiply by (t - i)
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= i * c
        coeffs = nxt
    return tuple(coeffs)


@lru_cache(maxsize=None)
def binom_poly(r: int) -> RationalPoly:
    """binom(z, r) = z(z-1)...(z-r+1)/r! as an exact polynomial of degree r."""
    if r < 0:
        raise ValueError("r must be >= 0")
    poly = RationalPoly.one()
    for i in range(r):
        poly = poly * RationalPoly((-i, 1))
    return poly.scale(Fraction(1, math.factorial(r)))


# ---------------------------------------------------------------------------
# G_{r,j} coefficient polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _grj_row(r: int) -> tuple[RationalPoly, ...]:
    """All coefficient polynomials of binom(z - u, r - 1) in powers of u.

    Entry j is G_{r,j}(z), for 0 <= j <= r-1; empty for r = 0 (the expansion
    of an empty product has no u-structure and every G_{0,j} is 0).
    """
    if r == 0:
        return ()
    # polynomial in u whose coefficients are polynomials in z:
    # start with 1, multiply the factors (z - i - u), i = 0..r-2, divide by (r-1)!
    rows: list[RationalPoly] = [RationalPoly.one()]
    for i in range(r - 1):
        lin = RationalPoly((-i, 1))  # z - i
        nxt = [RationalPoly.zero() for _ in range(len(rows) + 1)]
        for j, pz in enumerate(rows):
            nxt[j] = nxt[j] + pz * lin
            nxt[j + 1] = nxt[j + 1] - pz
        rows = nxt
    inv = Fraction(1, math.factorial(r - 1))
    return tuple(p.scale(inv) for p in rows)


def grj_poly(r: int, j: int) -> RationalPoly:
    """G_{r,j}(z): coefficient of u^j in binom(z - u, r - 1).

    Zero polynomial for j >= r; degree r - 1 - j otherwise.  G_{r,0}(z) is
    binom(z, r-1).
    """
    if r < 0 or j < 0:
        raise ValueError("r and j must be >= 0")
    row = _grj_row(r)
    return row[j] if j < len(row) else RationalPoly.zero()


# ---------------------------------------------------------------------------
# Multiplication exponents
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def psi_poly(r: int) -> RationalPoly:
    """psi_r(z) = binom(z, r) + sum_{j<r} B_{j+1}/(j+1) * G_{r,j}(z-1).

    Degree r; the exponent of p in the multiplication formula for G_r.
    Satisfies psi_r(z+1) - psi_r(z) = psi_{r-1}(z) with psi_0 = 1.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    nums = _bernoulli_upto(r)
    acc = binom_poly(r)
    for j in range(r):
        acc = acc + grj_poly(r, j).shift(-1).scale(Fraction(nums[j + 1], j + 1))
    return acc


@lru_cache(maxsize=None)
def q_poly(r: int) -> RationalPoly:
    """Q_r(z) = (-1)^r/(r-1)! * sum_{l=1}^r (S_l / l) (z^l - (-1)^l B_l).

    The multiplication exponent of the Barnes-zeta gamma; equals
    (-1)^r psi_r(z) identically.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    srow = stirling_first_row(r)
    nums = _bernoulli_upto(r)
    coeffs = [Fraction(0)] * (r + 1)
    for l in range(1, r + 1):
        w = Fraction(srow[l], l)
        coeffs[l] += w
        coeffs[0] -= w * (-1) ** l * nums[l]
    sign = Fraction((-1) ** r, math.factorial(r - 1))
    return RationalPoly(coeffs).scale(sign)


@lru_cache(maxsize=None)
def composition_counts(p: int, r: int) -> tuple[int, ...]:
    """Number of r-tuples in [0, p-1]^r with a given sum.

    Entry s (0 <= s <= r(p-1)) is the coefficient of x^s in
    ((1 - x^p)/(1 - x))^r; the entries sum to p^r and are palindromic.
    """
    if p < 1 or r < 0:
        raise ValueError("need p >= 1 and r >= 0")
    counts = [1]
    for _ in range(r):
        nxt = [0] * (len(counts) + p - 1)
        for s, c in enumerate(counts):
            for q in range(p):
                nxt[s + q] += c
        counts = nxt
    return tuple(counts)


@dataclass(frozen=True)
class ConventionSet:
    """The signs that tie G_r to the Barnes gamma Gamma_r and to phi_{r,j}.

    * s_R: log G_r(w) = (-1)^(r-1) log Gamma_r(w) + s_R sum_j G_{r,j}(w-1) zeta'(-j);
    * s_phi, sigma_phi: the sign and the inner shift of phi_rj_poly's bracket.

    All three follow from the Barnes zeta with unit periods,
    zeta_r(sigma, z) = sum_{n in N^r} (z + |n|)^-sigma.  With s_R = -1 the
    R_r term is the zeta route's -sum_j G_{r,j}(w-1) zeta'(-j), literally
    (evaluate._zeta_levels).  Writing n = p m + s with s in [0, p)^r gives,
    exactly,

        zeta_r(sigma, z) = p^-sigma sum_s zeta_r(sigma, (z + |s|)/p),

    and the sigma-derivative at 0 is the multiplication formula once each
    log Gamma_r is replaced by log G_r and its R_r term: the bracket is
    s_R [sum_s G_{r,j}((z+|s|)/p - 1) - G_{r,j}(z-1)], so s_phi = s_R and
    sigma_phi = -1.  At p = 1 the bracket G_{r,j}(z + sigma_phi) - G_{r,j}(z-1)
    vanishes only for sigma_phi = -1.  DERIVED is the only value the program
    uses; calibrate_conventions checks it against the other seven candidates.
    """

    s_phi: int
    sigma_phi: Fraction
    s_R: int
    evidence: tuple[dict[str, Any], ...] = field(default=(), compare=False)


DERIVED = ConventionSet(s_phi=-1, sigma_phi=Fraction(-1), s_R=-1)


def phi_rj_poly(r: int, j: int, p: int, conv: ConventionSet) -> RationalPoly:
    """Exact bracket polynomial multiplying zeta'(-j) in the multiplication formula.

    s_phi * [ sum_s N(p,r,s) * G_{r,j}((z+s)/p + sigma_phi)  -  G_{r,j}(z-1) ]

    where N(p,r,s) counts r-tuples in [0,p-1]^r summing to s.  The argument
    substitution is exact rational composition.  With DERIVED the result is
    the zero polynomial at p = 1.
    """
    if not 0 <= j <= r - 1:
        raise ValueError("need 0 <= j <= r-1")
    if p < 1:
        raise ValueError("p must be >= 1")
    g = grj_poly(r, j)
    acc = RationalPoly.zero()
    inv_p = Fraction(1, p)
    for s, count in enumerate(composition_counts(p, r)):
        acc = acc + g.compose_affine(inv_p, inv_p * s + conv.sigma_phi).scale(count)
    acc = acc - g.shift(-1)
    return acc.scale(conv.s_phi)


def definite_integral_poly(poly: RationalPoly, a: Scalar) -> RationalPoly:
    """The polynomial z -> integral of poly from a to z (exact antiderivative)."""
    anti = poly.antiderivative()
    return anti - RationalPoly.constant(anti.evaluate(_as_fraction(a)))


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    name: str
    r: int
    p: int | None
    verdict: str  # "pass" | "fail"
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _report(name: str, r: int, ok: bool, witness: str | None = None, p: int | None = None) -> IdentityReport:
    return IdentityReport(name=name, r=r, p=p, verdict="pass" if ok else "fail",
                          witness=None if ok else witness)


def _addition_law_mismatch(terms: Sequence[tuple[RationalPoly, RationalPoly]],
                           rhs: RationalPoly) -> int | None:
    """First y at which sum_k a_k(x) b_k(y) and rhs(x + y) differ, else None.

    For each y the two sides are compared as exact polynomials in x.  As
    polynomials in x and y both sides have degree at most d in y, d the
    largest degree among the b_k and rhs, so agreement at the d + 1 points
    y = 0..d proves the identity in both variables.
    """
    d = max([rhs.degree] + [b.degree for _, b in terms])
    for y in range(d + 1):
        lhs = RationalPoly.zero()
        for a, b in terms:
            lhs = lhs + a.scale(b.evaluate(y))
        if lhs != rhs.shift(y):
            return y
    return None


def _vandermonde_check(r: int) -> IdentityReport:
    terms = [(binom_poly(r - k), binom_poly(k)) for k in range(r + 1)]
    y = _addition_law_mismatch(terms, binom_poly(r))
    return _report("binom_vandermonde", r, y is None, f"mismatch at y={y}")


def _grj_addition_check(r: int) -> IdentityReport:
    for j in range(r):
        terms = [(binom_poly(r - k), grj_poly(k, j)) for k in range(r + 1)]
        y = _addition_law_mismatch(terms, grj_poly(r, j))
        if y is not None:
            return _report("grj_addition", r, False, f"mismatch at j={j}, y={y}")
    return _report("grj_addition", r, True)


def _integral_identity_check(r: int) -> IdentityReport:
    # binom(z,r) + sum_j B_{j+1}/(j+1) G_{r,j}(z-1)
    #   = int_{-1}^{z-1} binom(t, r-1) dt + (same Bernoulli sum at z = 0)
    nums = _bernoulli_upto(r)
    bsum = RationalPoly.zero()
    for j in range(r):
        bsum = bsum + grj_poly(r, j).shift(-1).scale(Fraction(nums[j + 1], j + 1))
    lhs = binom_poly(r) + bsum
    integral = definite_integral_poly(binom_poly(r - 1), Fraction(-1)).shift(-1)
    rhs = integral + RationalPoly.constant(bsum.evaluate(Fraction(0)))
    return _report("psi_integral_form", r, lhs == rhs, "polynomials differ")


def _q_matches_signed_psi(r: int) -> IdentityReport:
    ok = q_poly(r) == psi_poly(r).scale((-1) ** r)
    return _report("q_equals_signed_psi", r, ok, "polynomials differ")


def _reflection_check(r: int) -> IdentityReport:
    q = q_poly(r)
    reflected = q.compose_affine(-1, r).scale((-1) ** r)
    return _report("q_reflection", r, reflected == q, "reflection broken")


def _grj_zero_stirling_check(r: int) -> IdentityReport:
    srow = stirling_first_row(r - 1)
    fact = math.factorial(r - 1)
    for j in range(r):
        expected = Fraction((-1) ** j * srow[j], fact)
        got = grj_poly(r, j).evaluate(Fraction(0))
        if got != expected:
            return _report("grj_zero_stirling", r, False, f"j={j}: {got} != {expected}")
    return _report("grj_zero_stirling", r, True)


def _psi_difference_check(r: int) -> IdentityReport:
    delta = psi_poly(r).shift(1) - psi_poly(r)
    expected = RationalPoly.one() if r == 1 else psi_poly(r - 1)
    return _report("psi_difference_law", r, delta == expected, "difference law broken")


def telescoping_variants(r: int, j: int, span: int) -> tuple[bool, bool]:
    """(exclusive_holds, inclusive_holds) for the G_{r,j} telescoping law at span L.

    exclusive: sum_{m=0}^{L-1} G_{r,j}(z+m) = G_{r+1,j}(z+L) - G_{r+1,j}(z)
    inclusive: sum_{m=0}^{L}   G_{r,j}(z+m) = same right-hand side
    """
    g = grj_poly(r, j)
    rhs = grj_poly(r + 1, j).shift(span) - grj_poly(r + 1, j)
    acc = RationalPoly.zero()
    for m in range(span):
        acc = acc + g.shift(m)
    exclusive = acc == rhs
    inclusive = (acc + g.shift(span)) == rhs
    return exclusive, inclusive


def _telescoping_check(r: int) -> IdentityReport:
    # The inclusive version printed alongside this law is off by one; the
    # exclusive sum is the variant that holds and is the one recorded here.
    for j in range(r):
        for span in range(0, 5):
            exclusive, _ = telescoping_variants(r, j, span)
            if not exclusive:
                return _report("grj_telescoping[m<L]", r, False, f"j={j}, L={span}")
    return _report("grj_telescoping[m<L]", r, True)


def _counts_check(r: int, p: int) -> IdentityReport:
    counts = composition_counts(p, r)
    ok = counts == counts[::-1] and sum(counts) == p**r
    return _report("composition_counts", r, ok, f"p={p} row malformed", p=p)


def check_identities(r_max: int, p_list: Sequence[int] = (2, 3)) -> list[IdentityReport]:
    """Run every exact polynomial identity for r = 1..r_max.

    The two addition laws (binom_vandermonde, grj_addition) are identities in
    x and y of degree at most r in y.  Each is decided by exact polynomial
    equality in x at the integer points y = 0..r (fewer where the degree is
    lower): two polynomials of degree at most r in y that agree at r + 1
    points are equal, so this proves the law rather than samples it.
    Everything else is decided by exact polynomial equality.
    Failures are reported, never raised.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    reports: list[IdentityReport] = []
    for r in range(1, r_max + 1):
        reports.append(_vandermonde_check(r))
        reports.append(_grj_addition_check(r))
        reports.append(_integral_identity_check(r))
        reports.append(_q_matches_signed_psi(r))
        reports.append(_reflection_check(r))
        reports.append(_grj_zero_stirling_check(r))
        reports.append(_psi_difference_check(r))
        reports.append(_telescoping_check(r))
        for p in p_list:
            reports.append(_counts_check(r, p))
    return reports
