"""Exact polynomial layer: oracles, frozen values, and property tests.

Every check in this file is exact (Fraction arithmetic); any tolerance-free
mismatch is a real defect.  Oracles are deliberately independent of the
implementation: Bernoulli numbers come from power-series division, Stirling
numbers from the cycle-count recurrence.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigamma import exact_poly
from multigamma.exact_poly import (
    DERIVED,
    ConventionSet,
    RationalPoly,
    bernoulli_numbers,
    bernoulli_poly,
    binom_poly,
    check_identities,
    composition_counts,
    definite_integral_poly,
    grj_poly,
    phi_rj_poly,
    psi_poly,
    q_poly,
    stirling_first_row,
    telescoping_variants,
)

RESOLVED = ConventionSet(s_phi=-1, sigma_phi=Fraction(-1), s_R=-1)

fractions_small = st.fractions(min_value=-5, max_value=5, max_denominator=24)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def bernoulli_oracle(n_max):
    """B_n via power-series division: t/(e^t - 1) = sum B_n t^n / n!.

    Divides 1 by the series (e^t - 1)/t = sum_k t^k/(k+1)! term by term.
    """
    d = [Fraction(1, math.factorial(k + 1)) for k in range(n_max + 1)]
    c = [Fraction(0)] * (n_max + 1)
    c[0] = Fraction(1)
    for n in range(1, n_max + 1):
        c[n] = -sum(d[k] * c[n - k] for k in range(1, n + 1))
    return [c[n] * math.factorial(n) for n in range(n_max + 1)]


def stirling_oracle(r):
    """Signed first-kind Stirling row from the unsigned cycle-count recurrence.

    c(n+1, j) = c(n, j-1) + n*c(n, j);  {}_rS_j = (-1)^(r-j) c(r, j).
    """
    row = [1]
    for n in range(r):
        nxt = [0] * (len(row) + 1)
        for j, v in enumerate(row):
            nxt[j + 1] += v
            nxt[j] += n * v
        row = nxt
    return tuple((-1) ** (r - j) * row[j] for j in range(r + 1))


def test_bernoulli_against_series_division():
    # 160 = 2 order_cap at 60 digits, the Hurwitz Euler-Maclaurin sum's
    # need, with room to spare
    assert bernoulli_numbers(240) == bernoulli_oracle(240)


def test_bernoulli_against_mpmath_bernfrac():
    nums = bernoulli_numbers(300)
    for n, b in enumerate(nums):
        assert (b.numerator, b.denominator) == tuple(map(int, mpmath.bernfrac(n))), n


def test_bernoulli_table_does_not_depend_on_the_order_of_requests(monkeypatch):
    seed = exact_poly._BERNOULLI[:2]
    for sizes in ((20, 160), (160, 20)):
        monkeypatch.setattr(exact_poly, "_BERNOULLI", seed)
        got = {n: bernoulli_numbers(n) for n in sizes}
        assert len(got[20]) == 21 and len(got[160]) == 161
        assert got[160][:21] == got[20], sizes


def test_stirling_against_cycle_recurrence():
    for r in range(0, 13):
        assert stirling_first_row(r) == stirling_oracle(r)


# ---------------------------------------------------------------------------
# RationalPoly core behaviour
# ---------------------------------------------------------------------------


def test_trailing_zeros_are_normalized():
    assert RationalPoly([1, 2, 0, 0]) == RationalPoly([1, 2])
    assert RationalPoly([0, 0]).is_zero
    assert RationalPoly([0]).degree == -1
    assert RationalPoly.zero().coeffs == ()


def test_immutability():
    p = RationalPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (Fraction(3),)


def test_string_forms():
    p = RationalPoly([Fraction(1, 2), -1, 0, 1])
    assert str(p) == "z^3 - z + 1/2"
    assert str(RationalPoly.zero()) == "0"
    assert "RationalPoly" in repr(p)


@given(st.lists(fractions_small, max_size=6), st.lists(fractions_small, max_size=6),
       fractions_small)
def test_ring_operations_pointwise(acs, bcs, x):
    a, b = RationalPoly(acs), RationalPoly(bcs)
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
    assert (a - b).evaluate(x) == a.evaluate(x) - b.evaluate(x)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
    assert (-a).evaluate(x) == -a.evaluate(x)
    assert a * b == b * a
    assert (a.scale(Fraction(3, 7))).evaluate(x) == a.evaluate(x) * Fraction(3, 7)


@given(st.lists(fractions_small, max_size=6), fractions_small, fractions_small,
       fractions_small)
def test_compose_affine_matches_pointwise(cs, m, c, x):
    p = RationalPoly(cs)
    assert p.compose_affine(m, c).evaluate(x) == p.evaluate(m * x + c)


@given(st.lists(fractions_small, max_size=6), fractions_small)
def test_shift_matches_pointwise(cs, x):
    p = RationalPoly(cs)
    assert p.shift(3).evaluate(x) == p.evaluate(x + 3)
    assert p.shift(Fraction(-1, 2)).evaluate(x) == p.evaluate(x - Fraction(1, 2))


@given(st.lists(fractions_small, min_size=1, max_size=6))
def test_derivative_antiderivative_inverse(cs):
    p = RationalPoly(cs)
    assert p.antiderivative().derivative() == p


def test_evaluate_floating_paths():
    p = RationalPoly([Fraction(1, 3), 0, 1])  # z^2 + 1/3
    exact = p.evaluate(Fraction(7, 5))
    with mpmath.workdps(30):
        approx = p.evaluate(mpmath.mpf(7) / 5)
        assert abs(approx - mpmath.mpf(exact.numerator) / exact.denominator) < mpmath.mpf(10) ** -25
        val = p.evaluate(mpmath.mpc(0, 1))  # (i)^2 + 1/3 = -2/3
        assert abs(val - mpmath.mpf(-2) / 3) < mpmath.mpf(10) ** -25


def test_coefficients_reject_floats():
    with pytest.raises(TypeError):
        RationalPoly([0.5])


# ---------------------------------------------------------------------------
# Bernoulli / Stirling / binomial families
# ---------------------------------------------------------------------------


def test_bernoulli_frozen_values():
    assert bernoulli_numbers(4) == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0), Fraction(-1, 30)
    ]
    assert bernoulli_numbers(0) == [Fraction(1)]


def test_bernoulli_odd_indices_vanish():
    nums = bernoulli_numbers(31)
    assert all(nums[n] == 0 for n in range(3, 32, 2))


def test_bernoulli_sum_identity():
    # sum_{k=0}^{n-1} binom(n,k) B_k = 0 for n >= 2 under the B_1 = -1/2 convention
    nums = bernoulli_numbers(40)
    for n in range(2, 41):
        assert sum(math.comb(n, k) * nums[k] for k in range(n)) == 0


def test_bernoulli_poly_frozen_and_laws():
    assert bernoulli_poly(0) == RationalPoly.one()
    assert bernoulli_poly(1) == RationalPoly([Fraction(-1, 2), 1])
    assert bernoulli_poly(2) == RationalPoly([Fraction(1, 6), -1, 1])
    nums = bernoulli_numbers(12)
    for n in range(13):
        assert bernoulli_poly(n).evaluate(Fraction(0)) == nums[n]
        if n >= 1:
            assert bernoulli_poly(n).derivative() == bernoulli_poly(n - 1).scale(n)


def test_stirling_frozen_values():
    assert stirling_first_row(1) == (0, 1)
    assert stirling_first_row(2) == (0, -1, 1)
    assert stirling_first_row(3) == (0, 2, -3, 1)
    for r in range(1, 10):
        row = stirling_first_row(r)
        assert row[0] == 0 and row[r] == 1


def test_binom_poly_frozen_and_integer_values():
    assert binom_poly(0) == RationalPoly.one()
    assert binom_poly(1) == RationalPoly.x()
    assert binom_poly(3) == RationalPoly([0, Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6)])
    for r in range(0, 7):
        for n in range(0, 12):
            assert binom_poly(r).evaluate(n) == math.comb(n, r)


# ---------------------------------------------------------------------------
# G_{r,j} family
# ---------------------------------------------------------------------------


def test_grj_frozen_values():
    assert grj_poly(1, 0) == RationalPoly.one()
    assert grj_poly(3, 1) == RationalPoly([Fraction(1, 2), -1])  # -(2z-1)/2
    assert grj_poly(3, 2) == RationalPoly([Fraction(1, 2)])
    assert grj_poly(2, 0) == RationalPoly.x()
    assert grj_poly(2, 1) == RationalPoly([-1])


def test_grj_first_column_is_binomial():
    for r in range(1, 9):
        assert grj_poly(r, 0) == binom_poly(r - 1)


def test_grj_vanishes_at_and_past_r():
    for r in range(0, 6):
        for j in range(r, r + 3):
            assert grj_poly(r, j).is_zero


def test_grj_degree_law():
    for r in range(1, 9):
        for j in range(r):
            assert grj_poly(r, j).degree == r - 1 - j


@settings(max_examples=60)
@given(st.integers(1, 8), fractions_small, fractions_small)
def test_grj_generating_identity(r, z0, u0):
    lhs = sum(grj_poly(r, j).evaluate(z0) * u0**j for j in range(r))
    assert lhs == binom_poly(r - 1).evaluate(z0 - u0)


def test_signed_grj_are_the_hurwitz_coefficients_of_the_barnes_series():
    # The zeta route and the oracle take (-1)^(k-1) G_{k,j}(w-1) as the
    # coefficient of t^j in binom(t - w + k - 1, k - 1), the product of
    # t + i - w over i = 1..k-1 divided by (k-1)!, expanded here in t with
    # coefficients that are polynomials in w.
    zero = RationalPoly.zero()
    for k in range(1, 13):
        coeffs = [RationalPoly.one()]
        for i in range(1, k):
            factor = RationalPoly((i, -1))  # i - w
            coeffs = [a * factor + b for a, b in zip(coeffs + [zero], [zero] + coeffs)]
        assert len(coeffs) == k
        for j, coeff in enumerate(coeffs):
            want = coeff.scale(Fraction(1, math.factorial(k - 1)))
            assert grj_poly(k, j).shift(-1).scale((-1) ** (k - 1)) == want, (k, j)


# ---------------------------------------------------------------------------
# psi_r, Q_r, and the multiplication-formula brackets
# ---------------------------------------------------------------------------


def test_psi_frozen_values():
    assert psi_poly(1) == RationalPoly([Fraction(-1, 2), 1])
    assert psi_poly(2) == RationalPoly([Fraction(5, 12), -1, Fraction(1, 2)])
    assert psi_poly(1).evaluate(Fraction(1, 2)) == 0


def test_psi_difference_law():
    for r in range(2, 9):
        assert psi_poly(r).shift(1) - psi_poly(r) == psi_poly(r - 1)
    assert psi_poly(1).shift(1) - psi_poly(1) == RationalPoly.one()


def test_psi_degree():
    for r in range(1, 9):
        assert psi_poly(r).degree == r


def test_q_frozen_values():
    assert q_poly(1) == RationalPoly([Fraction(1, 2), -1])
    assert q_poly(2) == psi_poly(2)


def test_q_equals_signed_psi():
    for r in range(1, 9):
        assert q_poly(r) == psi_poly(r).scale((-1) ** r)


def test_q_reflection():
    for r in range(1, 9):
        q = q_poly(r)
        assert q.compose_affine(-1, r).scale((-1) ** r) == q


def test_composition_counts_frozen():
    assert composition_counts(2, 2) == (1, 2, 1)
    assert composition_counts(3, 1) == (1, 1, 1)
    assert composition_counts(3, 2) == (1, 2, 3, 2, 1)
    assert composition_counts(1, 5) == (1,)
    assert composition_counts(4, 0) == (1,)


@given(st.integers(1, 6), st.integers(0, 6))
def test_composition_counts_palindrome_and_mass(p, r):
    counts = composition_counts(p, r)
    assert len(counts) == r * (p - 1) + 1
    assert counts == counts[::-1]
    assert sum(counts) == p**r


def test_phi_rj_frozen_values():
    for p in range(1, 6):
        assert phi_rj_poly(1, 0, p, RESOLVED) == RationalPoly.constant(-(p - 1))
    assert phi_rj_poly(2, 1, 2, RESOLVED) == RationalPoly.constant(3)


def test_phi_rj_collapses_at_p_equal_one():
    # p = 1 leaves G_{r,j}(z + sigma_phi) - G_{r,j}(z - 1), which vanishes
    # only at sigma_phi = -1 unless G_{r,j} is constant (j = r - 1).
    assert RESOLVED == DERIVED
    shifted = ConventionSet(s_phi=-1, sigma_phi=Fraction(-2), s_R=-1)
    for r in range(1, 9):
        for j in range(r):
            assert phi_rj_poly(r, j, 1, RESOLVED).is_zero
            assert phi_rj_poly(r, j, 1, shifted).is_zero == (j == r - 1), (r, j)


def test_phi_rj_rejects_bad_j():
    with pytest.raises(ValueError):
        phi_rj_poly(2, 2, 2, RESOLVED)


# ---------------------------------------------------------------------------
# Integration helper and the constant-term identity
# ---------------------------------------------------------------------------


def test_definite_integral_basics():
    assert definite_integral_poly(RationalPoly.one(), 0) == RationalPoly.x()
    assert definite_integral_poly(RationalPoly.x(), 0) == RationalPoly([0, 0, Fraction(1, 2)])
    p = binom_poly(2)
    integral = definite_integral_poly(p, Fraction(-1))
    assert integral.derivative() == p
    assert integral.evaluate(Fraction(-1)) == 0


def test_psi_equals_integral_plus_constant():
    # psi_r(z) - int_{-1}^{z-1} binom(t, r-1) dt is the constant
    # sum_j B_{j+1}/(j+1) G_{r,j}(-1)
    nums = bernoulli_numbers(8)
    for r in range(1, 9):
        bsum = RationalPoly.zero()
        for j in range(r):
            bsum = bsum + grj_poly(r, j).shift(-1).scale(Fraction(nums[j + 1], j + 1))
        integral = definite_integral_poly(binom_poly(r - 1), Fraction(-1)).shift(-1)
        diff = psi_poly(r) - integral
        assert diff.degree <= 0
        assert diff.evaluate(Fraction(0)) == bsum.evaluate(Fraction(0))


def test_telescoping_exclusive_holds_inclusive_fails():
    for r in range(1, 5):
        for j in range(r):
            for span in (0, 1, 3, 5):
                exclusive, inclusive = telescoping_variants(r, j, span)
                assert exclusive
                assert not inclusive  # G_{r,j} is never the zero polynomial here


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------


def test_check_identities_all_pass_to_r8():
    reports = check_identities(8, p_list=(2, 3))
    failures = [rep for rep in reports if not rep.passed]
    assert failures == []
    names = {rep.name for rep in reports}
    assert names == {
        "binom_vandermonde",
        "grj_addition",
        "psi_integral_form",
        "q_equals_signed_psi",
        "q_reflection",
        "grj_zero_stirling",
        "psi_difference_law",
        "grj_telescoping[m<L]",
        "composition_counts",
    }


@pytest.fixture
def perturb(monkeypatch):
    """perturb(name, args, delta): the exact layer's `name` returns its value + delta at args."""

    def apply(name, target, delta):
        original = getattr(exact_poly, name)

        def perturbed(*args):
            poly = original(*args)
            return poly + delta if args == target else poly

        monkeypatch.setattr(exact_poly, name, perturbed)

    yield apply
    psi_poly.cache_clear()  # it may have memoized polynomials built from the perturbed one


def _failing(reports, name):
    return [rep.r for rep in reports if rep.name == name and not rep.passed]


@pytest.mark.parametrize("target, delta, failing", [
    # At r = 3 the perturbed G_{3,0} is both the k = 3 term of the left side
    # and the right side, so the law still holds there; from r = 4 on only
    # the left side carries it.
    ((3, 0), RationalPoly.one(), [4, 5]),
    # At r = 3 (j = 0, degree 2 in y) the left side gains x binom(y, 2),
    # which vanishes at y = 0 and 1: all three points are needed.
    ((2, 0), binom_poly(2), [2, 3, 4, 5]),
])
def test_addition_laws_catch_a_perturbed_grj_poly(perturb, target, delta, failing):
    perturb("grj_poly", target, delta)
    assert _failing(check_identities(5), "grj_addition") == failing


def test_addition_laws_catch_a_perturbed_binom_poly(perturb):
    # binom(z, 2) + z: at r = 2 both sides gain x + y; from r = 3 on the left
    # side gains terms that vanish at y = 0, so one point would not see them.
    perturb("binom_poly", (2,), RationalPoly.x())
    assert _failing(check_identities(5), "binom_vandermonde") == [3, 4, 5]


def test_check_identities_rejects_bad_rmax():
    with pytest.raises(ValueError):
        check_identities(0)


def test_grj_zero_matches_stirling_example():
    # r=3, j=1: G_{3,1}(0) = 1/2 and (-1)^1/2! * (coefficient of t in t(t-1)) = 1/2
    assert grj_poly(3, 1).evaluate(Fraction(0)) == Fraction(1, 2)
    assert Fraction((-1) ** 1 * stirling_first_row(2)[1], math.factorial(2)) == Fraction(1, 2)
