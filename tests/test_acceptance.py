"""Acceptance gate: ten criteria, one test and one pass line each.

Every criterion is pinned to its stated tolerance.  References are computed
independently inside this file where the criterion demands one (the classical
product for the gamma function, the Legendre duplication closed form, the
Glaisher-limit route to zeta'(-1)); everything else cross-checks two routes
of the package against each other.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from multigamma.constants import Precision, zeta_prime_neg
from multigamma.evaluate import (
    EvalConfig,
    barnes_zeta_oracle,
    calibrate_conventions,
    euler_partial,
    extrapolate,
    gauss_partial,
    higher_stirling_terms,
    log_gamma_r,
    log_multigamma,
    log_multigamma_asymptotic,
    multiplication_residual,
)
from multigamma.exact_poly import DERIVED, RationalPoly, check_identities

HALF = Fraction(1, 2)


def ok(name, detail=""):
    print(f"[PASS] {name}" + (f" — {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# 1. exact identity suite, r = 1..8, rational arithmetic
# ---------------------------------------------------------------------------


def test_criterion_01_exact_identities():
    reports = check_identities(8, (2, 3))
    failures = [rep for rep in reports if not rep.passed]
    assert not failures, failures
    ok("criterion 1: exact identity suite r=1..8",
       f"{len(reports)} identities, all exact")


# ---------------------------------------------------------------------------
# 2. Gauss route at r=1 vs the classical product for the gamma function
# ---------------------------------------------------------------------------


def classical_gamma_log(z, n_top=2**16):
    """log Gamma(z) from log(N! N^z / (z (z+1) ... (z+N))), Richardson-refined.

    Independent reference: a single cumulative sweep checkpointed at
    N = n_top/8 .. n_top, then ratio-2 extrapolation of the 1/N error.
    """
    checkpoints = [n_top >> 3, n_top >> 2, n_top >> 1, n_top]
    values = []
    log_fact = mpmath.mpf(0)
    log_shifted = mpmath.log(z)  # n = 0 term of the denominator
    for n in range(1, n_top + 1):
        log_fact += mpmath.log(n)
        log_shifted += mpmath.log(z + n)
        if n in checkpoints:
            values.append(log_fact + z * mpmath.log(n) - log_shifted)
    level = 1
    while len(values) > 1:
        w = mpmath.mpf(2) ** level
        values = [(w * values[i + 1] - values[i]) / (w - 1)
                  for i in range(len(values) - 1)]
        level += 1
    return values[0]


def test_criterion_02_gauss_reproduces_gamma(acceptance_cfg):
    with mpmath.workdps(40):
        worst = mpmath.mpf(0)
        for z in (mpmath.mpf("0.5"), mpmath.mpf("1.5"), mpmath.mpf("2.5")):
            mine = mpmath.exp(log_multigamma(1, z, acceptance_cfg).value)
            ref = mpmath.exp(classical_gamma_log(z))
            rel = abs(mine - ref) / abs(ref)
            worst = max(worst, rel)
            assert rel < 1e-8, (z, rel)
    ok("criterion 2: Gauss route matches classical-product gamma reference",
       f"worst relative error {mpmath.nstr(worst, 3)}")


# ---------------------------------------------------------------------------
# 3. Euler vs Gauss extrapolants
# ---------------------------------------------------------------------------


def test_criterion_03_euler_vs_gauss(acceptance_cfg):
    with mpmath.workdps(40):
        ns = [2**10, 2**11, 2**12, 2**13, 2**14]
        worst = mpmath.mpf(0)
        for r in (1, 2):
            for z in (mpmath.mpf("0.5"), mpmath.mpf("1.5"), mpmath.mpc(1, 1)):
                g = extrapolate([gauss_partial(r, z, n, acceptance_cfg) for n in ns], 4)
                e = extrapolate([euler_partial(r, z, n, acceptance_cfg) for n in ns], 4)
                rel = abs(g.value - e.value) / max(1, abs(g.value))
                worst = max(worst, rel)
                assert rel < 1e-8, (r, z, rel)
    ok("criterion 3: Euler and Gauss extrapolants agree",
       f"worst relative difference {mpmath.nstr(worst, 3)}")


# ---------------------------------------------------------------------------
# 4. recurrence residual on the grid
# ---------------------------------------------------------------------------


def test_criterion_04_recurrence(acceptance_cfg):
    grid = [mpmath.mpf("0.5"), mpmath.mpf("1.5"), mpmath.mpf("2.5"), mpmath.mpc(1, 1)]
    with mpmath.workdps(40):
        worst = mpmath.mpf(0)
        for r in (1, 2, 3):
            for z in grid:
                lhs = log_multigamma(r, z + 1, acceptance_cfg).value
                rhs = (log_multigamma(r - 1, z, acceptance_cfg).value
                       + log_multigamma(r, z, acceptance_cfg).value)
                worst = max(worst, abs(lhs - rhs))
                assert abs(lhs - rhs) < 1e-8, (r, z)
    ok("criterion 4: recurrence residual r=1..3", f"worst {mpmath.nstr(worst, 3)}")


# ---------------------------------------------------------------------------
# 5. integer lattice
# ---------------------------------------------------------------------------


def test_criterion_05_integer_lattice(acceptance_cfg):
    with mpmath.workdps(40):
        worst = mpmath.mpf(0)
        for n in range(2, 9):
            target = 1
            for k in range(1, n - 1):
                target *= math.factorial(k)
            got = log_multigamma(2, n, acceptance_cfg).value
            rel = abs(got - mpmath.log(target)) / max(1, abs(mpmath.log(target)))
            worst = max(worst, rel)
            assert rel < 1e-10, n
        # third level must unfold through the second
        g3 = 1
        for n in range(2, 7):
            got = log_multigamma(3, n, acceptance_cfg).value
            assert abs(got - mpmath.log(g3)) < 1e-10, n
            level2 = 1
            for k in range(1, n - 1):
                level2 *= math.factorial(k)
            g3 *= level2
    ok("criterion 5: integer lattice G_2(n) = prod k!, G_3 consistent",
       f"worst relative error {mpmath.nstr(worst, 3)}")


# ---------------------------------------------------------------------------
# 6. first-level asymptotic formula: symbolic reduction + 1/z decay
# ---------------------------------------------------------------------------


def test_criterion_06_asymptotic_form_and_decay(acceptance_cfg):
    # symbolic: the r=1 terms must literally be (z+1/2) log(z+1) - (z+1)
    # + (1/2) log 2 pi, the last via the -zeta'(0) multiplier being 1
    terms = higher_stirling_terms(1)
    assert terms.log_coeff == RationalPoly([HALF, Fraction(1)])
    assert terms.power_part == RationalPoly([Fraction(1), Fraction(1)])
    assert terms.zeta_multipliers == ((0, RationalPoly([Fraction(1)])),)

    # numeric: raw-formula error against the product route decays like C/|z|
    cfg = EvalConfig()
    with mpmath.workdps(40):
        zs = [mpmath.mpf(20), mpmath.mpf(40), mpmath.mpf(80)]
        errs = []
        for z in zs:
            asym = log_multigamma_asymptotic(1, z, cfg).value
            ref = log_multigamma(1, z + 1, cfg).value
            errs.append(abs(asym - ref))
        # least-squares slope of log err vs log z
        xs = [mpmath.log(z) for z in zs]
        ys = [mpmath.log(e) for e in errs]
        xbar = sum(xs) / 3
        ybar = sum(ys) / 3
        slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
                 / sum((x - xbar) ** 2 for x in xs))
        exponent = -slope
    assert 0.7 <= exponent <= 1.3, exponent
    ok("criterion 6: first-level shifted formula reduces symbolically; error ~ C/|z|",
       f"fitted exponent {mpmath.nstr(exponent, 4)}")


# ---------------------------------------------------------------------------
# 7. oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_07_oracle_equivalence(acceptance_cfg):
    cfg = acceptance_cfg
    with mpmath.workdps(40):
        worst = mpmath.mpf(0)
        for r in (1, 2, 3):
            for zq in (HALF, Fraction(1), Fraction(3, 2), Fraction(2)):
                zm = mpmath.mpf(zq.numerator) / zq.denominator
                got = log_gamma_r(r, zm, cfg)
                # the front door's zeta route forms the oracle's own sum
                assert got.method == "gauss", (r, zq)
                mine = got.value
                ref = barnes_zeta_oracle(r, zq, cfg.precision).value
                diff = abs(mine - ref)
                worst = max(worst, diff)
                assert diff < 1e-8, (r, zq, diff)
    ok("criterion 7: normalized gamma matches the zeta-series oracle",
       f"worst difference {mpmath.nstr(worst, 3)}")


# ---------------------------------------------------------------------------
# 8. multiplication formula
# ---------------------------------------------------------------------------


def test_criterion_08_multiplication(acceptance_cfg):
    cfg = acceptance_cfg
    zs = [mpmath.mpf(1), mpmath.mpf("1.5"), mpmath.mpf(2), mpmath.mpf("2.5")]
    worst = mpmath.mpf(0)
    with mpmath.workdps(40):
        for r, p in ((1, 2), (1, 3), (2, 2), (2, 3)):
            for z in zs:
                rep = multiplication_residual(r, p, z, cfg)
                worst = max(worst, rep.residual)
                assert rep.residual < 1e-6, (r, p, z, rep.residual)
        # the (r=1, p=2) case against the Legendre duplication closed form:
        # log G_1(z/2) + log G_1((z+1)/2) = (1-z) log 2 + (1/2) log pi + log G_1(z)
        worst_dup = mpmath.mpf(0)
        for z in zs:
            lhs = (log_multigamma(1, z / 2, cfg).value
                   + log_multigamma(1, (z + 1) / 2, cfg).value)
            rhs = ((1 - z) * mpmath.log(2) + mpmath.log(mpmath.pi) / 2
                   + log_multigamma(1, z, cfg).value)
            worst_dup = max(worst_dup, abs(lhs - rhs))
            assert abs(lhs - rhs) < 1e-10, z
    ok("criterion 8: multiplication formula residuals",
       f"worst residual {mpmath.nstr(worst, 3)}, "
       f"duplication closed form {mpmath.nstr(worst_dup, 3)}")


# ---------------------------------------------------------------------------
# 9. calibration: unique survivor, idempotent
# ---------------------------------------------------------------------------


def test_criterion_09_calibration_unique_and_idempotent():
    # calibration is precision-independent (it picks signs); a lighter config
    # keeps it fast
    cfg = EvalConfig(precision=Precision(digits=20))
    first = calibrate_conventions(cfg)
    assert first == DERIVED
    again = calibrate_conventions(cfg)
    assert again == first and again.evidence == first.evidence
    ok("criterion 9: calibration returns the derived set as its one survivor, "
       "reruns identical",
       f"s_phi={first.s_phi}, sigma_phi={first.sigma_phi}, s_R={first.s_R}")


# ---------------------------------------------------------------------------
# 10. derivative constants
# ---------------------------------------------------------------------------


def glaisher_route_zeta_prime_neg1(dps=40):
    """zeta'(-1) = 1/12 - ln A with ln A from its defining limit (independent)."""
    with mpmath.workdps(dps + 15):
        seq = []
        acc = mpmath.mpf(0)
        prev = 0
        for n in [2**e for e in range(6, 12)]:
            for k in range(prev + 1, n + 1):
                acc += k * mpmath.log(k)
            prev = n
            nn = mpmath.mpf(n)
            seq.append(acc - (nn**2 / 2 + nn / 2 + mpmath.mpf(1) / 12) * mpmath.log(nn)
                       + nn**2 / 4)
        level = 1
        while len(seq) > 1:
            w = mpmath.mpf(4) ** level
            seq = [(w * seq[i + 1] - seq[i]) / (w - 1) for i in range(len(seq) - 1)]
            level += 1
        return mpmath.mpf(1) / 12 - seq[0]


def test_criterion_10_constants():
    prec = Precision()
    with mpmath.workdps(45):
        d0 = abs(zeta_prime_neg(0, prec) + mpmath.log(2 * mpmath.pi) / 2)
        assert d0 < 1e-12
        d2 = abs(zeta_prime_neg(2, prec) + mpmath.zeta(3) / (4 * mpmath.pi**2))
        assert d2 < 1e-12
        d1 = abs(zeta_prime_neg(1, prec) - glaisher_route_zeta_prime_neg1())
        assert d1 < 1e-12
    ok("criterion 10: zeta'(0), zeta'(-1), zeta'(-2) against independent routes",
       f"diffs {mpmath.nstr(d0, 2)}, {mpmath.nstr(d1, 2)}, {mpmath.nstr(d2, 2)}")
