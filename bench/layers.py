"""Layer microbenchmarks, run in a fresh process of their own.

Times are scaled CPU seconds (see meter.py).

* exact_poly.check_identities_s: check_identities(8) with the exact layer's
  caches empty (the first library call of this process).
* evaluate.product.{gauss,euler}_terms_per_s.d{30,60}: r*N per second of
  gauss_partial / euler_partial at N = 2^14, r = 1..3.  An untimed
  gauss_partial at the same argument first fills the integer log tables and
  the memoized lower-level bases, so each timed call is the sweep itself.
* constants.hurwitz_sderiv.evals_per_s: hurwitz_zeta_sderiv(-j, a) at 30
  digits (no memo on this function).
* evaluate.oracle.evals_per_s: barnes_zeta_oracle(r, z) at 30 digits.
"""

from __future__ import annotations

from fractions import Fraction

from meter import Meter

N = 2**14
PRODUCT_Z = Fraction(21, 4)
HURWITZ_ARGS = [(j, a) for j in range(4) for a in (Fraction(1, 3), Fraction(5, 2), Fraction(29, 4))]
ORACLE_ARGS = [(r, z) for r in (1, 2, 3) for z in (Fraction(1, 3), Fraction(5, 2), Fraction(29, 4))]


def run() -> dict[str, float]:
    meter = Meter()

    def _timed(fn, *args) -> float:
        _, error, _, scaled = meter.run(fn, *args)
        if error is not None:
            raise RuntimeError(f"{fn.__name__}{args}: {error}")
        return scaled

    from multigamma.exact_poly import check_identities

    out = {"exact_poly.check_identities_s": _timed(check_identities, 8)}

    from multigamma.constants import Precision, hurwitz_zeta_sderiv
    from multigamma.evaluate import EvalConfig, barnes_zeta_oracle, euler_partial, gauss_partial

    for digits in (30, 60):
        cfg = EvalConfig(precision=Precision(digits=digits))
        for name, fn in (("gauss", gauss_partial), ("euler", euler_partial)):
            terms, seconds = 0, 0.0
            for r in (1, 2, 3):
                if name == "gauss":
                    fn(r, PRODUCT_Z, N, cfg)  # euler finds the same state warm
                seconds += _timed(fn, r, PRODUCT_Z, N, cfg)
                terms += r * N
            out[f"evaluate.product.{name}_terms_per_s.d{digits}"] = terms / seconds

    prec = Precision(digits=30)
    seconds = sum(_timed(hurwitz_zeta_sderiv, -j, a, prec) for j, a in HURWITZ_ARGS)
    out["constants.hurwitz_sderiv.evals_per_s"] = len(HURWITZ_ARGS) / seconds
    seconds = sum(_timed(barnes_zeta_oracle, r, z, prec) for r, z in ORACLE_ARGS)
    out["evaluate.oracle.evals_per_s"] = len(ORACLE_ARGS) / seconds
    return out
