"""Reference proof trace over RatFunc and TruncatedSeries.

This is the trace as it was computed before it moved to integer
arithmetic: every value is a gcd-reduced RatFunc, every series quotient
a TruncatedSeries division. Tests compare eulercong.prooftrace with it
field by field.
"""

from typing import Optional

from eulercong.eulerian import eulerian_recurrence
from eulercong.poly import ONE, Poly, geometric_poly
from eulercong.ratfunc import RF_ZERO, RatFunc
from eulercong.series import TruncatedSeries, constant_series, geometric_exp_sum, scaled_exp


def diff_rational(n: int, m: int) -> RatFunc:
    a = eulerian_recurrence(n).poly
    one_minus_tm = Poly([1]) - Poly([0] * m + [1])
    left = RatFunc(a.subs_t_power(m) * (m ** (n + 1)), one_minus_tm ** (n + 1))
    right = RatFunc(a, Poly([1, -1]) ** (n + 1))
    return left - right


def _one_minus_scaled_exp(m: int, order: int) -> TruncatedSeries:
    tm = RatFunc(Poly([0] * m + [1]))
    one = constant_series(RatFunc(ONE), order)
    return one - scaled_exp(tm, m, order)


def series_difference_coeff(n: int, m: int) -> RatFunc:
    one = constant_series(RatFunc(ONE), n)
    m_const = constant_series(RatFunc(Poly([m])), n)
    diff = m_const / _one_minus_scaled_exp(m, n) - one / _one_minus_scaled_exp(1, n)
    return diff.egf_coeff(n)


def ratio_coeff(j: int, m: int, n: int) -> tuple[RatFunc, Optional[int]]:
    if j == 0:
        value = RF_ZERO
    else:
        value = (geometric_exp_sum(j, n) / geometric_exp_sum(m, n)).egf_coeff(n)
    direct = (_one_minus_scaled_exp(j, n) / _one_minus_scaled_exp(m, n)) if j >= 1 \
        else constant_series(RF_ZERO, n)
    assert direct.egf_coeff(n) == value
    return value, divisor_exponent(value.den, geometric_poly(m), n + 1)


def divisor_exponent(den: Poly, base: Poly, kmax: int) -> Optional[int]:
    """The least k <= kmax with den | base^k exactly, or None."""
    return next((k for k in range(kmax + 1) if not divmod(base**k, den)[1]), None)


def trace_fields(n: int, m: int) -> dict:
    """diff_value, series_value, per_j as (j, num, den, divisor_exponent), den_at_one."""
    diff_value = diff_rational(n, m)
    series = series_difference_coeff(n, m)
    per_j = []
    for j in range(m):
        value, exponent = ratio_coeff(j, m, n)
        per_j.append((j, value.num, value.den, exponent))
    return {
        "diff_value": (diff_value.num, diff_value.den),
        "series_value": (series.num, series.den),
        "per_j": per_j,
        "den_at_one": diff_value.den_value_at(1),
    }
