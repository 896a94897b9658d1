"""Mechanical replay of the generating-function proof of the congruence.

Every step is recomputed in exact arithmetic and cross-checked:

  1. the rational-function difference
         m^(n+1) A_n(t^m)/(1-t^m)^(n+1) - A_n(t)/(1-t)^(n+1)
     has a denominator that does not vanish at t = 1;
  2. the same value falls out as the x^n/n! coefficient of
         m/(1 - t^m e^(mx)) - 1/(1 - t e^x);
  3. that kernel difference telescopes into the m quotients
         (1 - t^j e^(jx))/(1 - t^m e^(mx)), 0 <= j < m,
     each of whose coefficient denominators divides a power of
     G_m = 1 + t + ... + t^(m-1).

`full_trace` records each check as a boolean of its report
(diff_equals_series, telescopes, den_nonzero_at_one, divisors_bounded);
all_checks is their conjunction.

All arithmetic runs on integer coefficient lists (ascending, no trailing
zeros, [] for zero). Every denominator divides a power of
t^m - 1 = prod_{d|m} Phi_d, so each value is an integer numerator over
prod Phi_d^(e_d) with G_m = prod_{d|m, d>1} Phi_d. A value is brought to
lowest terms by exact trial division of the numerator by each monic
cyclotomic polynomial Phi_d, never by a polynomial gcd, and only the
reported values are built as `RatFunc`, straight from the reduced pair.

Series quotients a/b are divided in EGF-normalised integer form: the
x^k/k! coefficient of a/b is N_k / b_0^(k+1), with
    N_k = a_k b_0^k - sum_{j<k} C(k,j) N_j b_(k-j) b_0^(k-1-j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb
from typing import TYPE_CHECKING, Optional

from .congruence import _integer_sides, _times_geometric
from .poly import Poly, geometric_poly
from .ratfunc import RatFunc

if TYPE_CHECKING:
    from .series import TruncatedSeries


@dataclass(frozen=True)
class RatioTerm:
    j: int
    value: RatFunc
    divisor_exponent: Optional[int]


# The proof checks of a trace, in proof order; all_checks is their conjunction.
CHECKS = ("diff_equals_series", "telescopes", "den_nonzero_at_one", "divisors_bounded")


@dataclass(frozen=True)
class TraceReport:
    n: int
    m: int
    diff_value: RatFunc
    series_value: RatFunc
    per_j: tuple[RatioTerm, ...]
    den_at_one: Fraction
    all_checks: bool
    diff_equals_series: bool
    telescopes: bool
    den_nonzero_at_one: bool
    divisors_bounded: bool

    def failed_checks(self) -> list[str]:
        """Names of the proof checks that failed, in proof order."""
        return [name for name in CHECKS if not getattr(self, name)]


def _check_nm(n: int, m: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m < 1:
        raise ValueError("m must be >= 1")


# -- integer polynomial helpers ---------------------------------------------


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _add(p: list[int], q: list[int], c: int = 1) -> list[int]:
    """p + c*q."""
    return _trim([a + c * b for a, b in zip_longest(p, q, fillvalue=0)])


def _mul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    terms = [(j, b) for j, b in enumerate(q) if b]
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in terms:
                out[i + j] += a * b
    return out


def _divmod_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a monic b, over the integers."""
    db = len(b) - 1
    terms = [(j, c) for j, c in enumerate(b[:-1]) if c]
    rem = list(a)
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        q = rem[i]
        if q:
            quot[i - db] = q
            for j, c in terms:
                rem[i - db + j] -= q * c
    return quot, _trim(rem[:db])


def _times_binomial(p: list[int], e: int) -> list[int]:
    """p * (t^e - 1)."""
    return _add([0] * e + p, p, -1)


def _times_geometric_power(p: list[int], m: int, k: int) -> list[int]:
    """p * G_m^k for nonzero p, by k running sums."""
    for _ in range(k):
        p = _times_geometric(p, m)
    return p


def _cyclotomic(m: int) -> list[list[int]]:
    """Phi_d for the divisors d of m, ascending, from t^d - 1 = prod_{e|d} Phi_e."""
    phis: dict[int, list[int]] = {}
    for d in range(1, m + 1):
        if m % d == 0:
            p = [-1] + [0] * (d - 1) + [1]
            for e, phi in phis.items():
                if d % e == 0:
                    p = _divmod_monic(p, phi)[0]
            phis[d] = p
    return list(phis.values())


def _reduce(num: list[int], den: list[int], phis: list[list[int]],
            e: int) -> tuple[list[int], list[int], list[int]]:
    """num / den in lowest terms, where den = prod Phi^e over phis.

    Cancels each Phi from both while it divides num. The Phi are
    irreducible, so what is left is coprime; returns it with the
    exponent left on each Phi.
    """
    if not num:
        return [], [1], [0] * len(phis)
    exps = []
    for phi in phis:
        k = e
        while k:
            q, r = _divmod_monic(num, phi)
            if r:
                break
            num, den, k = q, _divmod_monic(den, phi)[0], k - 1
        exps.append(k)
    return num, den, exps


def _ratfunc(num: list[int], den: list[int]) -> RatFunc:
    return RatFunc._from_reduced(Poly(num), Poly(den))


def _ints(p: Poly) -> list[int]:
    """Coefficients of an integer polynomial (every numerator and denominator here)."""
    return [c.numerator for c in p.coeffs]


def _egf_quotient(a: list[list[int]], b: list[list[int]], times_b0) -> list[list[int]]:
    """N_0..N_n with x^k/k! coefficient of a/b equal to N_k / b_0^(k+1).

    a and b hold the x^k/k! coefficients of the two series, and
    times_b0(p) is p * b_0 (b[0] itself is not read). By Horner in b_0,
    N_k = (...(a_k b_0 - c_0) b_0 - ... ) b_0 - c_(k-1), with
    c_j = C(k,j) N_j b_(k-j).
    """
    out: list[list[int]] = []
    for k, acc in enumerate(a):
        for j in range(k):
            acc = _add(times_b0(acc), _mul(out[j], b[k - j]), -comb(k, j))
        out.append(acc)
    return out


def _kernel(c: int, n: int) -> list[list[int]]:
    """Numerators of 1/(1 - t^c e^(cx)): coefficient k is N_k / (t^c - 1)^(k+1).

    Divides -1 by t^c e^(cx) - 1, whose x^k/k! coefficient is c^k t^c - [k = 0].
    """
    b = [_times_binomial([1], c)] + [[0] * c + [c ** k] for k in range(1, n + 1)]
    return _egf_quotient([[-1]] + [[]] * n, b, lambda p: _times_binomial(p, c))


def _binomial_sum(ns: list[list[int]], x: int, times_d) -> list[int]:
    """sum_l C(n,l) x^l ns[n-l] D^l, by Horner in D; times_d(p) is p * D.

    With ns[k] / D^(k+1) the x^k/k! coefficients of a series Y, this is
    the numerator over D^(n+1) of the x^n/n! coefficient of e^(xX) Y.
    """
    n = len(ns) - 1
    acc: list[int] = []
    for l in range(n, -1, -1):
        acc = _add(times_d(acc), ns[n - l], comb(n, l) * x ** l)
    return acc


@lru_cache(maxsize=1)
def _ratio_numerators(m: int, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Numerators of the x^n/n! coefficient of (1 - t^j e^(jx))/(1 - t^m e^(mx)).

    Returns (geometric, direct), each indexed by j in [0, m). The geometric
    form is sum_{i<j} t^i e^(ix) / sum_{i<m} t^i e^(ix), over G_m^(n+1);
    the direct form is (1 - t^j e^(jx)) / (1 - t^m e^(mx)), over
    (t^m - 1)^(n+1). Each denominator series is inverted once for all j.
    """
    def times_g(p: list[int]) -> list[int]:
        return _times_geometric(p, m) if p else p

    def times_d(p: list[int]) -> list[int]:
        return _times_binomial(p, m)

    s = [_trim([i ** k for i in range(m)]) for k in range(n + 1)]
    r = _egf_quotient([[1]] + [[]] * n, s, times_g)  # 1/S_m: r[k] / G_m^(k+1)
    w = _kernel(m, n)  # 1/(1 - t^m e^(mx)): w[k] / (t^m - 1)^(k+1)
    geometric, direct = [], []
    acc: list[int] = []
    for j in range(m):
        geometric.append(tuple(acc))
        direct.append(tuple(_add(w[n], [0] * j + _binomial_sum(w, j, times_d), -1)))
        acc = _add(acc, [0] * j + _binomial_sum(r, j, times_g))
    return tuple(geometric), tuple(direct)


# -- proof steps -------------------------------------------------------------


def _over_tm_minus_one(num: list[int], m: int, n: int) -> RatFunc:
    """num / (t^m - 1)^(n+1) in lowest terms; t^m - 1 = prod_{d|m} Phi_d."""
    den = [1]
    for _ in range(n + 1):
        den = _times_binomial(den, m)
    return _ratfunc(*_reduce(num, den, _cyclotomic(m), n + 1)[:2])


def diff_rational(n: int, m: int) -> RatFunc:
    """The reduced difference of the two normalized Eulerian fractions.

    Over (1 - t^m)^(n+1) its numerator is m^(n+1) A_n(t^m) - G_m^(n+1) A_n(t),
    the cleared difference of the two sides of the congruence.
    """
    _check_nm(n, m)
    lhs, rhs = _integer_sides(n, m)
    num = _add([m ** (n + 1) * c for c in lhs], rhs, -1)
    if n % 2 == 0:  # (1 - t^m)^(n+1) = -(t^m - 1)^(n+1)
        num = [-c for c in num]
    return _over_tm_minus_one(num, m, n)


def series_difference_coeff(n: int, m: int) -> RatFunc:
    """EGF coefficient n of m/(1 - t^m e^(mx)) - 1/(1 - t e^x)."""
    _check_nm(n, m)
    # m w_m/(t^m - 1)^(n+1) - w_1/(t - 1)^(n+1), and t^m - 1 = (t - 1) G_m.
    w_m, w_1 = _kernel(m, n)[n], _kernel(1, n)[n]
    num = _add([m * c for c in w_m], _times_geometric_power(w_1, m, n + 1), -1)
    return _over_tm_minus_one(num, m, n)


def ratio_coeff(j: int, m: int, n: int) -> tuple[RatFunc, Optional[int]]:
    """EGF coefficient n of (1 - t^j e^(jx))/(1 - t^m e^(mx)).

    Computed from the geometric-sum form and cross-checked against the
    direct form; the two must agree identically. The second return is
    the smallest exponent k <= n+1 with the reduced denominator dividing
    (1 + t + ... + t^(m-1))^k, confirmed by an exact division (None if
    that division leaves a remainder).
    """
    _check_nm(n, m)
    if not 0 <= j < m:
        raise ValueError("ratio term requires 0 <= j < m")
    geometric, direct = _ratio_numerators(m, n)
    num = list(geometric[j])
    lifted = num
    for _ in range(n + 1):  # G_m^(n+1) (t - 1)^(n+1) = (t^m - 1)^(n+1)
        lifted = _times_binomial(lifted, 1)
    if lifted != list(direct[j]):
        raise ArithmeticError(
            f"ratio forms disagree at j={j}, m={m}, n={n}: arithmetic bug"
        )
    num, den, exps = _reduce(num, _times_geometric_power([1], m, n + 1),
                             _cyclotomic(m)[1:], n + 1)
    k = max(exps, default=0)
    exponent = None if _divmod_monic(_times_geometric_power([1], m, k), den)[1] else k
    return _ratfunc(num, den), exponent


def _telescopes(per_j: tuple[RatioTerm, ...], series_value: RatFunc, m: int, n: int) -> bool:
    """Do the per-j values, brought over G_m^(n+1), add up to the series value?"""
    top = _times_geometric_power([1], m, n + 1)
    total: list[int] = []
    for term in per_j:
        cofactor, rem = _divmod_monic(top, _ints(term.value.den))
        if rem:
            return False
        total = _add(total, _mul(_ints(term.value.num), cofactor))
    return _ratfunc(*_reduce(total, top, _cyclotomic(m)[1:], n + 1)[:2]) == series_value


def full_trace(n: int, m: int) -> TraceReport:
    """Run every proof step for one (n, m) and record all intermediates."""
    _check_nm(n, m)
    diff_value = diff_rational(n, m)
    series_value = series_difference_coeff(n, m)
    per_j = tuple(
        RatioTerm(j, *ratio_coeff(j, m, n)) for j in range(m)
    )
    den_at_one = diff_value.den_value_at(1)
    checks = {
        "diff_equals_series": diff_value == series_value,
        "telescopes": _telescopes(per_j, series_value, m, n),
        "den_nonzero_at_one": den_at_one != 0,
        "divisors_bounded": all(term.divisor_exponent is not None for term in per_j),
    }
    return TraceReport(
        n=n,
        m=m,
        diff_value=diff_value,
        series_value=series_value,
        per_j=per_j,
        den_at_one=den_at_one,
        all_checks=all(checks.values()),
        **checks,
    )


def xp_decompose(m: int, order: int) -> tuple[Poly, TruncatedSeries]:
    """Split sum_j t^j e^(jx) as (1 + t + ... + t^(m-1)) + x * P(t, x).

    Returns the constant part and P (order reduced by one); every
    coefficient of P is a polynomial in t.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1 to expose the x-tail")
    from .series import TruncatedSeries, geometric_exp_sum

    s = geometric_exp_sum(m, order)
    constant = s.coeffs[0]
    if constant != geometric_poly(m):
        raise ArithmeticError("constant term is not the geometric polynomial")
    return constant, TruncatedSeries(s.coeffs[1:])
