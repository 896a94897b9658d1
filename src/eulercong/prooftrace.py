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

`full_trace` records each check of CHECKS as a boolean of its report,
and all_checks as their conjunction. The telescoping check follows the
proof: it divides G_m^(n+1) exactly by each reported denominator and
requires the signed sum of numerators times quotients to be zero. The
quotients' numerators are built in two forms and compared: a disagreement
is an ArithmeticError. A trace builds each shared polynomial (the kernel,
the Phi_d, G_m^(n+1)) once, passes it to its steps, and keeps nothing.

All arithmetic runs on the integer lists of `_intpoly`, the two sides of
the congruence (`integer_sides`) included, so this module does not load
`congruence`. Every denominator divides a power of t^m - 1 =
prod_{d|m} Phi_d, so a reported value is reduced by exact trial division
by each cyclotomic Phi_d, never by a polynomial gcd. Series quotients are
divided in EGF-normalised integer form (`_intpoly.egf_quotient`). A
report holds each value as a reduced integer pair (num, den), read as a
`RatFunc` through `_intpoly.ratfunc_view`; den_at_one is den(1), an int.
"""

from __future__ import annotations

from functools import partial
from math import comb
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from ._intpoly import (add, check_nm, cyclotomic, divmod_exact, egf_quotient, integer_sides,
                       kernel, mul, ratfunc_view, times_binomial, times_geometric, trim)

if TYPE_CHECKING:
    from .ratfunc import RatFunc

Pair = tuple[list[int], list[int]]  # num / den, coprime, den monic, and [] / [1] for zero


class RatioTerm(NamedTuple):
    j: int
    ratio: Pair
    divisor_exponent: Optional[int]

    value = property(lambda term: ratfunc_view(term.ratio))


# The proof checks of a trace, in proof order; all_checks is their conjunction.
CHECKS = ("diff_equals_series", "telescopes", "den_nonzero_at_one", "divisors_bounded")


class TraceReport(NamedTuple):
    n: int
    m: int
    diff: Pair
    series: Pair
    per_j: tuple[RatioTerm, ...]
    all_checks: bool
    diff_equals_series: bool
    telescopes: bool
    den_nonzero_at_one: bool
    divisors_bounded: bool

    diff_value = property(lambda rep: ratfunc_view(rep.diff))
    series_value = property(lambda rep: ratfunc_view(rep.series))
    den_at_one = property(lambda rep: sum(rep.diff[1]))  # den(1)

    def failed_checks(self) -> list[str]:
        """Names of the proof checks that failed, in proof order."""
        return [name for name in CHECKS if not getattr(self, name)]


# -- integer helpers -------------------------------------------------------


def _reduce(num: list[int], den: list[int], phis: Sequence[Sequence[int]],
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
            q, r = divmod_exact(num, phi)
            if r:
                break
            num, den, k = q, divmod_exact(den, phi)[0], k - 1
        exps.append(k)
    return num, den, exps


def _binomial_sum(ns: list[list[int]], x: int, times_d) -> list[int]:
    """sum_l C(n,l) x^l ns[n-l] D^l, by Horner in D; times_d(p) is p * D.

    With ns[k] / D^(k+1) the x^k/k! coefficients of a series Y, this is
    the numerator over D^(n+1) of the x^n/n! coefficient of e^(xX) Y.
    """
    n = len(ns) - 1
    acc: list[int] = []
    for l in range(n, -1, -1):
        acc = add(times_d(acc), ns[n - l], comb(n, l) * x ** l)
    return acc


def _ratio_numerators(m: int, n: int, w: list[list[int]]) -> list[list[int]]:
    """The ratio numerators over G_m^(n+1), from the kernel w = kernel(m, n).

    Numerator j < m is the x^n/n! coefficient of (1 - t^j e^(jx))/(1 - t^m e^(mx)) times
    G_m^(n+1), from sum_{i<j} t^i e^(ix) / sum_{i<m} t^i e^(ix). As it is built, it is checked
    against the direct form over (t^m - 1)^(n+1) = G_m^(n+1) (t - 1)^(n+1).
    """
    times_g, times_d = partial(times_geometric, m=m), partial(times_binomial, e=m)
    s = [trim([i ** k for i in range(m)]) for k in range(n + 1)]
    r = egf_quotient([[1]] + [[]] * n, s, times_g)  # 1/S_m: r[k] / G_m^(k+1)
    geometric = []
    acc: list[int] = []
    for j in range(m):
        direct = add(w[n], [0] * j + _binomial_sum(w, j, times_d), -1)
        if times_binomial(acc, 1, n + 1) != direct:
            raise ArithmeticError(f"ratio forms disagree at j={j}, m={m}, n={n}: "
                                  "arithmetic bug")
        geometric.append(acc)
        acc = add(acc, [0] * j + _binomial_sum(r, j, times_g))
    return geometric


# -- proof steps -------------------------------------------------------------


def _over_tm_minus_one(num: list[int], m: int, n: int, phis: list[list[int]]) -> Pair:
    """num / (t^m - 1)^(n+1) in lowest terms; t^m - 1 = prod_{d|m} Phi_d, the phis."""
    return _reduce(num, times_binomial([1], m, n + 1), phis, n + 1)[:2]


def _diff(n: int, m: int, phis: list[list[int]]) -> Pair:
    num = add(*integer_sides(n, m), -1)
    if n % 2 == 0:  # (1 - t^m)^(n+1) = -(t^m - 1)^(n+1)
        num = [-c for c in num]
    return _over_tm_minus_one(num, m, n, phis)


def diff_rational(n: int, m: int) -> RatFunc:
    """The reduced difference of the two normalized Eulerian fractions.

    Over (1 - t^m)^(n+1) its numerator is m^(n+1) A_n(t^m) - G_m^(n+1) A_n(t),
    the cleared difference of the two sides of the congruence.
    """
    check_nm(n, m)  # cyclotomic(m) runs before integer_sides checks
    return ratfunc_view(_diff(n, m, cyclotomic(m)))


def _series(n: int, m: int, w_m: list[int], phis: list[list[int]]) -> Pair:
    # m w_m/(t^m - 1)^(n+1) - w_1/(t - 1)^(n+1), and t^m - 1 = (t - 1) G_m.
    num = add([m * c for c in w_m], times_geometric(kernel(1, n)[n], m, n + 1), -1)
    return _over_tm_minus_one(num, m, n, phis)


def series_difference_coeff(n: int, m: int) -> RatFunc:
    """EGF coefficient n of m/(1 - t^m e^(mx)) - 1/(1 - t e^x)."""
    return ratfunc_view(_series(n, m, kernel(m, n)[n], cyclotomic(m)))


def _ratio(j: int, m: int, n: int, numerators: list[list[int]], top: list[int],
           phis: list[list[int]]) -> tuple[Pair, Optional[int]]:
    num, den, exps = _reduce(numerators[j], top, phis[1:], n + 1)  # G_m lacks Phi_1
    k = max(exps, default=0)
    exponent = None if divmod_exact(times_geometric([1], m, k), den)[1] else k
    return (num, den), exponent


def ratio_coeff(j: int, m: int, n: int) -> tuple[RatFunc, Optional[int]]:
    """EGF coefficient n of (1 - t^j e^(jx))/(1 - t^m e^(mx)).

    Computed from the geometric-sum form, which `_ratio_numerators` checked
    against the direct form. The second return is the smallest exponent
    k <= n+1 with the reduced denominator dividing
    (1 + t + ... + t^(m-1))^k, confirmed by an exact division (None if
    that division leaves a remainder). Each call builds all m numerators,
    so a caller that wants every j should call `full_trace`.
    """
    check_nm(n, m)
    if not 0 <= j < m:
        raise ValueError("ratio term requires 0 <= j < m")
    numerators = _ratio_numerators(m, n, kernel(m, n))
    pair, exponent = _ratio(j, m, n, numerators, times_geometric([1], m, n + 1), cyclotomic(m))
    return ratfunc_view(pair), exponent


def _telescopes(per_j: tuple[RatioTerm, ...], series: Pair, top: list[int]) -> bool:
    """Is sum_j per_j - series zero, by exact division of top = G_m^(n+1)?

    Each denominator must be monic, so that the division is exact over the
    integers (a monic divisor of top is an integer polynomial, by Gauss's lemma).
    """
    total: list[int] = []
    for sign, (num, den) in [(1, term.ratio) for term in per_j] + [(-1, series)]:
        cofactor, rem = divmod_exact(top, den)
        if rem or den[-1] != 1:
            return False
        total = add(total, mul(num, cofactor), sign)
    return not total


def full_trace(n: int, m: int) -> TraceReport:
    """Run every proof step for one (n, m) and record all intermediates."""
    w, phis, top = kernel(m, n), cyclotomic(m), times_geometric([1], m, n + 1)
    numerators = _ratio_numerators(m, n, w)
    diff, series = _diff(n, m, phis), _series(n, m, w[n], phis)
    per_j = tuple(RatioTerm(j, *_ratio(j, m, n, numerators, top, phis)) for j in range(m))
    checks = {
        "diff_equals_series": diff == series,
        "telescopes": _telescopes(per_j, series, top),
        "den_nonzero_at_one": sum(diff[1]) != 0,  # den(1)
        "divisors_bounded": all(term.divisor_exponent is not None for term in per_j),
    }
    return TraceReport(n, m, diff, series, per_j, all(checks.values()), **checks)
