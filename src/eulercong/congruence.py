"""Exact verification of the Eulerian polynomial congruence.

Checks A_n(t^m) == ((1 + t + ... + t^(m-1))/m)^(n+1) * A_n(t)
modulo (t-1)^(n+1), over the rationals, and records a full audit
certificate for every check.

The two sides come from `_intpoly.integer_sides`, and all arithmetic
runs on `_intpoly`'s integer lists. The only true rational is the scale
1/m^(n+1), so a report keeps its certificate as integer numerators over
one positive common denominator `den` (m^(n+1) in `verify_congruence`):
the difference of the sides is divided by (t-1) n+1 times. Its `Poly`
fields are views that `_intpoly.poly_view` builds when read, so verify
loads neither `poly` nor `fractions`.
"""

from __future__ import annotations

from math import lcm
from typing import TYPE_CHECKING, NamedTuple

from ._intpoly import (add, check_nm, divide_by_shift, integer_sides, mul, poly_view,
                       times_binomial)

if TYPE_CHECKING:
    from .poly import Poly


class CongruenceReport(NamedTuple):
    """The congruence at (n, m) and its certificate, each part over `den`.

    lhs - rhs == difference == cofactor * (t-1)^(n+1) + remainder, and
    holds is whether the remainder is zero. Each `*_num` list holds
    the integer numerators of the ascending coefficients of its part.
    """

    n: int
    m: int
    holds: bool
    den: int
    lhs_num: list[int]
    rhs_num: list[int]
    difference_num: list[int]
    remainder_num: list[int]
    cofactor_num: list[int]

    lhs = property(lambda r: poly_view(r.lhs_num, r.den))
    rhs = property(lambda r: poly_view(r.rhs_num, r.den))
    difference = property(lambda r: poly_view(r.difference_num, r.den))
    remainder = property(lambda r: poly_view(r.remainder_num, r.den))
    cofactor = property(lambda r: poly_view(r.cofactor_num, r.den))


def _certify(n: int, m: int, lhs: list[int], rhs: list[int], den: int) -> CongruenceReport:
    """Reduce (lhs - rhs)/den modulo (t-1)^(n+1) and assemble the certificate."""
    difference = add(lhs, rhs, -1)
    cofactor, taylor = divide_by_shift(difference, n + 1)
    remainder = add(difference, times_binomial(cofactor, 1, n + 1), -1) if any(taylor) else []
    return CongruenceReport(n, m, not remainder, den, lhs, rhs, difference, remainder, cofactor)


def report_from_sides(n: int, m: int, lhs: Poly, rhs: Poly) -> CongruenceReport:
    """The certificate for two given sides, over the lcm of their denominators."""
    check_nm(n, m)
    den = lcm(lhs.den, rhs.den)
    lhs_num, rhs_num = (mul(p.num, [den // p.den]) for p in (lhs, rhs))
    return _certify(n, m, lhs_num, rhs_num, den)


def verify_congruence(n: int, m: int) -> CongruenceReport:
    return _certify(n, m, *integer_sides(n, m), m ** (n + 1))
