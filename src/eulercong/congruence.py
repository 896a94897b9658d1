"""Exact verification of the Eulerian polynomial congruence.

Checks A_n(t^m) == ((1 + t + ... + t^(m-1))/m)^(n+1) * A_n(t)
modulo (t-1)^(n+1), over the rationals, and records a full audit
certificate for every check.

All arithmetic runs on the integer lists of `_intpoly`: the difference
of the two sides is cleared of denominators, divided by (t-1) n+1
times, and only the report's fields are built as rational `Poly` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ._intpoly import add, divide_by_shift, from_shift_basis, times_geometric, trim
from .eulerian import eulerian_row
from .poly import Poly


@dataclass(frozen=True)
class CongruenceReport:
    n: int
    m: int
    lhs: Poly
    rhs: Poly
    difference: Poly
    remainder: Poly
    cofactor: Poly
    holds: bool


def _cleared(p: Poly, scale: int) -> list[int]:
    """scale * p as integers; scale is a multiple of every denominator of p."""
    return [c.numerator * (scale // c.denominator) for c in p.coeffs]


def _scaled(cs: list[int], scale: int) -> Poly:
    return Poly([Fraction(c, scale) for c in cs])


def _integer_sides(n: int, m: int) -> tuple[list[int], list[int]]:
    """A_n(t^m) and geometric(m)^(n+1) * A_n(t) as integer lists.

    The right side of the congruence is the second list over m^(n+1).
    """
    a = eulerian_row(n)
    lhs = [0] * ((len(a) - 1) * m + 1)
    lhs[::m] = a
    return lhs, times_geometric(list(a), m, n + 1)


def congruence_sides(n: int, m: int) -> tuple[Poly, Poly]:
    """(A_n(t^m), geometric(m)^(n+1) * A_n(t) / m^(n+1)), both exact."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs, rhs = _integer_sides(n, m)
    return Poly(lhs), _scaled(rhs, m ** (n + 1))


def report_from_sides(n: int, m: int, lhs: Poly, rhs: Poly) -> CongruenceReport:
    """Reduce lhs - rhs modulo (t-1)^(n+1) and assemble the certificate."""
    scale = lcm(*(c.denominator for c in lhs.coeffs + rhs.coeffs))
    difference = add(_cleared(lhs, scale), _cleared(rhs, scale), -1)
    cofactor, taylor = divide_by_shift(difference, n + 1)
    trim(taylor)
    return CongruenceReport(
        n=n,
        m=m,
        lhs=lhs,
        rhs=rhs,
        difference=_scaled(difference, scale),
        remainder=_scaled(from_shift_basis(taylor), scale),
        cofactor=_scaled(cofactor, scale),
        holds=not taylor,
    )


def verify_congruence(n: int, m: int) -> CongruenceReport:
    lhs, rhs = congruence_sides(n, m)
    return report_from_sides(n, m, lhs, rhs)
