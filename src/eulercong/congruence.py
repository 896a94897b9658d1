"""Exact verification of the Eulerian polynomial congruence.

Checks A_n(t^m) == ((1 + t + ... + t^(m-1))/m)^(n+1) * A_n(t)
modulo (t-1)^(n+1), over the rationals, and records a full audit
certificate for every check.

All arithmetic runs on integer coefficient lists: the difference of the
two sides is cleared of denominators, divided by (t-1) n+1 times, and
only the report's fields are built as rational `Poly` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import comb, lcm
from operator import sub

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


def _times_geometric(p: list[int], m: int) -> list[int]:
    """p * (1 + t + ... + t^(m-1)): coefficient i is p[i-m+1] + ... + p[i]."""
    prefix = list(accumulate(p + [0] * (m - 1), initial=0))
    return list(map(sub, prefix[1:], [0] * (m - 1) + prefix[:len(p)]))


def _divide_by_shift(cs: list[int], k: int) -> tuple[list[int], list[int]]:
    """Divide by (t-1) k times by synthetic division.

    Returns the last quotient and the k remainders, which are the Taylor
    coefficients d_0..d_{k-1} of cs at t = 1.
    """
    taylor = []
    for _ in range(k):
        sums = list(accumulate(reversed(cs)))  # suffix sums of cs
        taylor.append(sums[-1] if sums else 0)
        cs = sums[-2::-1]
    return cs, taylor


def _from_shift_basis(ds: list[int]) -> list[int]:
    """Coefficients in t of sum_i d_i (t-1)^i."""
    return [sum((-1) ** (i - j) * comb(i, j) * ds[i] for i in range(j, len(ds)))
            for j in range(len(ds))]


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
    rhs = list(a)
    for _ in range(n + 1):
        rhs = _times_geometric(rhs, m)
    return lhs, rhs


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
    difference = [x - y for x, y in zip_longest(_cleared(lhs, scale), _cleared(rhs, scale),
                                                fillvalue=0)]
    cofactor, taylor = _divide_by_shift(difference, n + 1)
    while taylor and not taylor[-1]:
        taylor.pop()
    return CongruenceReport(
        n=n,
        m=m,
        lhs=lhs,
        rhs=rhs,
        difference=_scaled(difference, scale),
        remainder=_scaled(_from_shift_basis(taylor), scale),
        cofactor=_scaled(cofactor, scale),
        holds=not taylor,
    )


def verify_congruence(n: int, m: int) -> CongruenceReport:
    lhs, rhs = congruence_sides(n, m)
    return report_from_sides(n, m, lhs, rhs)
