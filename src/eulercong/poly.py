"""Dense univariate polynomials in t over exact rationals.

Coefficients are `fractions.Fraction` (always reduced, positive
denominator), stored ascending: index i is the coefficient of t^i.
The zero polynomial is the empty coefficient tuple.

This is the rational layer of the package: the proof trace's `RatFunc`,
the acceptance suite and the test oracles compute with it. The integer
kernels, Taylor shift at t = 1 included, live in `_intpoly`, and
`Poly.render` prints through `_intpoly.render`, the one renderer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from ._intpoly import render, trim

Scalar = Union[Fraction, int]


class Poly:
    """A polynomial in t, e.g. Poly([0, 1, 4, 1]) is t + 4*t^2 + t^3."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        self.coeffs: tuple[Fraction, ...] = tuple(trim(cs))

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __rmul__(self, other: Scalar) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int) -> "Poly":
        # Repeated squaring; k = 0 gives 1 (0^0 = 1, empty-product convention).
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact long division over the rationals."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        lb = other.leading
        quot = [Fraction(0)] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lb
            quot[i - db] = q
            for j, b in enumerate(other.coeffs):
                rem[i - db + j] -= q * b
        return Poly(quot), Poly(rem)

    def eval(self, x0: Scalar) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def subs_t_power(self, m: int) -> "Poly":
        """Substitute t -> t^m (index dilation)."""
        if m < 1:
            raise ValueError("power substitution requires m >= 1")
        if m == 1 or self.is_zero:
            return self
        out = [Fraction(0)] * (self.degree * m + 1)
        out[::m] = self.coeffs
        return Poly(out)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot make zero polynomial monic")
        return self * (1 / self.leading)

    # -- rendering ------------------------------------------------------

    def numerators(self, den: int) -> list[int]:
        """den * self as integers; den is a multiple of every denominator."""
        return [c.numerator * (den // c.denominator) for c in self.coeffs]

    def render(self, latex: bool = False) -> str:
        """`_intpoly.render` of the coefficients over their common denominator."""
        den = _common_denominator(self)
        return render(self.numerators(den), den, latex)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Poly('{self}')"


ONE = Poly([1])


# -- module-level helpers ---------------------------------------------


def geometric_poly(m: int) -> Poly:
    """1 + t + ... + t^(m-1), so that (1-t) * result = 1 - t^m."""
    if m < 1:
        raise ValueError("geometric polynomial requires m >= 1")
    return Poly([1] * m)


def exact_div(a: Poly, b: Poly) -> Poly:
    """Division known to be exact; raises if a remainder appears."""
    q, r = divmod(a, b)
    if not r.is_zero:
        raise ArithmeticError(f"inexact polynomial division: remainder {r}")
    return q


def _common_denominator(*ps: Poly) -> int:
    """The lcm of the denominators of every coefficient of ps (1 if none)."""
    return lcm(*(c.denominator for p in ps for c in p.coeffs))


def _int_primitive(coeffs: list[int]) -> list[int]:
    """Divide out the integer content; leading coefficient made positive."""
    g = gcd(*coeffs)
    if coeffs and coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Integer pseudo-remainder of a by b (both ascending and trimmed, b nonzero)."""
    rem = a
    db = len(b) - 1
    lb = b[-1]
    while len(rem) > db:
        top = rem[-1]
        shift = len(rem) - 1 - db
        rem = [c * lb for c in rem]
        for j, bc in enumerate(b):
            rem[shift + j] -= top * bc
        trim(rem)
    return rem


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via Euclid on integer primitive parts.

    Clearing content after each pseudo-remainder keeps coefficients small
    at the degrees this package works with.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    den = _common_denominator(a, b)
    x, y = _int_primitive(a.numerators(den)), _int_primitive(b.numerators(den))
    if len(x) < len(y):
        x, y = y, x
    while y:
        x, y = y, _int_primitive(_pseudo_rem(x, y))
    return Poly(x).monic()

