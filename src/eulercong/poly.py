"""Dense univariate polynomials in t over exact rationals.

A `Poly` is integer numerators over one denominator: `num` is a trimmed
tuple of ints, ascending (index i is the numerator of the coefficient of
t^i), and `den` a positive int, in lowest terms: gcd(den, *num) == 1,
and the zero polynomial is () over 1. So equality is structural (a `Poly`
is unhashable), and `coeffs` gives the reduced `Fraction`s on demand.

This is the rational layer of the package: `RatFunc`, the acceptance
suite and the test oracles compute with it, and the package's integer
results reach it through `_intpoly.poly_view`. Its arithmetic runs on
the integer kernels of `_intpoly` (`add`, `mul`, and `divmod_exact` after
pre-scaling by a power of the divisor's leading coefficient), and `str`
prints through `_intpoly.render`, the one renderer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from ._intpoly import add, divmod_exact, mul, render, trim

Scalar = Union[Fraction, int]


class Poly:
    """A polynomial in t, e.g. Poly([0, 1, 4, 1]) is t + 4*t^2 + t^3."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        # Over the lcm of reduced denominators, the numerators share no
        # factor with it, so the pair is already in lowest terms.
        cs = list(coeffs)
        self.den = lcm(*(c.denominator for c in cs))
        self.num = tuple(trim([c.numerator * (self.den // c.denominator) for c in cs]))

    # -- basic queries ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The reduced coefficients, ascending."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def coeff(self, i: int) -> Fraction:
        return Fraction(self.num[i], self.den) if 0 <= i < len(self.num) else Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _over(add(mul(self.num, [other.den]), other.num, self.den),
                     self.den * other.den)

    def __neg__(self) -> "Poly":
        return self * -1

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return _over(mul(self.num, [other.numerator]), self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        return _over(mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        # k = 0 gives 1 (0^0 = 1, empty-product convention).
        if k < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        for _ in range(k):
            result = result * self
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact long division over the rationals.

        With self = a/da and other = b/db, lc^k a = q b + r over the
        integers (lc = b[-1], k quotient steps), so the quotient is
        q db/(da lc^k) and the remainder r/(da lc^k).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        scale = other.num[-1] ** max(len(self.num) - len(other.num) + 1, 0)
        q, r = divmod_exact(mul(self.num, [scale]), other.num)
        den = self.den * scale
        return _over(mul(q, [other.den]), den), _over(r, den)

    def eval(self, x0: Scalar) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        acc = 0
        for c in reversed(self.num):
            acc = acc * x0 + c
        return Fraction(acc, self.den)

    def derivative(self) -> "Poly":
        return _over([i * c for i, c in enumerate(self.num)][1:], self.den)

    def subs_t_power(self, m: int) -> "Poly":
        """Substitute t -> t^m (index dilation)."""
        if m < 1:
            raise ValueError("power substitution requires m >= 1")
        if m == 1 or self.is_zero:
            return self
        out = [0] * (self.degree * m + 1)
        out[::m] = self.num
        return _over(out, self.den)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot make zero polynomial monic")
        return _over(self.num, self.num[-1])

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        return render(self.num, self.den)

    def __repr__(self) -> str:
        return f"Poly('{self}')"


def _over(num: Sequence[int], den: int = 1) -> Poly:
    """The Poly num/den in lowest terms, for ints num and a nonzero int den."""
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    p = object.__new__(Poly)
    p.num, p.den = tuple(trim([c // g for c in num])), den // g
    return p


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


def _int_primitive(coeffs: Sequence[int]) -> list[int]:
    """Divide out the integer content; leading coefficient made positive."""
    g = gcd(*coeffs)
    if coeffs and coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via Euclid on integer primitive parts.

    Each step is a pseudo-remainder: `divmod_exact` of x pre-scaled by
    y's leading coefficient to the number of quotient steps. Clearing
    content after each one keeps coefficients small at the degrees this
    package works with.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    x, y = _int_primitive(a.num), _int_primitive(b.num)
    if len(x) < len(y):
        x, y = y, x
    while y:
        scale = y[-1] ** (len(x) - len(y) + 1)
        x, y = y, _int_primitive(divmod_exact(mul(x, [scale]), y)[1])
    return _over(x).monic()
