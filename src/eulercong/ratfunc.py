"""Reduced rational functions in t over the rationals.

Canonical form: numerator and denominator coprime, denominator monic,
zero stored as 0/1. Canonical form makes structural equality coincide
with field equality. Like `Poly`, a `RatFunc` is unhashable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .poly import ONE, Poly, exact_div, poly_gcd

Liftable = Union["RatFunc", Poly]


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero:
            num, den = Poly(), ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = exact_div(num, g)
                den = exact_div(den, g)
            if den.leading != 1:
                num, den = num * (1 / den.leading), den.monic()
        self.num = num
        self.den = den

    @classmethod
    def _from_reduced(cls, num: Poly, den: Poly) -> "RatFunc":
        """Wrap a pair already in canonical form, skipping the gcd.

        The caller guarantees num and den coprime, den monic, and 0/1 for zero.
        """
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @staticmethod
    def lift(x: Liftable) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, Poly):
            return RatFunc(x)
        raise TypeError(f"cannot lift {type(x).__name__} to RatFunc")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RatFunc, Poly)):
            o = RatFunc.lift(other)
            return self.num == o.num and self.den == o.den
        return NotImplemented

    # -- field operations ------------------------------------------------

    def __add__(self, other: Liftable) -> "RatFunc":
        o = RatFunc.lift(other)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: Liftable) -> "RatFunc":
        return self + (-RatFunc.lift(other))

    def __mul__(self, other: Union[Liftable, Fraction, int]) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            return RatFunc(self.num * other, self.den)
        o = RatFunc.lift(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    def reciprocal(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of zero rational function")
        return RatFunc(self.den, self.num)

    # -- denominator diagnostics ------------------------------------------

    def den_value_at(self, x0: Union[Fraction, int]) -> Fraction:
        """den(x0); nonzero certifies that (t - x0) does not divide den."""
        return self.den.eval(x0)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc('{self}')"


RF_ZERO = RatFunc(Poly())
