"""Truncated power series in x with `RatFunc` coefficients.

Coefficients are stored ordinarily (of x^i, not x^i/i!); factorial
scaling is applied only when an EGF coefficient is extracted. This is
the reference series arithmetic of the proof trace's tests and
acceptance suite; `prooftrace` itself divides series over integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .poly import Poly
from .ratfunc import RatFunc


class TruncatedSeries:
    """Order-N truncation: coeffs[i] is the ordinary coefficient of x^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RatFunc]):
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        self.coeffs: tuple[RatFunc, ...] = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        n = self.order
        out = []
        for i in range(n + 1):
            acc = self.coeffs[0] * other.coeffs[i]
            for j in range(1, i + 1):
                acc = acc + self.coeffs[j] * other.coeffs[i - j]
            out.append(acc)
        return TruncatedSeries(out)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Recursive deconvolution: c_i = (a_i - sum_{j<i} c_j b_{i-j}) / b_0."""
        self._check_order(other)
        b0_inv = other.coeffs[0].reciprocal()
        out: list[RatFunc] = []
        for i in range(self.order + 1):
            acc = self.coeffs[i]
            for j in range(i):
                acc = acc - out[j] * other.coeffs[i - j]
            out.append(acc * b0_inv)
        return TruncatedSeries(out)

    def egf_coeff(self, n: int) -> RatFunc:
        """Coefficient of x^n/n!, i.e. n! times the ordinary coefficient."""
        if not 0 <= n <= self.order:
            raise ValueError(f"index {n} beyond series order {self.order}")
        return self.coeffs[n] * factorial(n)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


def constant_series(c: RatFunc, order: int) -> TruncatedSeries:
    zero = c - c
    return TruncatedSeries([c] + [zero] * order)


def scaled_exp(c: RatFunc, k: int, order: int) -> TruncatedSeries:
    """c * e^(k*x) truncated: coefficient i is c * k^i / i!."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncatedSeries(
        [c * Fraction(k**i, factorial(i)) for i in range(order + 1)]
    )


def geometric_exp_sum(m: int, order: int) -> TruncatedSeries:
    """sum_{j=0}^{m-1} t^j e^(jx).

    Its x^0 coefficient is the geometric polynomial 1 + t + ... + t^(m-1).
    """
    if m < 1:
        raise ValueError("geometric exponential sum requires m >= 1")
    acc = constant_series(RatFunc(Poly([1])), order)
    for j in range(1, m):
        acc = acc + scaled_exp(RatFunc(Poly([0] * j + [1])), j, order)
    return acc
