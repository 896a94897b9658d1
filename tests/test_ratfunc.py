from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercong.poly import Poly, geometric_poly
from eulercong.ratfunc import RF_ZERO, RatFunc
from trace_oracle import divisor_exponent

fractions = st.fractions(min_value=-100, max_value=100, max_denominator=100)
polys = st.lists(fractions, min_size=0, max_size=5).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
small_polys = st.lists(fractions, min_size=0, max_size=5).map(Poly)


def test_reduction_cancels_common_factor():
    # (1 - t) / (1 - t^2) reduces to 1 / (1 + t).
    r = RatFunc(Poly([1, -1]), Poly([1, 0, -1]))
    assert r.num == Poly([1])
    assert r.den == Poly([1, 1])


def test_zero_normalizes():
    r = RatFunc(Poly(), Poly([-1, 1]))
    assert r == RF_ZERO
    assert r.den == Poly([1])


def test_constant_cancellation():
    r = RatFunc(Poly([0, 2]), Poly([2]))
    assert r.num == Poly([0, 1])
    assert r.den == Poly([1])


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly([1]), Poly())


def test_add_cancels():
    a = RatFunc(Poly([1]), Poly([1, -1]).monic())
    assert a + (-a) == RF_ZERO


def test_mul_squares_denominator():
    a = RatFunc(Poly([1]), Poly([1, 1]))
    assert a * a == RatFunc(Poly([1]), Poly([1, 2, 1]))


def test_difference_instance_n0_m2():
    # 2/(1-t^2) - 1/(1-t) = 1/(1+t).
    lhs = RatFunc(Poly([2]), Poly([1, 0, -1])) - RatFunc(Poly([1]), Poly([1, -1]))
    assert lhs == RatFunc(Poly([1]), Poly([1, 1]))


def test_den_value_at_one():
    assert RatFunc(Poly([1]), Poly([1, 1])).den_value_at(1) == 2
    assert RatFunc(Poly([0, -1]), Poly([1, 2, 1])).den_value_at(1) == 4
    assert RF_ZERO.den_value_at(1) == 1


# The divisor exponent of a denominator, as the trace oracle computes it.


def test_den_divides_power():
    a = RatFunc(Poly([1]), Poly([1, 1]))
    assert divisor_exponent(a.den, Poly([1, 1]), 3) == 1


def test_den_divides_power_unit_denominator():
    assert divisor_exponent(RatFunc(Poly([5])).den, Poly([1, 1]), 3) == 0


def test_den_divides_power_proper_divisor():
    # 1 + t + t^2 + t^3 = (1 + t)(1 + t^2), so 1 + t^2 divides its first power.
    a = RatFunc(Poly([1]), Poly([1, 0, 1]))
    assert divisor_exponent(a.den, geometric_poly(4), 2) == 1


def test_den_divides_power_absent():
    a = RatFunc(Poly([1]), Poly([0, 1]))
    assert divisor_exponent(a.den, Poly([1, 1]), 4) is None


def test_str():
    assert str(RatFunc(Poly([0, -1]), Poly([1, 2, 1]))) == "(-t)/(1 + 2*t + t^2)"
    assert str(RatFunc(Poly([0, 1, 4, 1]))) == "t + 4*t^2 + t^3"


@settings(max_examples=50)
@given(nonzero_polys, nonzero_polys)
def test_mul_by_reciprocal_is_one(num, den):
    a = RatFunc(num, den)
    assert a * a.reciprocal() == RatFunc(Poly([1]))


@settings(max_examples=50)
@given(polys, nonzero_polys, nonzero_polys)
def test_common_factor_invariance(num, den, common):
    assert RatFunc(num * common, den * common) == RatFunc(num, den)


@settings(max_examples=30)
@given(polys, nonzero_polys, st.integers(min_value=1, max_value=3))
def test_divisor_exponent_is_minimal(num, den, kmax):
    a = RatFunc(num, den)
    base = Poly([1, 1])
    k = divisor_exponent(a.den, base, kmax)
    if k is None:
        return
    _, rem = divmod(base**k, a.den)
    assert rem.is_zero
    if k > 0:
        _, rem = divmod(base ** (k - 1), a.den)
        assert not rem.is_zero


@settings(max_examples=30)
@given(polys, nonzero_polys, polys, nonzero_polys)
def test_field_arithmetic_consistency(n1, d1, n2, d2):
    a, b = RatFunc(n1, d1), RatFunc(n2, d2)
    assert (a + b) - b == a
    if not b.is_zero:
        assert (a * b.reciprocal()) * b == a
