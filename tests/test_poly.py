from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercong.poly import (
    Poly,
    exact_div,
    geometric_poly,
    poly_gcd,
)

fractions = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**6
)
polys = st.lists(fractions, min_size=0, max_size=13).map(Poly)


def test_normalization_strips_trailing_zeros():
    assert Poly([1, 0, 0]) == Poly([1])
    assert Poly([1, 0, 0]).coeffs == (Fraction(1),)


def test_normalization_canonical_zero():
    assert Poly([]).coeffs == ()
    assert Poly([0, 0]).is_zero


def test_normalization_reduces_fractions():
    p = Poly([Fraction(2, 4), 1])
    assert p.coeffs == (Fraction(1, 2), Fraction(1))


def test_add():
    assert Poly([1, 1]) + Poly([1, -1]) == Poly([2])


def test_mul():
    assert Poly([1, 1]) * Poly([1, 1]) == Poly([1, 2, 1])


def test_pow_binomial():
    assert Poly([-1, 1]) ** 2 == Poly([1, -2, 1])


def test_pow_zero_conventions():
    assert Poly([0, 1]) ** 0 == Poly([1])
    assert Poly() ** 0 == Poly([1])  # 0^0 = 1, empty product


def test_eval_eulerian_at_one():
    # A_3(1) = 3! by descent enumeration over S_3.
    assert Poly([0, 1, 4, 1]).eval(1) == 6


def test_eval_zero_poly():
    assert Poly().eval(Fraction(7, 3)) == 0


def test_eval_root():
    assert Poly([1, -2, 1]).eval(1) == 0


def test_subs_t_power():
    assert Poly([0, 1]).subs_t_power(2) == Poly([0, 0, 1])
    assert Poly([0, 1, 1]).subs_t_power(3) == Poly([0, 0, 0, 1, 0, 0, 1])


def test_subs_t_power_identity():
    p = Poly([3, 0, Fraction(1, 2)])
    assert p.subs_t_power(1) == p


def test_subs_t_power_rejects_zero():
    with pytest.raises(ValueError):
        Poly([1]).subs_t_power(0)


def test_geometric_poly():
    assert geometric_poly(1) == Poly([1])
    assert geometric_poly(2) == Poly([1, 1])
    assert geometric_poly(4) == Poly([1, 1, 1, 1])
    one_minus_t = Poly([1, -1])
    assert one_minus_t * geometric_poly(4) == Poly([1]) - Poly([0, 0, 0, 0, 1])


def test_geometric_poly_rejects_zero():
    with pytest.raises(ValueError):
        geometric_poly(0)


@pytest.mark.parametrize("m", range(1, 33))
def test_geometric_telescoping(m):
    lhs = Poly([1, -1]) * geometric_poly(m)
    rhs = Poly([1]) - Poly([0] * m + [1])
    assert lhs == rhs


def test_gcd_simple():
    assert poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1])) == Poly([-1, 1])


def test_gcd_monic():
    assert poly_gcd(Poly([1, 1]) * Poly([1, 1]), Poly([1, 1])) == Poly([1, 1])


def test_gcd_coprime():
    assert poly_gcd(Poly([0, 0, 1]), Poly([1, 1])) == Poly([1])


def test_gcd_rejects_both_zero():
    with pytest.raises(ValueError):
        poly_gcd(Poly(), Poly())


def test_render():
    assert str(Poly([0, 1, 4, 1])) == "t + 4*t^2 + t^3"
    assert str(Poly()) == "0"
    assert str(Poly([Fraction(-1, 4), 0, Fraction(1, 2)])) == "-1/4 + 1/2*t^2"


@given(polys, polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=50)
@given(polys, polys, polys)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=50)
@given(polys, polys, polys)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=30)
@given(polys, st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_subs_power_composes(p, a, b):
    assert p.subs_t_power(a).subs_t_power(b) == p.subs_t_power(a * b)


@settings(max_examples=30)
@given(polys, polys)
def test_gcd_divides_both(a, b):
    if a.is_zero and b.is_zero:
        return
    g = poly_gcd(a, b)
    assert g.leading == 1
    for p in (a, b):
        if not p.is_zero:
            _, r = divmod(p, g)
            assert r.is_zero


small_polys = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6),
                       min_size=0, max_size=6).map(Poly)


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_gcd_is_greatest(a, b, c):
    # A common factor c planted in both arguments divides their gcd, so a
    # proper divisor of the true gcd does not pass.
    if c.is_zero or (a.is_zero and b.is_zero):
        return
    _, r = divmod(poly_gcd(a * c, b * c), c.monic())
    assert r.is_zero
