from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercong.poly import Poly, geometric_poly
from eulercong.ratfunc import RatFunc
from eulercong.series import TruncatedSeries, constant_series, geometric_exp_sum, scaled_exp

F = Fraction


def const(v) -> RatFunc:
    return RatFunc(Poly([v]))


def series(*vals):
    return TruncatedSeries([const(v) for v in vals])


def test_scaled_exp_basic():
    assert scaled_exp(const(1), 1, 3) == series(1, 1, F(1, 2), F(1, 6))


def test_scaled_exp_poly_coeff():
    s = scaled_exp(RatFunc(Poly([0, 1])), 2, 2)
    assert s.coeffs == (RatFunc(Poly([0, 1])), RatFunc(Poly([0, 2])), RatFunc(Poly([0, 2])))


def test_scaled_exp_k_zero():
    assert scaled_exp(const(1), 0, 2) == series(1, 0, 0)


def test_geometric_series_by_division():
    one = series(1, 0, 0)
    assert one / series(1, -1, 0) == series(1, 1, 1)


def test_exp_times_inverse_exp():
    e = scaled_exp(const(1), 1, 4)
    e_neg = scaled_exp(const(1), -1, 4)
    assert e * e_neg == series(1, 0, 0, 0, 0)


def test_gf_kernel_over_ratfunc():
    # 1/(1 - t e^x) at order 1: [1/(1-t), t/(1-t)^2].
    t = RatFunc(Poly([0, 1]))
    one = constant_series(RatFunc(Poly([1])), 1)
    kernel = one / (one - scaled_exp(t, 1, 1))
    assert kernel.coeffs[0] == RatFunc(Poly([1]), Poly([1, -1]))
    assert kernel.coeffs[1] == RatFunc(Poly([0, 1]), Poly([1, -1]) ** 2)
    assert kernel.egf_coeff(1) == kernel.coeffs[1]


def test_div_by_zero_constant_rejected():
    one = series(1, 0)
    with pytest.raises(ZeroDivisionError):
        one / series(0, 1)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError, match="order mismatch"):
        series(1, 0) + series(1, 0, 0)


def test_egf_coeff():
    e = scaled_exp(const(1), 1, 4)
    assert e.egf_coeff(3) == const(1)
    zero = constant_series(const(0), 4)
    assert zero.egf_coeff(2) == const(0)
    with pytest.raises(ValueError):
        e.egf_coeff(5)


def test_geometric_exp_sum_examples():
    assert all(isinstance(c, RatFunc) for c in geometric_exp_sum(2, 1).coeffs)
    assert geometric_exp_sum(1, 2).coeffs == (Poly([1]), Poly(), Poly())
    assert geometric_exp_sum(2, 1).coeffs == (Poly([1, 1]), Poly([0, 1]))
    assert geometric_exp_sum(3, 1).coeffs == (Poly([1, 1, 1]), Poly([0, 1, 2]))


@pytest.mark.parametrize("m", range(1, 17))
def test_geometric_exp_sum_constant_term(m):
    assert geometric_exp_sum(m, 4).coeffs[0] == geometric_poly(m)


@pytest.mark.parametrize("j", range(1, 7))
@pytest.mark.parametrize("order", [0, 3, 6])
def test_telescoping_factorization(j, order):
    # 1 - t^j e^(jx) = (1 - t e^x) * sum_{i<j} t^i e^(ix), truncated.
    one = constant_series(const(1), order)
    lhs = one - scaled_exp(RatFunc(Poly([0] * j + [1])), j, order)
    factor = one - scaled_exp(RatFunc(Poly([0, 1])), 1, order)
    assert lhs == factor * geometric_exp_sum(j, order)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.tuples(
            st.lists(rationals, min_size=n + 1, max_size=n + 1),
            st.lists(rationals, min_size=n + 1, max_size=n + 1),
        )
    )
)
def test_div_then_mul_recovers(pair):
    a_c, b_c = pair
    if b_c[0] == 0:
        b_c[0] = Fraction(1)
    a, b = series(*a_c), series(*b_c)
    assert (a / b) * b == a


@settings(max_examples=40)
@given(rationals, rationals, st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-4, max_value=4), st.integers(min_value=0, max_value=6))
def test_exponential_law(c1, c2, k1, k2, order):
    lhs = scaled_exp(const(c1), k1, order) * scaled_exp(const(c2), k2, order)
    assert lhs == scaled_exp(const(c1 * c2), k1 + k2, order)
