"""The merged integer kernels of eulercong._intpoly against Poly oracles."""

from hypothesis import example, given
from hypothesis import strategies as st

from eulercong._intpoly import times_binomial, times_geometric
from eulercong.poly import Poly, geometric_poly

# Integer polynomials as trimmed coefficient lists, [] for zero.
int_polys = st.lists(st.integers(-10**6, 10**6), max_size=12).map(
    lambda cs: [int(c) for c in Poly(cs).coeffs])


@given(int_polys, st.integers(1, 7), st.integers(0, 5))
@example([], 3, 2)
@example([], 1, 0)
@example([2, -1], 4, 0)
def test_times_geometric_is_a_power_of_g(p, m, k):
    expected = Poly(p) * geometric_poly(m) ** k
    assert times_geometric(p, m, k) == [int(c) for c in expected.coeffs]


@given(int_polys, st.integers(0, 7), st.integers(0, 5))
@example([], 3, 2)
@example([], 1, 0)
@example([2, -1], 4, 0)
def test_times_binomial_is_a_power_of_t_e_minus_one(p, e, k):
    expected = Poly(p) * (Poly([0] * e + [1]) - Poly([1])) ** k
    assert times_binomial(p, e, k) == [int(c) for c in expected.coeffs]

