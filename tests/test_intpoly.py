"""The merged integer kernels of eulercong._intpoly against Poly oracles."""

from hypothesis import example, given
from hypothesis import strategies as st

from eulercong._intpoly import (
    divide_by_shift,
    from_shift_basis,
    times_binomial,
    times_geometric,
    trim,
)
from eulercong.poly import Poly, geometric_poly

SHIFT = Poly([-1, 1])  # t - 1

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


def shift_divmod(p: list[int], k: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of p by (t-1)^k, as congruence._certify forms them."""
    cofactor, taylor = divide_by_shift(p, k)
    return cofactor, from_shift_basis(trim(taylor))


def test_remainder_exact_multiple():
    assert shift_divmod([1, -2, 1], 2) == ([1], [])


def test_remainder_taylor_shift():
    # t^2 = (t-1)^2 + 2(t-1) + 1, so mod (t-1)^2 the remainder is 2t - 1.
    assert shift_divmod([0, 0, 1], 2) == ([1], [-1, 2])
    assert divide_by_shift([0, 0, 1], 3) == ([], [1, 2, 1])


def test_remainder_large_modulus():
    assert shift_divmod([0, 0, 1], 5) == ([], [0, 0, 1])


def test_shifted_basis_reconstructs():
    p = [6, -1, 0, 14]
    cofactor, taylor = divide_by_shift(p, 4)
    assert cofactor == []
    assert sum((d * SHIFT ** i for i, d in enumerate(taylor)), Poly()) == Poly(p)
    assert from_shift_basis(taylor) == p


@given(int_polys, st.integers(1, 4))
@example([], 1)
@example([5], 3)
@example([1, -2, 1], 2)
@example([0, 0, 1], 5)
def test_shift_power_reconstruction(p, k):
    cofactor, remainder = shift_divmod(p, k)
    assert (Poly(cofactor), Poly(remainder)) == divmod(Poly(p), SHIFT ** k)
