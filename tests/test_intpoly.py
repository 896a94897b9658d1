"""The integer kernels of eulercong._intpoly against Poly oracles and integer identities."""

from hypothesis import example, given
from hypothesis import strategies as st

from eulercong._intpoly import (
    add,
    divide_by_shift,
    divmod_exact,
    from_shift_basis,
    mul,
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


# The monic division that divmod_exact generalised, kept as its oracle.
def divmod_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    db = len(b) - 1
    terms = [(j, c) for j, c in enumerate(b[:-1]) if c]
    rem = list(a)
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        q = rem[i]
        if q:
            quot[i - db] = q
            for j, c in terms:
                rem[i - db + j] -= q * c
    return quot, trim(rem[:db])


nonzero_int_polys = int_polys.filter(bool)


@given(int_polys, nonzero_int_polys)
@example([], [3])
@example([1, 2, 3], [5, 0, 0, -7])
@example([0, 0, 0, 1], [1, 2])
@example([4, 0, 6], [-2])
def test_divmod_exact_is_pseudo_division(a, b):
    k = max(len(a) - len(b) + 1, 0)
    scaled = mul(a, [b[-1] ** k])
    q, r = divmod_exact(scaled, b)
    assert len(r) < len(b)
    assert add(mul(q, b), r) == scaled


@given(int_polys, int_polys)
@example([], [])
@example([1, 2, 3], [0, 1])
@example([-1, 0, 0, 0, 0, 0, 1], [1, 1, 1])
def test_divmod_exact_by_monic_is_divmod_monic(a, b):
    b = b + [1]
    assert divmod_exact(a, b) == divmod_monic(a, b)
