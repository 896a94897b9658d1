from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercong.congruence import report_from_sides, verify_congruence
from eulercong.eulerian import eulerian_recurrence
from eulercong.poly import Poly, geometric_poly
from eulercong.prooftrace import diff_rational

F = Fraction
T = Poly([0, 1])


def oracle_sides(n, m):
    """Both sides by Fraction Poly arithmetic, A_n by its Poly recurrence."""
    a = Poly([1])
    for k in range(n):
        a = (k + 1) * T * a + Poly([0, 1, -1]) * a.derivative()
    return a.subs_t_power(m), geometric_poly(m) ** (n + 1) * a * F(1, m ** (n + 1))


def oracle_certificate(n, lhs, rhs):
    """(difference, remainder, cofactor, holds) by Fraction long division."""
    difference = lhs - rhs
    cofactor, remainder = divmod(difference, Poly([-1, 1]) ** (n + 1))
    return difference, remainder, cofactor, remainder.is_zero


def test_sides_n1_m2():
    rep = verify_congruence(1, 2)
    assert rep.lhs == Poly([0, 0, 1])
    assert rep.rhs == Poly([0, F(1, 4), F(1, 2), F(1, 4)])


def test_sides_n0_m1():
    rep = verify_congruence(0, 1)
    assert (rep.lhs, rep.rhs) == (Poly([1]), Poly([1]))


def test_sides_n0_m3():
    rep = verify_congruence(0, 3)
    assert rep.lhs == Poly([1])
    assert rep.rhs == Poly([F(1, 3), F(1, 3), F(1, 3)])


def test_verify_n1_m2_certificate():
    rep = verify_congruence(1, 2)
    assert rep.holds
    assert rep.difference == Poly([0, F(-1, 4), F(1, 2), F(-1, 4)])
    assert rep.cofactor == Poly([0, F(-1, 4)])
    assert rep.remainder.is_zero
    # Sharpness diagnostic at this instance: cofactor(1) != 0.
    assert rep.cofactor.eval(1) == F(-1, 4)


@pytest.mark.parametrize("n", range(6))
def test_m_equals_one_is_trivial(n):
    rep = verify_congruence(n, 1)
    assert rep.holds
    assert rep.difference.is_zero


def test_negative_control_unscaled_rhs():
    # Omitting the 1/m^(n+1) factor must break the congruence at (1, 2).
    a = eulerian_recurrence(1).poly
    lhs = a.subs_t_power(2)
    rhs_unscaled = geometric_poly(2) ** 2 * a
    rep = report_from_sides(1, 2, lhs, rhs_unscaled)
    assert not rep.holds
    # The remainder is -3 - 6(t-1), that is 3 - 6t.
    assert rep.remainder == Poly([3, -6])


@pytest.mark.parametrize("n", range(11))
@pytest.mark.parametrize("m", range(1, 9))
def test_theorem_on_grid(n, m):
    rep = verify_congruence(n, m)
    assert rep.holds
    modulus = Poly([-1, 1]) ** (n + 1)
    assert rep.cofactor * modulus + rep.remainder == rep.difference


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("m", range(1, 7))
def test_equivalence_with_rational_difference(n, m):
    # holds iff the denominator of the rational difference has no root at 1.
    rep = verify_congruence(n, m)
    assert rep.holds == (diff_rational(n, m).den_value_at(1) != 0)


def test_m_zero_rejected():
    # The message matters: past the check, integer_sides' lhs[::0] raises a ValueError too.
    with pytest.raises(ValueError, match="^m must be >= 1$"):
        verify_congruence(1, 0)


def test_report_from_sides_refuses_n_below_zero():
    # Modulo (t-1)^0 = 1 any two sides agree, so n = -1 would certify these.
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        report_from_sides(-1, 2, Poly([1, 2, 3]), Poly([5]))


@pytest.mark.parametrize("n", range(11))
@pytest.mark.parametrize("m", range(1, 9))
def test_integer_path_matches_fraction_oracle(n, m):
    lhs, rhs = oracle_sides(n, m)
    rep = verify_congruence(n, m)
    assert (rep.lhs, rep.rhs) == (lhs, rhs)
    assert (rep.difference, rep.remainder, rep.cofactor, rep.holds) == (
        oracle_certificate(n, lhs, rhs))


fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)
polys = st.lists(fractions, max_size=12).map(Poly)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 7), lhs=polys, rhs=polys)
def test_report_from_sides_matches_fraction_oracle(n, lhs, rhs):
    rep = report_from_sides(n, 1, lhs, rhs)
    _, remainder, cofactor, holds = oracle_certificate(n, lhs, rhs)
    assert (rep.remainder, rep.cofactor, rep.holds) == (remainder, cofactor, holds)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 7), rhs=polys, q=polys)
def test_report_from_sides_holds_by_construction(n, rhs, q):
    # lhs - rhs is a multiple of (t-1)^(n+1), so the cofactor is q.
    lhs = rhs + q * Poly([-1, 1]) ** (n + 1)
    rep = report_from_sides(n, 1, lhs, rhs)
    assert rep.holds and rep.remainder.is_zero
    assert rep.cofactor == q
