from fractions import Fraction
from math import gcd

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


def test_equality_compares_denominators():
    # Both numerators are (1,); only den tells 1/2 from 1/3.
    assert Poly([Fraction(1, 2)]) != Poly([Fraction(1, 3)])


def test_unhashable():
    with pytest.raises(TypeError):
        hash(Poly([1, 2]))


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


# Each call raises the error given, or returns the value given.
@pytest.mark.parametrize("call, outcome", [
    (lambda: Poly().leading, ValueError),
    (lambda: Poly([1, 1]) ** -1, ValueError),
    (lambda: divmod(Poly([1]), Poly()), ZeroDivisionError),
    (lambda: Poly().monic(), ValueError),
    (lambda: exact_div(Poly([1]), Poly([1, 1])), ArithmeticError),
    (lambda: Poly([1]) + 1, TypeError),
    (lambda: Poly([1]) - 1, TypeError),
    (lambda: Poly([1]) * None, TypeError),
    (lambda: Poly([1]) == 1, False),
    (lambda: repr(Poly([Fraction(1, 2), 0, 1])), "Poly('1/2 + t^2')"),
])
def test_edge_paths(call, outcome):
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call()
    else:
        assert call() == outcome


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


# An independent slow path: polynomials as plain lists of Fractions,
# ascending, compared after trimming trailing zeros.
def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _pow(a, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = _mul(out, a)
    return out


def _divmod(a, b):
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        quot[i] = q = rem[i + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[i + j] -= q * y
    return _trim(quot), _trim(rem[:len(b) - 1])


def assert_lowest_terms(p):
    assert isinstance(p.num, tuple) and all(type(c) is int for c in p.num)
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    assert p.num or p.den == 1


@settings(max_examples=200)
@given(st.lists(fractions, max_size=13), st.lists(fractions, max_size=13), fractions,
       fractions, st.integers(0, 4))
def test_poly_against_fraction_lists(ca, cb, s, x0, k):
    a, b = Poly(ca), Poly(cb)
    fa, fb = _trim(ca), _trim(cb)
    results = {
        "init": (a, fa),
        "+": (a + b, _add(fa, fb)),
        "-": (a - b, _add(fa, [-c for c in fb])),
        "*": (a * b, _mul(fa, fb)),
        "scalar *": (a * s, _trim(c * s for c in fa)),
        "scalar r*": (s * a, _trim(c * s for c in fa)),
        "**": (a ** k, _pow(fa, k)),
        "derivative": (a.derivative(), [i * c for i, c in enumerate(fa)][1:]),
    }
    if fb:
        fq, fr = _divmod(fa, fb)
        q, r = divmod(a, b)
        results.update({"divmod q": (q, fq), "divmod r": (r, fr),
                        "monic": (b.monic(), [c / fb[-1] for c in fb])})
    for name, (got, want) in results.items():
        assert_lowest_terms(got)
        assert list(got.coeffs) == want, name
    horner = Fraction(0)
    for c in reversed(fa):
        horner = horner * x0 + c
    assert a.eval(x0) == horner
    assert a.eval(3) == sum(c * 3 ** i for i, c in enumerate(fa))
