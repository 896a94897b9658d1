import importlib.util
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from eulercong.eulerian import (
    BRUTEFORCE_CAP,
    eulerian_bruteforce,
    eulerian_from_gf,
    eulerian_recurrence,
    eulerian_row,
    worpitzky_row,
)
from eulercong.poly import Poly


def _load_checks():
    # perfbench/ is no package and is not on sys.path, so load the file itself.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("eulerian_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()

# Frozen from the descent-enumeration oracle (t^(des+1) over S_n).
KNOWN = {
    0: Poly([1]),
    1: Poly([0, 1]),
    2: Poly([0, 1, 1]),
    3: Poly([0, 1, 4, 1]),
    4: Poly([0, 1, 11, 11, 1]),
}


@pytest.mark.parametrize("n,expected", KNOWN.items())
def test_recurrence_known_values(n, expected):
    assert eulerian_recurrence(n).poly == expected


@pytest.mark.parametrize("n,expected", KNOWN.items())
def test_bruteforce_known_values(n, expected):
    assert eulerian_bruteforce(n).poly == expected


@pytest.mark.parametrize("n,expected", KNOWN.items())
def test_gf_known_values(n, expected):
    assert eulerian_from_gf(n).poly == expected


@pytest.mark.parametrize("n", range(9))
def test_cross_method_equality(n):
    r = eulerian_recurrence(n).poly
    assert eulerian_bruteforce(n).poly == r
    assert eulerian_from_gf(n).poly == r


@pytest.mark.parametrize("build,n_max", [(eulerian_recurrence, 20), (eulerian_from_gf, 20),
                                         (eulerian_bruteforce, BRUTEFORCE_CAP)])
def test_coeffs_is_the_trimmed_integer_row(build, n_max):
    # Each construction returns A_n's integer row, the checker's alternating
    # sum, and `.poly` is its Poly view.
    for n in range(n_max + 1):
        ep = build(n)
        assert type(ep.coeffs) is tuple and ep.coeffs[-1] != 0
        assert all(type(c) is int for c in ep.coeffs)
        assert ep.coeffs == tuple(checks.eulerian(n))
        assert ep.poly == Poly(list(ep.coeffs))


def test_gf_equals_recurrence_up_to_cap():
    # The CLI accepts eulerian --method gf up to n = 64.
    for n in range(65):
        assert eulerian_from_gf(n).poly.coeffs == eulerian_row(n)


@pytest.mark.parametrize("n", range(11))
def test_value_at_one_is_factorial(n):
    assert eulerian_recurrence(n).poly.eval(1) == factorial(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_palindromic(n):
    p = eulerian_recurrence(n).poly
    # t^(n+1) A_n(1/t) = A_n(t): coefficient of t^k matches t^(n+1-k).
    for k in range(n + 2):
        assert p.coeff(k) == p.coeff(n + 1 - k)


@pytest.mark.parametrize("n", range(1, 9))
def test_structure(n):
    p = eulerian_recurrence(n).poly
    assert p.degree == n
    assert p.coeff(0) == 0
    assert p.coeff(1) != 0
    assert all(c.denominator == 1 and c >= 0 for c in p.coeffs)


def test_bruteforce_cap():
    with pytest.raises(ValueError, match="capped"):
        eulerian_bruteforce(10)


def stirling2_rows(n_max: int) -> list[list[int]]:
    """S(n, k) for n <= n_max, by S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
    return rows


def frobenius(n: int, stirling: list[list[int]]) -> tuple[int, ...]:
    """A_n(t) = t * sum_k k! S(n,k) (t-1)^(n-k) (Frobenius), with A_0 = 1."""
    if n == 0:
        return (1,)
    coeffs = [0] * (n + 1)
    for k in range(1, n + 1):
        c, e = factorial(k) * stirling[n][k], n - k
        for j in range(e + 1):  # (t-1)^e = sum_j C(e,j) (-1)^(e-j) t^j
            coeffs[j + 1] += c * comb(e, j) * (-1) ** (e - j)
    return tuple(coeffs)


def test_frobenius_formula_matches_recurrence_and_gf():
    # A fourth construction, through Stirling numbers of the second kind.
    stirling = stirling2_rows(64)
    for n in range(65):
        a = frobenius(n, stirling)
        assert a == eulerian_row(n)
        assert eulerian_from_gf(n).poly == Poly(a)


def test_worpitzky_examples():
    assert worpitzky_row(1, 4) == [0, 1, 2, 3, 4]
    assert worpitzky_row(2, 4) == [0, 1, 4, 9, 16]
    assert worpitzky_row(0, 3) == [1, 1, 1, 1]
    # K < n: fewer terms than A_n has coefficients.
    assert worpitzky_row(5, 2) == [0, 1, 32]
    assert worpitzky_row(5, 0) == [0]


@pytest.mark.parametrize("n", range(31))
def test_worpitzky_power_row(n):
    for K in range(41):
        row = worpitzky_row(n, K)
        assert row == [Fraction(k**n) for k in range(K + 1)]  # 0^0 = 1
        assert all(isinstance(c, int) for c in row)


def test_negative_n_rejected():
    for fn in (eulerian_recurrence, eulerian_bruteforce, eulerian_from_gf):
        with pytest.raises(ValueError):
            fn(-1)
    for n, K in ((-1, 3), (2, -1)):
        with pytest.raises(ValueError):
            worpitzky_row(n, K)


def test_row_cache_keeps_the_last_row_alone():
    # A process that asked for A_300 and then A_5 holds A_5 only, not every
    # row up to 300; asking for A_300 again builds it from A_0.
    from eulercong import _intpoly

    big = eulerian_row(300)
    assert eulerian_row(5) == (0, 1, 26, 66, 26, 1)
    assert _intpoly._ROW == (5, (0, 1, 26, 66, 26, 1))
    assert eulerian_row(300) == big
    assert _intpoly._ROW == (300, big)
