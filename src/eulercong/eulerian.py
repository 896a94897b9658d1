"""Eulerian polynomials A_n(t), built by three independent methods.

Normalization: A_n(t) = sum over permutations of {1..n} of t^(des+1)
for n >= 1, with A_0 = 1. This is the convention fixed by the
generating function sum_n A_n(t)/(1-t)^(n+1) x^n/n! = 1/(1 - t e^x),
so A_1(t) = t (NOT the also-common A_1(t) = 1). The congruence this
package verifies is false under the other convention.

Each construction returns A_n's integer row; `.poly` is its `Poly`,
built by `_intpoly.poly_view` when read, so this module loads no `poly`.
The recurrence and the gf start from `_intpoly.eulerian_row` and `kernel`,
which verify and trace read directly, so neither loads this module.
"""

from __future__ import annotations

from itertools import accumulate, permutations
from typing import NamedTuple

from ._intpoly import check_nm, eulerian_row, kernel, poly_view

BRUTEFORCE_CAP = 9


class EulerianPoly(NamedTuple):
    n: int
    coeffs: tuple[int, ...]  # A_n's trimmed integer row, ascending

    poly = property(lambda ep: poly_view(ep.coeffs))


def eulerian_recurrence(n: int) -> EulerianPoly:
    """A_{k+1}(t) = (k+1) t A_k(t) + t (1-t) A_k'(t), from A_0 = 1."""
    return EulerianPoly(n, eulerian_row(n))


def eulerian_bruteforce(n: int) -> EulerianPoly:
    """Descent enumeration over all n! permutations; the trusted oracle."""
    check_nm(n)
    if n > BRUTEFORCE_CAP:
        raise ValueError(f"brute force capped at n <= {BRUTEFORCE_CAP} (got {n})")
    if n == 0:
        return EulerianPoly(0, (1,))
    counts = [0] * (n + 1)
    for sigma in permutations(range(n)):
        des = sum(1 for i in range(n - 1) if sigma[i] > sigma[i + 1])
        counts[des + 1] += 1
    return EulerianPoly(n, tuple(counts))


def eulerian_from_gf(n: int) -> EulerianPoly:
    """Extract A_n from 1/(1 - t e^x): the EGF coefficient times (1-t)^(n+1).

    The x^n/n! coefficient of 1/(1 - t e^x) is N_n / (t-1)^(n+1), with N_n
    from the integer series division `_intpoly.kernel`, so
    A_n = (-1)^(n+1) N_n. It shares no code with the recurrence.
    """
    return EulerianPoly(n, tuple((-1) ** (n + 1) * c for c in kernel(1, n)[n]))


def worpitzky_row(n: int, K: int) -> list[int]:
    """Coefficients of t^0..t^K in A_n(t)/(1-t)^(n+1); coefficient k is k^n.

    Dividing a series by 1 - t takes its running sums, so this is n+1
    running sums over the coefficients of A_n (0^0 = 1).
    """
    check_nm(n)
    if K < 0:
        raise ValueError("K must be nonnegative")
    row = eulerian_row(n)[:K + 1]
    cs = list(row) + [0] * (K + 1 - len(row))
    for _ in range(n + 1):
        cs = list(accumulate(cs))
    return cs
