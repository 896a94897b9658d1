"""Integer polynomial kernels shared by verify, trace and the gf construction.

It also holds the integer constructions of the Eulerian polynomial A_n
(`eulerian_row` by the recurrence, `kernel` by series division of
1/(1 - t e^x)) and the two sides of the congruence (`integer_sides`).

A polynomial in t is a list of Python ints, ascending: index i is the
coefficient of t^i. Results are trimmed (no trailing zeros, [] for the
zero polynomial) unless a docstring says otherwise, and only `trim`
changes its argument. `divmod_exact` is the one long division: it
divides by any nonzero b, exactly when b is monic or the dividend is
pre-scaled by a power of b's leading coefficient, and `poly.Poly`'s
arithmetic (integer numerators over one denominator) runs on these
kernels too.

`render` and `fraction_strs` are the package's only formatters of
polynomials and coefficients: a rational polynomial is written from its
integer numerators over one positive denominator. `poly_view` and
`ratfunc_view`, the one bridge to the rational layer, build the `Poly`
and `RatFunc` views of integer results, and import those layers on call.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, zip_longest
from math import comb, gcd
from operator import sub
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .poly import Poly
    from .ratfunc import RatFunc


def check_nm(n: int, m: int = 1) -> None:
    """Refuse n < 0, then m < 1: the congruence's domain, the package's one check of it."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m < 1:
        raise ValueError("m must be >= 1")


def trim(p: list[int]) -> list[int]:
    """Drop trailing zeros of p in place and return it."""
    while p and not p[-1]:
        p.pop()
    return p


def add(p: list[int], q: list[int], c: int = 1) -> list[int]:
    """p + c*q."""
    return trim([a + c * b for a, b in zip_longest(p, q, fillvalue=0)])


def mul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    terms = [(j, b) for j, b in enumerate(q) if b]
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in terms:
                out[i + j] += a * b
    return out


def divmod_exact(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b, when every quotient step is exact.

    That holds when b is monic, and when a is pre-scaled by b[-1]^k with
    k >= len(a) - len(b) + 1 (pseudo-division): then a == q*b + r with
    len(r) < len(b).
    """
    db, lb = len(b) - 1, b[-1]
    terms = [(j, c) for j, c in enumerate(b[:-1]) if c]
    rem = list(a)
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        if rem[i]:
            quot[i - db] = q = rem[i] // lb
            for j, c in terms:
                rem[i - db + j] -= q * c
    return quot, trim(rem[:db])


def times_binomial(p: list[int], e: int, k: int = 1) -> list[int]:
    """p * (t^e - 1)^k."""
    for _ in range(k):
        p = add([0] * e + p, p, -1)
    return p


def times_geometric(p: list[int], m: int, k: int = 1) -> list[int]:
    """p * G_m^k with G_m = 1 + t + ... + t^(m-1), by k running sums.

    Coefficient i of p * G_m is p[i-m+1] + ... + p[i].
    """
    if not p:
        return []
    pad = [0] * (m - 1)
    for _ in range(k):
        prefix = list(accumulate(p + pad, initial=0))
        p = list(map(sub, prefix[1:], pad + prefix[:len(p)]))
    return p


def divide_by_shift(cs: list[int], k: int) -> tuple[list[int], list[int]]:
    """Divide by (t-1) k times by synthetic division.

    Returns the last quotient and the k remainders, which are the Taylor
    coefficients d_0..d_{k-1} of cs at t = 1 (neither is trimmed).
    """
    taylor = []
    for _ in range(k):
        sums = list(accumulate(reversed(cs)))  # suffix sums of cs
        taylor.append(sums[-1] if sums else 0)
        cs = sums[-2::-1]
    return cs, taylor


def cyclotomic(m: int) -> list[list[int]]:
    """Phi_d for the divisors d of m, ascending, from t^d - 1 = prod_{e|d} Phi_e."""
    phis: dict[int, list[int]] = {}
    for d in range(1, m + 1):
        if m % d == 0:
            p = [-1] + [0] * (d - 1) + [1]
            for e, phi in phis.items():
                if d % e == 0:
                    p = divmod_exact(p, phi)[0]
            phis[d] = p
    return list(phis.values())


def egf_quotient(a: list[list[int]], b: list[list[int]], times_b0) -> list[list[int]]:
    """N_0..N_n with x^k/k! coefficient of a/b equal to N_k / b_0^(k+1).

    a and b hold the x^k/k! coefficients of two power series in x, and
    times_b0(p) is p * b_0 (b[0] itself is not read). By Horner in b_0,
    N_k = (...(a_k b_0 - c_0) b_0 - ... ) b_0 - c_(k-1), with
    c_j = C(k,j) N_j b_(k-j).
    """
    out: list[list[int]] = []
    for k, acc in enumerate(a):
        for j in range(k):
            acc = add(times_b0(acc), mul(out[j], b[k - j]), -comb(k, j))
        out.append(acc)
    return out


def kernel(c: int, n: int) -> list[list[int]]:
    """Numerators of 1/(1 - t^c e^(cx)): coefficient k is N_k / (t^c - 1)^(k+1).

    Divides -1 by t^c e^(cx) - 1, whose x^k/k! coefficient is c^k t^c - [k = 0].
    """
    check_nm(n, c)
    b = [times_binomial([1], c)] + [[0] * c + [c ** k] for k in range(1, n + 1)]
    return egf_quotient([[-1]] + [[]] * n, b, lambda p: times_binomial(p, c))


@lru_cache(maxsize=1)
def eulerian_row(n: int) -> tuple[int, ...]:
    """Integer coefficients of A_n(t), ascending, by the derivative recurrence.

    A_{k+1}(t) = (k+1) t A_k(t) + t (1-t) A_k'(t), so the coefficient of
    t^i in A_{k+1} is (k+2-i) a_{i-1} + i a_i. The last row built is kept,
    so the pairs (n, m) of one verify grid row build A_n once.
    """
    check_nm(n)
    row = (1,)
    for k in range(n):
        a = (0, *row, 0)  # a[i] is the coefficient of t^(i-1)
        row = tuple((k + 2 - i) * a[i] + i * a[i + 1] for i in range(k + 2))
    return row


def integer_sides(n: int, m: int) -> tuple[list[int], list[int]]:
    """m^(n+1) A_n(t^m) and G_m^(n+1) A_n(t): both sides over m^(n+1)."""
    check_nm(n, m)
    a = eulerian_row(n)
    scale = m ** (n + 1)
    lhs = [0] * ((len(a) - 1) * m + 1)
    lhs[::m] = [scale * c for c in a]
    return lhs, times_geometric(list(a), m, n + 1)


def fraction_strs(nums: list[int], den: int) -> list[str]:
    """str(Fraction(c, den)) for each c, without building the Fractions."""
    return [str(c // g) if (g := gcd(c, den)) == den else f"{c // g}/{den // g}"
            for c in nums]


def render(nums: list[int], den: int = 1, latex: bool = False) -> str:
    r"""The nonzero terms of sum_i (nums[i]/den) t^i in ascending degree; den > 0.

    Plain gives '-1/4 + 1/2*t^2' and latex '-\frac{1}{4} + \frac{1}{2}t^{2}'.
    A coefficient of magnitude 1 is left out before t, and zero is '0'.
    """
    parts: list[str] = []
    for i, c in enumerate(nums):
        if not c:
            continue
        g = gcd(c, den)
        a, b = abs(c) // g, den // g
        term = str(a) if b == 1 else f"\\frac{{{a}}}{{{b}}}" if latex else f"{a}/{b}"
        if i:
            var = "t" if i == 1 else f"t^{{{i}}}" if latex else f"t^{i}"
            term = var if a == b else term + ("" if latex else "*") + var
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + term)
    return " ".join(parts) or "0"


def poly_view(nums: list[int], den: int = 1) -> Poly:
    """The `Poly` nums/den in lowest terms, for ints nums and den > 0."""
    from .poly import _over

    return _over(nums, den)


def ratfunc_view(pair: tuple[list[int], list[int]]) -> RatFunc:
    """The `RatFunc` num/den of a reduced pair: coprime, den monic, [] / [1] for zero."""
    from .ratfunc import RatFunc

    return RatFunc._from_reduced(poly_view(pair[0]), poly_view(pair[1]))
