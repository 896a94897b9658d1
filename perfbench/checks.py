"""Output checks that share no code with the package under test.

Everything here is recomputed from first principles in Python integers
(and `Fraction` only to read the printed rationals): the Eulerian numbers
come from the explicit alternating sum, the congruence verdict from the
Taylor coefficients of an integer polynomial at t = 1. Nothing imports
`eulercong`, so a fault in its `Poly`, `RatFunc` or recurrence cannot hide
itself.

Each checker returns a list of problems; an empty list means the output
is correct. Polynomials are coefficient lists, ascending in degree.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, gcd
from typing import Sequence


# -- integer polynomial arithmetic ----------------------------------------


def trim(p: Sequence) -> list:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def add(a: Sequence, b: Sequence) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def scale(a: Sequence, k) -> list:
    return trim([c * k for c in a])


def sub(a: Sequence, b: Sequence) -> list:
    return add(a, scale(b, -1))


def mul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def power(a: Sequence, k: int) -> list:
    out = [1]
    for _ in range(k):
        out = mul(out, a)
    return out


def dilate(a: Sequence, m: int) -> list:
    """p(t) -> p(t^m)."""
    if not a:
        return []
    out = [0] * ((len(a) - 1) * m + 1)
    for i, c in enumerate(a):
        out[i * m] = c
    return out


def geometric_power(m: int, k: int) -> list[int]:
    """(1 + t + ... + t^(m-1))^k, one sliding-window sum per factor."""
    p = [1]
    for _ in range(k):
        prefix = [0]
        for c in p:
            prefix.append(prefix[-1] + c)
        d = len(p) - 1 + m - 1
        p = [prefix[min(i, len(p) - 1) + 1] - prefix[max(i - m + 1, 0)]
             for i in range(d + 1)]
    return p


def divides(d: Sequence[int], p: Sequence[int]) -> bool:
    """Whether the integer polynomial d divides p in Z[t] (d nonzero)."""
    r = list(p)
    for i in range(len(r) - len(d), -1, -1):
        q, rest = divmod(r[i + len(d) - 1], d[-1])
        if rest:
            return False
        if q:
            for j, c in enumerate(d):
                r[i + j] -= q * c
    return not any(r)


def quotient(p: Sequence[int], d: Sequence[int]) -> list[int]:
    """p / d in Z[t]; the caller has checked that d divides p."""
    r = list(p)
    q = [0] * max(len(r) - len(d) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        q[i] = r[i + len(d) - 1] // d[-1]
        for j, c in enumerate(d):
            r[i + j] -= q[i] * c
    return trim(q)


def primitive(p: Sequence[Fraction]) -> tuple[list[int], Fraction]:
    """(c*p, c) with c*p an integer polynomial of content 1, leading > 0."""
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints], Fraction(den, g)


def integral(p: Sequence[Fraction]) -> list[int] | None:
    if any(c.denominator != 1 for c in p):
        return None
    return [int(c) for c in p]


# -- the mathematics, recomputed -----------------------------------------


def eulerian(n: int) -> list[int]:
    """A_n(t) from the alternating sum, normalised so that A_1 = t.

    The coefficient of t^k is sum_{i<=k} (-1)^i C(n+1, i) (k-i)^n, which
    counts the permutations of n letters with k-1 descents (0^0 = 1).
    """
    return trim([sum((-1) ** i * comb(n + 1, i) * (k - i) ** n
                     for i in range(k + 1))
                 for k in range(n + 1)])


class Pair:
    """Both sides of the congruence at (n, m), cleared of the 1/m^(n+1)."""

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.scale = m ** (n + 1)
        self.a = eulerian(n)
        self.lhs = dilate(self.a, m)
        self.rhs_scaled = mul(geometric_power(m, n + 1), self.a)
        self.difference = sub(scale(self.lhs, self.scale), self.rhs_scaled)
        self.taylor = [sum(c * comb(i, j) for i, c in enumerate(self.difference))
                       for j in range(n + 1)]
        self.holds = not any(self.taylor)


_PLAIN_VERIFY = re.compile(r"^n=(\d+) m=(\d+) holds=(true|false) remainder=(.*)$")


def _fractions(values) -> list[Fraction]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ValueError(f"expected a list of rational strings, got {values!r}")
    return [Fraction(v) for v in values]


def _check_certificate(entry: dict, pair: Pair) -> list[str]:
    n, m = pair.n, pair.m
    where = f"(n={n}, m={m})"
    problems = []
    if entry.get("holds") is not pair.holds:
        problems.append(f"{where}: holds={entry.get('holds')!r}, expected {pair.holds}")
    lhs = _fractions(entry["lhs"])
    rhs = _fractions(entry["rhs"])
    remainder = _fractions(entry["remainder"])
    cofactor = _fractions(entry["cofactor"])
    if trim(lhs) != lhs or integral(lhs) != pair.lhs:
        problems.append(f"{where}: lhs is not A_n(t^m)")
    if trim(rhs) != rhs or scale(rhs, pair.scale) != pair.rhs_scaled:
        problems.append(f"{where}: rhs is not G_m^(n+1) A_n / m^(n+1)")
    if len(remainder) > n + 1:
        problems.append(f"{where}: remainder of degree {len(remainder) - 1} > n")
    if bool(remainder) == pair.holds:
        problems.append(f"{where}: remainder {'nonzero' if remainder else 'zero'}"
                        f" but the congruence {'holds' if pair.holds else 'fails'}")
    scaled_cofactor = integral(scale(cofactor, pair.scale))
    scaled_remainder = integral(scale(remainder, pair.scale))
    if scaled_cofactor is None or scaled_remainder is None:
        problems.append(f"{where}: cofactor or remainder not in (1/m^(n+1)) Z[t]")
    elif add(mul(scaled_cofactor, power([-1, 1], n + 1)), scaled_remainder) \
            != pair.difference:
        problems.append(f"{where}: difference != cofactor (t-1)^(n+1) + remainder")
    return problems


def check_verify_json(grid: Sequence[tuple[int, int]], text: str,
                      memo: dict | None = None) -> list[str]:
    """A `verify --format json` report over `grid`, in (n, m) order.

    `memo` keeps the recomputed `Pair`s between calls.
    """
    memo = {} if memo is None else memo
    try:
        entries = json.loads(text)
        got = [(e["n"], e["m"]) for e in entries]
        if got != sorted(grid):
            return [f"report covers {got[:4]}..., expected {sorted(grid)[:4]}..."]
        problems = []
        for entry in entries:
            key = (entry["n"], entry["m"])
            if key not in memo:
                memo[key] = Pair(*key)
            problems += _check_certificate(entry, memo[key])
        return problems
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable verify report: {exc!r}"]


def check_verify_plain(grid: Sequence[tuple[int, int]], text: str) -> list[str]:
    """A plain `verify` report: one verdict line per pair, in (n, m) order."""
    lines = text.splitlines()
    if len(lines) != len(grid):
        return [f"{len(lines)} lines for {len(grid)} pairs"]
    problems = []
    for line, (n, m) in zip(lines, sorted(grid)):
        match = _PLAIN_VERIFY.match(line)
        if not match or (int(match[1]), int(match[2])) != (n, m):
            problems.append(f"unexpected line {line!r} for (n={n}, m={m})")
            continue
        holds = Pair(n, m).holds
        if (match[3] == "true") != holds:
            problems.append(f"(n={n}, m={m}): holds={match[3]}, expected {holds}")
        if (match[4] == "0") != holds:
            problems.append(f"(n={n}, m={m}): remainder={match[4]} disagrees"
                            " with the verdict")
    return problems


def _ratfunc(obj) -> tuple[list[Fraction], list[Fraction]]:
    return trim(_fractions(obj["num"])), trim(_fractions(obj["den"]))


def check_trace_json(n: int, m: int, text: str) -> list[str]:
    """A `trace --format json` report: difference, telescoping, divisors."""
    try:
        return _check_trace(n, m, json.loads(text))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable trace report: {exc!r}"]


def _check_trace(n: int, m: int, rep: dict) -> list[str]:
    if (rep["n"], rep["m"]) != (n, m):
        return [f"trace of (n={rep['n']}, m={rep['m']}), expected ({n}, {m})"]
    problems = []
    num, den = _ratfunc(rep["diff"])
    if not den:
        return ["diff has a zero denominator"]
    # m^(n+1) A_n(t^m) / (1-t^m)^(n+1) - A_n(t) / (1-t)^(n+1), over one
    # denominator and cross-multiplied against the printed num/den.
    a = eulerian(n)
    one_minus_t = power([1, -1], n + 1)
    one_minus_tm = power([1] + [0] * (m - 1) + [-1], n + 1)
    big_num = sub(scale(mul(dilate(a, m), one_minus_t), m ** (n + 1)),
                  mul(a, one_minus_tm))
    big_den = mul(one_minus_tm, one_minus_t)
    if mul(num, big_den) != mul(big_num, den):
        problems.append("diff != m^(n+1) A_n(t^m)/(1-t^m)^(n+1) - A_n(t)/(1-t)^(n+1)")
    den_at_one = sum(den)
    if den_at_one == 0:
        problems.append("diff denominator vanishes at t = 1")
    if Fraction(rep["den_at_one"]) != den_at_one:
        problems.append(f"den_at_one={rep['den_at_one']}, den(1) is {den_at_one}")

    # Every per_j denominator divides G^k for its printed k <= n+1, so all
    # of them divide G^(n+1); summed over that common denominator the
    # terms must give diff back.
    terms = rep["per_j"]
    if [t["j"] for t in terms] != list(range(m)):
        return problems + [f"per_j covers j={[t['j'] for t in terms]}"]
    g_full = geometric_power(m, n + 1)
    total: list = []
    for term in terms:
        j, k = term["j"], term["divisor_exponent"]
        t_num, t_den = _ratfunc(term["value"])
        if not t_den:
            problems.append(f"j={j}: zero denominator")
            continue
        prim, c = primitive(t_den)
        if not isinstance(k, int) or not 0 <= k <= n + 1:
            problems.append(f"j={j}: divisor_exponent={k!r} outside [0, n+1]")
            continue
        if not divides(prim, geometric_power(m, k)):
            problems.append(f"j={j}: denominator does not divide G_m^{k}")
            continue
        total = add(total, mul(scale(t_num, c), quotient(g_full, prim)))
    if mul(total, den) != mul(num, g_full):
        problems.append("per_j values do not sum to diff")
    if rep["holds"] is not (not problems):
        problems.append(f"holds={rep['holds']!r} but the checks "
                        f"{'fail' if problems else 'pass'}")
    return problems
