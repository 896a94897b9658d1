"""The package's formatters against slow oracles: the polynomial renderer
and the coefficient strings against Fraction, the JSON writer against json.
"""

import json
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from eulercong._intpoly import fraction_strs, render
from eulercong.cli import dump_json, main
from eulercong.congruence import verify_congruence
from eulercong.poly import Poly

CERTIFICATE = ("lhs", "rhs", "remainder", "cofactor")


@given(st.lists(st.integers(-10**80, 10**80), max_size=8),
       st.just(1) | st.integers(1, 10**40))
@example([0, -1, 1, -6, 10**100, -10**100], 1)
@example([0, -3, 6, 12 * 7**40, -(7**41) + 1], 7**40 * 12)
def test_fraction_strs_equal_str_of_fraction(nums, den):
    assert fraction_strs(nums, den) == [str(Fraction(c, den)) for c in nums]


# The Fraction renderer that `_intpoly.render` replaced, kept verbatim as
# its oracle: the former `Poly.render` with its three callable knobs, and the LaTeX
# coefficient the CLI passed to it.
def oracle_render(self, scalar=str, power: str = "t^{}", times: str = "*") -> str:
    """Nonzero terms in ascending degree, e.g. 't + 4*t^2 + t^3'.

    scalar renders a coefficient's magnitude (omitted when it is 1
    and t appears), power.format(i) renders t^i for i >= 2 and times
    joins the two. The defaults give the plain form of str().
    """
    if self.is_zero:
        return "0"
    parts: list[str] = []
    for i, c in enumerate(self.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        term = scalar(mag)
        if i:
            var = "t" if i == 1 else power.format(i)
            term = var if mag == 1 else term + times + var
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts)


def _latex_scalar(c: Fraction) -> str:
    return str(c) if c.denominator == 1 else f"\\frac{{{c.numerator}}}{{{c.denominator}}}"


def oracle_latex(p: Poly) -> str:
    return oracle_render(p, _latex_scalar, "t^{{{}}}", "")


@st.composite
def numerators_over(draw):
    """(nums, den): den >= 1, often 1, and nums rich in 0 and +-den."""
    den = draw(st.just(1) | st.integers(1, 10**6) | st.integers(1, 10**30))
    coeff = (st.sampled_from([0, den, -den]) | st.integers(-10**6, 10**6)
             | st.integers(-10**40, 10**40))
    return draw(st.lists(coeff, max_size=9)), den


@given(numerators_over(), st.booleans())
@example(([], 1), False)
@example(([], 7), True)
@example(([0, 0, 0], 3), False)
@example(([-4, 0, 3], 1), False)
@example(([0, 1, 4, 1], 1), True)
@example(([-1, 0, 2], 4), False)
@example(([-1, 0, 2], 4), True)
@example(([-6, 6, -6, 6], 6), True)
@example(([5, -5, 0, 0, 5], 5), False)
@example(([3, 0, 0, -12], 12), True)
@example(([0, -7], 7), False)
def test_render_equals_the_fraction_oracle(case, latex):
    nums, den = case
    p = Poly([Fraction(c, den) for c in nums])
    expected = oracle_latex(p) if latex else oracle_render(p)
    assert render(nums, den, latex) == expected
    assert render(p.num, p.den, latex) == expected
    if not latex:
        assert str(p) == expected


# What the CLI writes: dicts with identifier keys, lists, ints, bools,
# None, and strings of digits, '-' and '/'.
scalars = (st.none() | st.booleans() | st.integers(-10**30, 10**30)
           | st.text("-0123456789/", max_size=8))
keys = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=30,
)


@given(json_values)
@example([])
@example({})
@example({"a": [], "b": {}, "c": None, "d": [[], {}, [None, True, 0]]})
def test_dump_json_equals_json_dumps(obj):
    expected = json.dumps(obj, indent=2)
    assert dump_json(obj) == expected
    assert dump_json(obj, "\n  ") == expected.replace("\n", "\n  ")


def test_verify_grid_json_equals_json_dumps_of_the_poly_fields(capsys):
    assert main(["verify", "--n-max", "14", "--m-max", "10", "--format", "json"]) == 0
    expected = []
    for n in range(15):
        for m in range(1, 11):
            rep = verify_congruence(n, m)
            certificate = {part: [str(c) for c in getattr(rep, part).coeffs]
                           for part in CERTIFICATE}
            expected.append({"n": n, "m": m, "holds": rep.holds, **certificate})
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
