"""The CLI's JSON writer and coefficient formatter against json and Fraction."""

import json
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from eulercong.cli import _fraction_strs, dump_json, main
from eulercong.congruence import verify_congruence

CERTIFICATE = ("lhs", "rhs", "remainder", "cofactor")


@given(st.lists(st.integers(-10**80, 10**80), max_size=8),
       st.just(1) | st.integers(1, 10**40))
@example([0, -1, 1, -6, 10**100, -10**100], 1)
@example([0, -3, 6, 12 * 7**40, -(7**41) + 1], 7**40 * 12)
def test_fraction_strs_equal_str_of_fraction(nums, den):
    assert _fraction_strs(nums, den) == [str(Fraction(c, den)) for c in nums]


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
