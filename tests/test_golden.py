"""Byte-exact CLI output, frozen from the Fraction implementation.

The files under golden/ hold the stdout of `eulercong ARGS` as written
before verify (and, for the trace runs, the proof trace) moved to
integer arithmetic; every run below exits 0. Every file is also checked
by the benchmark's checker, which recomputes every value from first
principles and imports nothing from eulercong. The checker reads the
plain verify files and the JSON verify and trace files. The other files
are parsed here (`parse_plain`, `parse_latex`): the trace ones are fed
to it as the JSON they stand for, and the rest are checked against its
Eulerian numbers and congruence sides.
"""

import importlib.util
import json
import re
from fractions import Fraction
from functools import partial
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulercong._intpoly import render, trim
from eulercong.cli import main

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "verify-grid-6x5": ["verify", "--n-max", "6", "--m-max", "5"],
    "verify-1-2": ["verify", "--n", "1", "--m", "2"],
    "eulerian-5": ["eulerian", "--n", "5"],
    "trace-1-2": ["trace", "--n", "1", "--m", "2"],
    "trace-6-4": ["trace", "--n", "6", "--m", "4"],
    "trace-8-6": ["trace", "--n", "8", "--m", "6"],
}
FORMATS = ["plain", "latex", "json"]


def _load_checks():
    # perfbench/ is no package and is not on sys.path, so load the file itself.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("golden_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()

# One term of a plain polynomial with integer coefficients: 7, t, 3*t, t^5, 3*t^5.
TERM = re.compile(r"(-?)(?:(\d+)|(?:(\d+)\*)?t(?:\^(\d+))?)")


def parse_plain(text: str) -> list[int]:
    """The ascending integer coefficients of a polynomial that `render` wrote in plain.

    Its terms rise in degree, as in '-3 - t + 2*t^5', and zero is '0'.
    """
    coeffs: list[int] = []
    for term in text.replace("- ", "-").replace("+ ", "").split(" "):
        match = TERM.fullmatch(term)
        if match is None:
            raise ValueError(f"not a term: {term!r}")
        sign, const, coeff, power = match.groups()
        degree = 0 if const else int(power or 1)
        if degree < len(coeffs):
            raise ValueError(f"{term!r} does not rise in degree")
        coeffs += [0] * (degree - len(coeffs)) + [int(f"{sign}{const or coeff or 1}")]
    return coeffs if coeffs != [0] else []


# One LaTeX term: 7, \frac{1}{4}, t, 3t, \frac{1}{4}t, t^{5}, 3t^{5}; the sign is apart.
LATEX_TERM = re.compile(r"(?:(\d+)|\\frac\{(\d+)\}\{(\d+)\})?(t(?:\^\{(\d+)\})?)?")


def parse_latex(text: str) -> list[Fraction]:
    r"""The ascending coefficients of a polynomial that `render` wrote in LaTeX.

    Its terms rise in degree, as in '-\frac{1}{4} + 3t - t^{5}', each after
    '+ ' or '- ' but the first, which may lead with '-'; zero is '0'. A
    coefficient is reduced and nonzero, and left out before t when it is 1.
    """
    if text == "0":
        return []
    first, *rest = text.split(" ")
    if len(rest) % 2 or any(sign not in ("+", "-") for sign in rest[::2]):
        raise ValueError(f"not a sum of terms: {text!r}")
    coeffs: list[Fraction] = []
    terms = [(first[:1] == "-", first.removeprefix("-")), *zip(
        [sign == "-" for sign in rest[::2]], rest[1::2])]
    for negative, term in terms:
        match = LATEX_TERM.fullmatch(term)
        whole, a, b, var, power = match.groups() if match else (None,) * 5
        if not (whole or a or var) or (b and (int(b) < 2 or gcd(int(a), int(b)) > 1)):
            raise ValueError(f"not a term: {term!r}")
        value = Fraction(int(whole or a or 1), int(b or 1))
        if not value or (var and value == 1 and (whole or a)) or (power and int(power) < 2):
            raise ValueError(f"not a term: {term!r}")
        degree = int(power or 1) if var else 0
        if degree < len(coeffs):
            raise ValueError(f"{term!r} does not rise in degree")
        coeffs += [Fraction(0)] * (degree - len(coeffs)) + [-value if negative else value]
    return coeffs


def _plain_pair(text: str) -> dict:
    # pair_text: '(num)/(den)', or num alone when den is 1.
    num, den = text[1:-1].split(")/(") if ")/(" in text else (text, "1")
    return {"num": [str(c) for c in parse_plain(num)], "den": [str(c) for c in parse_plain(den)]}


def check_trace_plain(n: int, m: int, text: str) -> list[str]:
    """A plain `trace` report, checked as the JSON report it stands for."""
    head, diff, series, den_at_one, *terms = text.splitlines()
    got_n, got_m, holds = re.fullmatch(r"n=(\d+) m=(\d+) all_checks=(true|false)", head).groups()
    rep = {
        "n": int(got_n),
        "m": int(got_m),
        "holds": holds == "true",
        "diff": _plain_pair(diff.removeprefix("  difference = ")),
        "per_j": [],
        "den_at_one": den_at_one.removeprefix("  denominator at t=1: "),
    }
    for line in terms:
        j, value, k = re.fullmatch(r"  j=(\d+): value=(.*) divisor_exponent=(\d+|None)",
                                   line).groups()
        rep["per_j"].append({"j": int(j), "value": _plain_pair(value),
                             "divisor_exponent": None if k == "None" else int(k)})
    problems = checks.check_trace_json(n, m, json.dumps(rep))
    if _plain_pair(series.removeprefix("  series coefficient = ")) != rep["diff"]:
        problems.append("series coefficient != difference")
    return problems


def _latex_pair(text: str) -> tuple[list[Fraction], list[Fraction]]:
    # pair_text: 'num / \left(den\right)'.
    num, den = re.fullmatch(r"(.*) / \\left\((.*)\\right\)", text).groups()
    return parse_latex(num), parse_latex(den)


def check_trace_latex(n: int, m: int, text: str) -> list[str]:
    """A LaTeX `trace` report, checked as the JSON report it stands for.

    The report prints neither (n, m), its verdict nor den(1): holds is true,
    as every golden run exits 0, and den_at_one is den(1) of the difference.
    """
    head, *terms = text.splitlines()
    num, den = _latex_pair(head.removeprefix("\\text{difference} = "))
    rep = {"n": n, "m": m, "holds": True, "diff": {"num": num, "den": den}, "per_j": [],
           "den_at_one": sum(den)}
    for line in terms:
        j, value, k = re.fullmatch(r"j = (\d+): (.*), \\; k = (\d+|None)", line).groups()
        t_num, t_den = _latex_pair(value)
        rep["per_j"].append({"j": int(j), "value": {"num": t_num, "den": t_den},
                             "divisor_exponent": None if k == "None" else int(k)})
    return checks.check_trace_json(n, m, json.dumps(rep, default=str))


LATEX_VERIFY = re.compile(r"A_\{(\d+)\}\(t\^\{(\d+)\}\) \\equiv (.*)"
                          r" \\pmod\{\(t-1\)\^\{(\d+)\}\} \\quad (\\checkmark|\\times)")


def check_verify_latex(grid: list[tuple[int, int]], text: str) -> list[str]:
    """A LaTeX `verify` report: one congruence per pair, in (n, m) order."""
    lines = text.splitlines()
    if len(lines) != len(grid):
        return [f"{len(lines)} lines for {len(grid)} pairs"]
    problems = []
    for line, (n, m) in zip(lines, sorted(grid)):
        match = LATEX_VERIFY.fullmatch(line)
        if not match or tuple(map(int, match.group(1, 2, 4))) != (n, m, n + 1):
            problems.append(f"unexpected line {line!r} for (n={n}, m={m})")
            continue
        pair = checks.Pair(n, m)
        if checks.scale(parse_latex(match[3]), pair.scale) != pair.rhs_scaled:
            problems.append(f"(n={n}, m={m}): rhs is not G_m^(n+1) A_n / m^(n+1)")
        if (match[5] == "\\checkmark") != pair.holds:
            problems.append(f"(n={n}, m={m}): {match[5]}, but holds is {pair.holds}")
    return problems


def check_eulerian(n: int, coeffs: list[int]) -> list[str]:
    return [] if coeffs == checks.eulerian(n) else [f"A_{n} = {coeffs}, not {checks.eulerian(n)}"]


GRID_6X5 = [(n, m) for n in range(7) for m in range(1, 6)]
CHECKED = {
    "verify-grid-6x5.json": partial(checks.check_verify_json, GRID_6X5),
    "verify-grid-6x5.plain": partial(checks.check_verify_plain, GRID_6X5),
    "verify-grid-6x5.latex": partial(check_verify_latex, GRID_6X5),
    "verify-1-2.json": partial(checks.check_verify_json, [(1, 2)]),
    "verify-1-2.plain": partial(checks.check_verify_plain, [(1, 2)]),
    "verify-1-2.latex": partial(check_verify_latex, [(1, 2)]),
    "trace-1-2.json": partial(checks.check_trace_json, 1, 2),
    "trace-6-4.json": partial(checks.check_trace_json, 6, 4),
    "trace-8-6.json": partial(checks.check_trace_json, 8, 6),
    "trace-1-2.plain": partial(check_trace_plain, 1, 2),
    "trace-6-4.plain": partial(check_trace_plain, 6, 4),
    "trace-8-6.plain": partial(check_trace_plain, 8, 6),
    "trace-1-2.latex": partial(check_trace_latex, 1, 2),
    "trace-6-4.latex": partial(check_trace_latex, 6, 4),
    "trace-8-6.latex": partial(check_trace_latex, 8, 6),
    "eulerian-5.plain": lambda text: check_eulerian(5, parse_plain(text.rstrip("\n"))),
    "eulerian-5.json": lambda text: check_eulerian(5, list(map(int, json.loads(text)["coeffs"]))),
    "eulerian-5.latex": lambda text: check_eulerian(
        5, parse_latex(re.fullmatch(r"A_\{5\}\(t\) = (.*)\n", text)[1])),
}


def output(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.encode()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", RUNS)
def test_golden_output(capsys, name, fmt):
    code, out = output(capsys, [*RUNS[name], "--format", fmt])
    assert code == 0
    assert out == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("name", CHECKED)
def test_golden_file_passes_the_checker(name):
    assert CHECKED[name]((GOLDEN / name).read_text()) == []


def test_checker_rejects_a_wrong_golden_value():
    text = (GOLDEN / "trace-6-4.json").read_text()
    assert text.count('"16384"') == 1
    problems = CHECKED["trace-6-4.json"](text.replace('"16384"', '"16385"'))
    assert "den_at_one=16385, den(1) is 16384" in problems


def test_checker_rejects_a_wrong_plain_coefficient():
    text = (GOLDEN / "trace-6-4.plain").read_text()
    assert text.count(" 5309*t^4 ") == 2  # the difference and the series coefficient
    problems = CHECKED["trace-6-4.plain"](text.replace(" 5309*t^4 ", " 5310*t^4 ", 1))
    assert "diff != m^(n+1) A_n(t^m)/(1-t^m)^(n+1) - A_n(t)/(1-t)^(n+1)" in problems


def test_checker_rejects_a_wrong_latex_fraction():
    text = (GOLDEN / "verify-grid-6x5.latex").read_text()
    old = "\\equiv \\frac{1}{2} + \\frac{1}{2}t \\pmod"
    assert text.count(old) == 1  # A_0(t^2)
    problems = CHECKED["verify-grid-6x5.latex"](text.replace(old, old.replace("{2} +", "{3} +")))
    assert problems == ["(n=0, m=2): rhs is not G_m^(n+1) A_n / m^(n+1)"]


def test_every_golden_file_is_checked():
    assert set(CHECKED) == {path.name for path in GOLDEN.iterdir()}


@given(st.lists(st.integers(-20, 20), max_size=8), st.integers(1, 12))
def test_latex_parser_inverts_render(nums, den):
    expected = [Fraction(c, den) for c in trim(list(nums))]
    assert parse_latex(render(nums, den, latex=True)) == expected


@pytest.mark.parametrize("text", ["", "x", "t^2", "2*t", "1/2", "-0", "1t", "t^{1}", "+ t",
                                  "t + 1", "t + t", "t +", "\\frac{2}{4}t", "\\frac{3}{1}",
                                  "-t - -t^{2}"])
def test_latex_parser_rejects_other_text(text):
    with pytest.raises(ValueError):
        parse_latex(text)


@given(st.lists(st.integers(-20, 20), max_size=8))
def test_plain_parser_inverts_render(nums):
    assert parse_plain(render(nums)) == trim(list(nums))


@pytest.mark.parametrize("text", ["", "x", "2t", "1/2*t", "t + 1", "t + t"])
def test_plain_parser_rejects_other_text(text):
    with pytest.raises(ValueError):
        parse_plain(text)


def test_no_golden_file_is_orphaned():
    # CI runs the console script on what RUNS names, so a file outside it
    # would go unchecked there.
    files = {path.name for path in GOLDEN.iterdir()}
    assert files == {f"{name}.{fmt}" for name in RUNS for fmt in FORMATS}


def test_parallel_json_equals_serial(capsys):
    argv = [*RUNS["verify-grid-6x5"], "--format", "json"]
    serial = output(capsys, argv)
    assert output(capsys, [*argv, "--parallel", "2"]) == serial


@pytest.mark.parametrize("fmt", ["plain", "latex"])  # json: the test above
def test_real_pool_output_equals_serial(capsys, fmt):
    argv = [*RUNS["verify-grid-6x5"], "--format", fmt]
    serial = output(capsys, argv)
    assert output(capsys, [*argv, "--parallel", "2"]) == serial
