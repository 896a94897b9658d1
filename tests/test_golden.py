"""Byte-exact CLI output, frozen from the Fraction implementation.

The files under golden/ hold the stdout of `eulercong ARGS` as written
before verify (and, for the trace runs, the proof trace) moved to
integer arithmetic; every run below exits 0. Every JSON and plain file
is also checked by the benchmark's checker, which recomputes every value
from first principles and imports nothing from eulercong. The checker
reads the plain verify files and the JSON verify and trace files; the
plain trace and eulerian files are parsed here (`parse_plain`), and the
trace ones fed to it as the JSON they stand for.
"""

import importlib.util
import json
import re
from functools import partial
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


def check_eulerian(n: int, coeffs: list[int]) -> list[str]:
    return [] if coeffs == checks.eulerian(n) else [f"A_{n} = {coeffs}, not {checks.eulerian(n)}"]


GRID_6X5 = [(n, m) for n in range(7) for m in range(1, 6)]
CHECKED = {
    "verify-grid-6x5.json": partial(checks.check_verify_json, GRID_6X5),
    "verify-grid-6x5.plain": partial(checks.check_verify_plain, GRID_6X5),
    "verify-1-2.json": partial(checks.check_verify_json, [(1, 2)]),
    "verify-1-2.plain": partial(checks.check_verify_plain, [(1, 2)]),
    "trace-1-2.json": partial(checks.check_trace_json, 1, 2),
    "trace-6-4.json": partial(checks.check_trace_json, 6, 4),
    "trace-8-6.json": partial(checks.check_trace_json, 8, 6),
    "trace-1-2.plain": partial(check_trace_plain, 1, 2),
    "trace-6-4.plain": partial(check_trace_plain, 6, 4),
    "trace-8-6.plain": partial(check_trace_plain, 8, 6),
    "eulerian-5.plain": lambda text: check_eulerian(5, parse_plain(text.rstrip("\n"))),
    "eulerian-5.json": lambda text: check_eulerian(5, list(map(int, json.loads(text)["coeffs"]))),
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
