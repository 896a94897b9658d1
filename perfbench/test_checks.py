"""The benchmark's output checks accept real CLI output and reject wrong answers.

Run with `PYTHONPATH=src python -m pytest perfbench`. The wrong answers
are built with the package itself, so each is a self-consistent report
of the kind a faulty program would print.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from itertools import permutations

import pytest

import checks
from eulercong import cli
from eulercong.congruence import report_from_sides
from eulercong.eulerian import eulerian_recurrence
from eulercong.poly import Poly, geometric_poly
from eulercong.ratfunc import RatFunc


def run_cli(*args: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(args)) == 0
    return buf.getvalue()


def grid(n_max: int, m_max: int) -> list[tuple[int, int]]:
    return [(n, m) for n in range(n_max + 1) for m in range(1, m_max + 1)]


def verify_json(n_max: int, m_max: int) -> list[dict]:
    return json.loads(run_cli("verify", "--n-max", str(n_max), "--m-max", str(m_max),
                              "--format", "json"))


def trace_json(n: int, m: int) -> dict:
    return json.loads(run_cli("trace", "--n", str(n), "--m", str(m), "--format", "json"))


def unscaled_sides(a: Poly, n: int, m: int) -> tuple[Poly, Poly]:
    return a.subs_t_power(m), geometric_poly(m) ** (n + 1) * a


def a1_is_one_sides(n: int, m: int) -> tuple[Poly, Poly]:
    """Both sides under the convention A_n(t) -> A_n(t)/t, so A_1 = 1."""
    a = Poly(eulerian_recurrence(n).poly.coeffs[1:]) if n else Poly([1])
    return a.subs_t_power(m), geometric_poly(m) ** (n + 1) * a * Fraction(1, m ** (n + 1))


def diff_from(a: Poly, n: int, m: int, scale: int) -> dict:
    one_minus_tm = Poly([1] + [0] * (m - 1) + [-1])
    value = (RatFunc(a.subs_t_power(m) * scale, one_minus_tm ** (n + 1))
             - RatFunc(a, Poly([1, -1]) ** (n + 1)))
    return cli.ratfunc_json(value)


def test_eulerian_numbers_count_descents():
    for n in range(7):
        counts = [0] * (n + 1)
        for sigma in permutations(range(n)):
            counts[sum(sigma[i] > sigma[i + 1] for i in range(n - 1)) + (n > 0)] += 1
        assert checks.eulerian(n) == checks.trim(counts)
    assert checks.eulerian(1) == [0, 1]  # A_1 = t, not 1


def test_real_outputs_pass():
    text = run_cli("verify", "--n-max", "4", "--m-max", "4", "--format", "json")
    assert checks.check_verify_json(grid(4, 4), text) == []
    assert checks.check_verify_plain([(7, 5)], run_cli("verify", "--n", "7", "--m", "5")) == []
    for n, m in [(0, 1), (1, 2), (3, 3), (4, 2)]:
        text = run_cli("trace", "--n", str(n), "--m", str(m), "--format", "json")
        assert checks.check_trace_json(n, m, text) == []


def test_unscaled_right_side_is_rejected():
    n, m = 1, 2
    rep = report_from_sides(n, m, *unscaled_sides(eulerian_recurrence(n).poly, n, m))
    assert checks.check_verify_json([(n, m)], json.dumps([cli.report_json(rep)]))
    plain = f"n={n} m={m} holds={str(rep.holds).lower()} remainder={rep.remainder}\n"
    assert checks.check_verify_plain([(n, m)], plain)
    trace = trace_json(n, m)
    trace["diff"] = diff_from(eulerian_recurrence(n).poly, n, m, scale=1)
    assert checks.check_trace_json(n, m, json.dumps(trace))


@pytest.mark.parametrize("field", ["lhs", "rhs", "remainder", "cofactor"])
def test_perturbed_verify_coefficient_is_rejected(field):
    entries = verify_json(3, 3)
    target = entries[-1]
    coeffs = target[field] or ["0"]
    coeffs[-1] = str(Fraction(coeffs[-1]) + 1)
    target[field] = coeffs
    assert checks.check_verify_json(grid(3, 3), json.dumps(entries))


@pytest.mark.parametrize("where", ["diff", "per_j", "den_at_one"])
def test_perturbed_trace_coefficient_is_rejected(where):
    n, m = 3, 3
    rep = trace_json(n, m)
    if where == "diff":
        num = rep["diff"]["num"]
    elif where == "per_j":
        num = rep["per_j"][1]["value"]["num"]
    else:
        rep["den_at_one"] = str(Fraction(rep["den_at_one"]) + 1)
        num = None
    if num is not None:
        num[0] = str(Fraction(num[0]) + 1)
    assert checks.check_trace_json(n, m, json.dumps(rep))


def test_plain_verdict_must_match():
    assert checks.check_verify_plain([(7, 5)], "n=7 m=5 holds=false remainder=t\n")
    assert checks.check_verify_plain([(7, 5)], "n=7 m=5 holds=true remainder=t\n")
    assert checks.check_verify_plain([(7, 5)], "n=5 m=7 holds=true remainder=0\n")


def test_a1_equals_one_convention_is_rejected():
    reps = [report_from_sides(n, m, *a1_is_one_sides(n, m)) for n, m in grid(3, 3)]
    assert not all(rep.holds for rep in reps)
    assert checks.check_verify_json(grid(3, 3), json.dumps([cli.report_json(r) for r in reps]))
    n, m = 3, 2
    trace = trace_json(n, m)
    trace["diff"] = diff_from(Poly(eulerian_recurrence(n).poly.coeffs[1:]), n, m,
                              scale=m ** (n + 1))
    assert checks.check_trace_json(n, m, json.dumps(trace))
