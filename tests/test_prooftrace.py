from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trace_oracle
from eulercong import _intpoly, poly, prooftrace, ratfunc
from eulercong.congruence import report_from_sides, verify_congruence
from eulercong.eulerian import eulerian_bruteforce, eulerian_from_gf, eulerian_recurrence
from eulercong.poly import Poly, geometric_poly
from eulercong.prooftrace import (
    diff_rational,
    full_trace,
    ratio_coeff,
    series_difference_coeff,
)
from eulercong.ratfunc import RF_ZERO, RatFunc
from eulercong.series import constant_series, scaled_exp


def test_diff_rational_n0_m2():
    assert diff_rational(0, 2) == RatFunc(Poly([1]), Poly([1, 1]))


def test_diff_rational_n1_m2():
    assert diff_rational(1, 2) == RatFunc(Poly([0, -1]), Poly([1, 2, 1]))


@pytest.mark.parametrize("n", range(5))
def test_diff_rational_m1_vanishes(n):
    assert diff_rational(n, 1) == RF_ZERO


def test_series_difference_matches_examples():
    assert series_difference_coeff(1, 2) == RatFunc(Poly([0, -1]), Poly([1, 2, 1]))
    assert series_difference_coeff(0, 2) == RatFunc(Poly([1]), Poly([1, 1]))
    assert series_difference_coeff(0, 1) == RF_ZERO


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("m", range(1, 7))
def test_series_equals_rational_difference(n, m):
    assert series_difference_coeff(n, m) == diff_rational(n, m)


def test_ratio_coeff_j_zero():
    value, exponent = ratio_coeff(0, 3, 2)
    assert value == RF_ZERO
    assert exponent == 0


def test_ratio_coeff_j1_m2_n0():
    value, exponent = ratio_coeff(1, 2, 0)
    assert value == RatFunc(Poly([1]), Poly([1, 1]))
    assert exponent == 1


def test_ratio_coeff_j1_m2_n1():
    value, exponent = ratio_coeff(1, 2, 1)
    assert value == RatFunc(Poly([0, -1]), Poly([1, 2, 1]))
    assert exponent == 2


def test_ratio_coeff_rejects_bad_j():
    with pytest.raises(ValueError):
        ratio_coeff(2, 2, 1)


def report_from_fixed_sides(n, m):
    return report_from_sides(n, m, Poly([1, 2, 3]), Poly([5]))


def kernel_m_n(n, m):
    return _intpoly.kernel(m, n)


# The package's entry points of (n, m); each is called as step(n, m).
ENTRY_POINTS = (verify_congruence, report_from_fixed_sides, full_trace, diff_rational,
                series_difference_coeff, lambda n, m: ratio_coeff(0, m, n), kernel_m_n,
                _intpoly.integer_sides)


# One domain for every entry point, refused by `_intpoly.check_nm`: n < 0 first, then
# m < 1, each with its exact message. The Eulerian constructions take n alone (m None).
@pytest.mark.parametrize("step,n,m", [
    *[(step, n, m) for step in ENTRY_POINTS for n, m in [(-1, 2), (0, 0), (-1, 0)]],
    (diff_rational, 2, 0),
    *[(step, -1, None) for step in (eulerian_recurrence, eulerian_bruteforce, eulerian_from_gf)],
])
def test_proof_steps_reject_bad_n_m(step, n, m):
    message = "n must be nonnegative" if n < 0 else "m must be >= 1"
    with pytest.raises(ValueError, match=f"^{message}$"):
        step(n) if m is None else step(n, m)


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("m", range(1, 7))
def test_denominator_divides_geometric_power(n, m):
    for j in range(m):
        value, exponent = ratio_coeff(j, m, n)
        assert exponent is not None
        if m > 1:
            _, rem = divmod(geometric_poly(m) ** (n + 1), value.den)
            assert rem.is_zero


def test_full_trace_n1_m2():
    rep = full_trace(1, 2)
    assert rep.all_checks
    assert rep.den_at_one == 4
    assert [(t.j, t.value, t.divisor_exponent) for t in rep.per_j] == [
        (0, RF_ZERO, 0),
        (1, RatFunc(Poly([0, -1]), Poly([1, 2, 1])), 2),
    ]
    assert rep.diff_value == RatFunc(Poly([0, -1]), Poly([1, 2, 1]))


def test_full_trace_trivial():
    rep = full_trace(0, 1)
    assert rep.all_checks
    assert rep.diff_value == RF_ZERO


def test_full_trace_n3_m3():
    assert full_trace(3, 3).all_checks


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("m", range(1, 7))
def test_telescoping_sum(n, m):
    rep = full_trace(n, m)
    total = RF_ZERO
    for term in rep.per_j:
        total = total + term.value
    assert total == rep.series_value
    assert rep.all_checks


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("m", range(1, 5))
def test_substitution_consistency(n, m):
    # m^(n+1) A_n(t^m)/(1-t^m)^(n+1) equals the EGF coefficient n of
    # m/(1 - t^m e^(mx)).
    a = eulerian_recurrence(n).poly
    direct = RatFunc(
        a.subs_t_power(m) * (m ** (n + 1)),
        (Poly([1]) - Poly([0] * m + [1])) ** (n + 1),
    )
    one = constant_series(RatFunc(Poly([1])), n)
    m_const = constant_series(RatFunc(Poly([m])), n)
    tm = RatFunc(Poly([0] * m + [1]))
    kernel = m_const / (one - scaled_exp(tm, m, n))
    assert kernel.egf_coeff(n) == direct


# -- the exact denominator: the trace's difference is verify's cofactor ------


def _cofactor_over_g_power(n, m):
    """(-1)^(n+1) cofactor / G_m^(n+1), with verify's integer cofactor D/(t-1)^(n+1).

    At m = 1 this is ([], [1]): D is zero and G_1 = 1.
    """
    sign = (-1) ** (n + 1)
    return ([sign * c for c in verify_congruence(n, m).cofactor_num],
            _intpoly.times_geometric([1], m, n + 1))


def test_reduced_difference_is_verify_cofactor_over_g_power():
    # The trace reduces by trial division by each Phi_d and verify divides by
    # t - 1 synthetically; the two share only integer_sides.
    wrong = [(n, m) for n in range(21) for m in range(1, 13)
             if prooftrace._diff(n, m, _intpoly.cyclotomic(m)) != _cofactor_over_g_power(n, m)]
    assert wrong == []


@pytest.mark.parametrize("n,m", [(0, 1), (5, 1), (0, 2), (1, 2), (6, 4), (5, 7), (9, 6)])
def test_full_trace_difference_is_exactly_over_g_power(n, m):
    rep = full_trace(n, m)
    assert rep.diff == _cofactor_over_g_power(n, m)
    assert rep.den_at_one == m ** (n + 1)


# -- the integer trace against the RatFunc/TruncatedSeries reference ---------


def _fields(rep) -> dict:
    return {
        "diff_value": (rep.diff_value.num, rep.diff_value.den),
        "series_value": (rep.series_value.num, rep.series_value.den),
        "per_j": [(t.j, t.value.num, t.value.den, t.divisor_exponent) for t in rep.per_j],
        "den_at_one": rep.den_at_one,
    }


def _assert_matches_oracle(n, m):
    rep = full_trace(n, m)
    assert _fields(rep) == trace_oracle.trace_fields(n, m)
    assert isinstance(rep.den_at_one, int)
    assert rep.all_checks and rep.failed_checks() == []


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("m", range(1, 7))
def test_trace_matches_ratfunc_oracle(n, m):
    _assert_matches_oracle(n, m)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10), st.integers(1, 7))
def test_trace_matches_ratfunc_oracle_random(n, m):
    _assert_matches_oracle(n, m)


# m = 12 has six cyclotomic factors; the grids above reach at most four.
@pytest.mark.parametrize("n", range(6))
def test_trace_matches_ratfunc_oracle_m12(n):
    _assert_matches_oracle(n, 12)


def test_full_trace_runs_no_gcd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generic reduction called under full_trace")

    monkeypatch.setattr(poly, "poly_gcd", refuse)
    monkeypatch.setattr(ratfunc, "poly_gcd", refuse)
    monkeypatch.setattr(ratfunc.RatFunc, "__init__", refuse)
    assert full_trace(8, 6).all_checks


def _a1_equals_one(real):
    return lambda n: real(n)[1:] if n else real(n)


def _perturb_ratio(real, make_term):
    def patched(j, *shared):
        pair, exponent = real(j, *shared)
        return make_term(pair, exponent) if j == 1 else (pair, exponent)
    return patched


@pytest.mark.parametrize("patch,failed", [
    # A_n under the A_1 = 1 convention: the difference no longer vanishes
    # to order n+1 at t = 1 and stops matching the series.
    (lambda mp: mp.setattr(_intpoly, "eulerian_row", _a1_equals_one(_intpoly.eulerian_row)),
     ["diff_equals_series", "den_nonzero_at_one"]),
    (lambda mp: mp.setattr(prooftrace, "_ratio", _perturb_ratio(
        prooftrace._ratio, lambda v, k: (([2 * c for c in v[0]], v[1]), k))), ["telescopes"]),
    (lambda mp: mp.setattr(prooftrace, "_ratio", _perturb_ratio(
        prooftrace._ratio, lambda v, k: (v, None))), ["divisors_bounded"]),
    # A stray factor t - 1 in the j = 1 denominator: G_m^(n+1) is no longer
    # a common denominator of the terms, so they cannot telescope.
    (lambda mp: mp.setattr(prooftrace, "_ratio", _perturb_ratio(
        prooftrace._ratio, lambda v, k: ((v[0], _intpoly.times_binomial(v[1], 1)), k))),
     ["telescopes"]),
    # The j = 1 pair negated top and bottom: the same value, and its
    # denominator still divides G_m^(n+1) exactly, but it is not monic.
    (lambda mp: mp.setattr(prooftrace, "_ratio", _perturb_ratio(
        prooftrace._ratio, lambda v, k: (([-c for c in v[0]], [-c for c in v[1]]), k))),
     ["telescopes"]),
])
def test_failed_check_is_named(monkeypatch, patch, failed):
    patch(monkeypatch)
    rep = full_trace(3, 2)
    assert not rep.all_checks
    assert rep.failed_checks() == failed


def test_telescoping_sums_terms_over_their_own_denominators(monkeypatch):
    # A unit moved from the j = 1 term to the j = 0 term leaves their sum as
    # it was, but puts the j = 0 term over 1, not over a divisor shared with
    # the others: the check must scale each numerator by its own cofactor.
    real = prooftrace._ratio

    def shifted(j, *shared):
        (num, den), exponent = real(j, *shared)
        if j == 0:
            num, den = [-1], [1]
        elif j == 1:
            num = _intpoly.add(num, den)
        return (num, den), exponent

    monkeypatch.setattr(prooftrace, "_ratio", shifted)
    assert full_trace(3, 2).failed_checks() == []


def test_report_views_read_their_own_pairs(monkeypatch):
    # Under the A_1 = 1 convention the difference and the series value
    # differ, so each view must be built from its own pair.
    monkeypatch.setattr(_intpoly, "eulerian_row", _a1_equals_one(_intpoly.eulerian_row))
    n, m = 3, 2
    rep = full_trace(n, m)
    assert rep.diff_value == diff_rational(n, m) != rep.series_value
    assert rep.series_value == series_difference_coeff(n, m)
    assert rep.den_at_one == Fraction(sum(rep.diff[1])) == diff_rational(n, m).den_value_at(1)
    assert [term.value for term in rep.per_j] == [ratio_coeff(j, m, n)[0] for j in range(m)]


def test_divisor_exponent_is_checked_by_division(monkeypatch):
    # A denominator with a stray factor t - 1 divides no power of G_m; the
    # exponent must come from the division, not from the Phi_d exponents.
    real = prooftrace._reduce

    def stray_factor(num, den, phis, e):
        num, den, exps = real(num, den, phis, e)
        return num, _intpoly.times_binomial(den, 1), exps

    monkeypatch.setattr(prooftrace, "_reduce", stray_factor)
    assert ratio_coeff(1, 3, 2)[1] is None


def test_divisor_exponent_is_confirmed_by_its_own_power(monkeypatch):
    # One short on the last Phi_d, the j = 1 exponent k leaves G_m^k not
    # divisible by the denominator. Dividing G_m^(n+1), which every reported
    # denominator divides, would confirm it anyway.
    real = prooftrace._reduce

    def one_short(num, den, phis, e):
        num, den, exps = real(num, den, phis, e)
        if exps[-1] > 0:
            exps[-1] -= 1
        return num, den, exps

    monkeypatch.setattr(prooftrace, "_reduce", one_short)
    rep = full_trace(3, 2)
    assert [term.divisor_exponent for term in rep.per_j] == [0, None]
    assert rep.failed_checks() == ["divisors_bounded"]


@pytest.mark.parametrize("n,m", [(5, 4), (2, 6)])
def test_trace_builds_shared_polynomials_once(monkeypatch, n, m):
    # Each full_trace builds kernel(m, n), the Phi_d and the 1/S_m inverse once
    # and hands them to its steps; a public view builds only what it needs.
    calls = {name: [] for name in ("cyclotomic", "egf_quotient", "kernel")}

    def recording(name, real):
        def wrapper(*args):
            calls[name].append(args if name != "egf_quotient" else "1/S_m")
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(prooftrace, name, recording(name, getattr(prooftrace, name)))
    for _ in range(2):
        full_trace(n, m)
        assert calls == {"cyclotomic": [(m,)], "egf_quotient": ["1/S_m"],
                         "kernel": [(m, n), (1, n)]}
        calls.update({name: [] for name in calls})
    # The series step alone pays for no dense 1/S_m inverse.
    series_difference_coeff(n, m)
    assert calls == {"cyclotomic": [(m,)], "egf_quotient": [], "kernel": [(m, n), (1, n)]}
    calls.update({name: [] for name in calls})
    # ratio_coeff alone builds every numerator, for its one j.
    ratio_coeff(m - 1, m, n)
    assert calls == {"cyclotomic": [(m,)], "egf_quotient": ["1/S_m"], "kernel": [(m, n)]}


def test_trace_keeps_nothing_between_calls(monkeypatch):
    # A kernel perturbed after a first trace of the same (n, m) must reach the
    # second trace's direct form of the ratios, so the two forms disagree: an
    # arithmetic invariant broke. A numerator kept from the first trace would
    # hide it and blame the proof checks instead.
    full_trace(3, 3)
    real = prooftrace.kernel

    def perturbed(c, n):
        w = real(c, n)
        return w[:-1] + [[w[-1][0] + 1, *w[-1][1:]]]

    monkeypatch.setattr(prooftrace, "kernel", perturbed)
    with pytest.raises(ArithmeticError, match="ratio forms disagree"):
        full_trace(3, 3)
