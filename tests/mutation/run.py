"""Source mutants that the tests must catch: python3 tests/mutation/run.py

Each mutant is (file under src/, exact old text, new text, tests), where the
tests are test files or pytest node ids. The script copies src/ to a
temporary directory; for each mutant it replaces the old text and runs the
tests against the copy with pytest -x, and the run must fail. The
unmutated copy must pass every mutant's tests first. An old text that does
not occur exactly once is an error, so a refactor that removes the mutated
code fails here rather than leaving a mutant that tests nothing.
The last line reads "N of M mutants caught in S s", S the whole run's
wall time. Exits 0 when every mutant is caught, 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = "eulercong/__init__.py"
TRACE = "eulercong/prooftrace.py"
CLI = "eulercong/cli.py"
KERNELS = "eulercong/_intpoly.py"
CONGRUENCE = "eulercong/congruence.py"
EULERIAN = "eulercong/eulerian.py"
POLY = "eulercong/poly.py"
RATFUNC = "eulercong/ratfunc.py"
SERIES = "eulercong/series.py"

MUTANTS = [
    # The package module loads a submodule on import.
    (PACKAGE, '__version__ = "0.1.0"', 'from . import prooftrace\n\n__version__ = "0.1.0"',
     ("tests/test_imports.py::test_import_package_loads_no_submodule",)),
    # The divisor exponent is never None.
    (TRACE, "exponent = None if divmod_exact(times_geometric([1], m, k), den)[1] else k",
     "exponent = k", ("tests/test_prooftrace.py::test_divisor_exponent_is_checked_by_division",)),
    # The divisor exponent is fixed at n+1.
    (TRACE, "k = max(exps, default=0)", "k = n + 1",
     ("tests/test_prooftrace.py::test_ratio_coeff_j_zero",
      "tests/test_prooftrace.py::test_full_trace_n1_m2")),
    # The ratio-form check is switched off.
    (TRACE, "if times_binomial(acc, 1, n + 1) != direct:", "if False:",
     ("tests/test_cli.py::test_ratio_forms_disagreeing_exits_3",)),
    # den_nonzero_at_one is always true.
    (TRACE, '"den_nonzero_at_one": sum(diff[1]) != 0,', '"den_nonzero_at_one": True,',
     ("tests/test_prooftrace.py::test_failed_check_is_named",)),
    # The telescoping check drops the j = 0 term.
    (TRACE, "[(1, term.ratio) for term in per_j]", "[(1, term.ratio) for term in per_j[1:]]",
     ("tests/test_prooftrace.py::test_telescoping_sums_terms_over_their_own_denominators",)),
    # _reduce skips Phi_1 when it reduces over t^m - 1.
    (TRACE, "phis, n + 1)[:2]", "phis[1:], n + 1)[:2]",
     ("tests/test_prooftrace.py::test_diff_rational_n1_m2",
      "tests/test_prooftrace.py::test_full_trace_n3_m3")),
    # full_trace hands the series step the kernel's coefficient n - 1, not n.
    (TRACE, "_series(n, m, w[n], phis)", "_series(n, m, w[n - 1], phis)",
     ("tests/test_prooftrace.py::test_report_views_read_their_own_pairs",
      "tests/test_prooftrace.py::test_full_trace_n3_m3")),
    # M1: the telescoping check drops its monic guard.
    (TRACE, "if rem or den[-1] != 1:", "if rem:",
     ("tests/test_prooftrace.py::test_failed_check_is_named",)),
    # A report's diff_value is built from its series pair.
    (TRACE, "diff_value = property(lambda rep: ratfunc_view(rep.diff))",
     "diff_value = property(lambda rep: ratfunc_view(rep.series))",
     ("tests/test_prooftrace.py::test_report_views_read_their_own_pairs",)),
    # A report's series_value is built from its diff pair.
    (TRACE, "series_value = property(lambda rep: ratfunc_view(rep.series))",
     "series_value = property(lambda rep: ratfunc_view(rep.diff))",
     ("tests/test_prooftrace.py::test_report_views_read_their_own_pairs",)),
    # den_at_one is the numerator's value at t = 1.
    (TRACE, "lambda rep: sum(rep.diff[1])", "lambda rep: sum(rep.diff[0])",
     ("tests/test_prooftrace.py::test_full_trace_n1_m2", "tests/test_cli.py::test_trace_json")),
    # _reduce leaves one power of each Phi uncancelled.
    (TRACE, "        k = e\n", "        k = e - 1\n",
     ("tests/test_prooftrace.py::test_reduced_difference_is_verify_cofactor_over_g_power",)),
    # A RatioTerm's value drops its denominator.
    (TRACE, "value = property(lambda term: ratfunc_view(term.ratio))",
     "value = property(lambda term: ratfunc_view((term.ratio[0], [1])))",
     ("tests/test_prooftrace.py::test_full_trace_n1_m2",)),
    # M11: the exponent is confirmed by dividing G_m^(n+1), not G_m^k.
    (TRACE, "divmod_exact(times_geometric([1], m, k), den)", "divmod_exact(top, den)",
     ("tests/test_prooftrace.py::test_divisor_exponent_is_confirmed_by_its_own_power",)),
    # The pool is not capped by the CPUs.
    (CLI, "workers = min(args.parallel, len(ns), os.cpu_count() or 1)",
     "workers = min(args.parallel, len(ns))",
     ("tests/test_cli.py::test_parallel_workers_bounded",)),
    # A pool task is a grid column, not a grid row.
    (CLI, "chunksize=len(ms)", "chunksize=len(ns)",
     ("tests/test_cli.py::test_parallel_workers_bounded",)),
    # The package's own usage errors print the top-level usage.
    (CLI, "p.set_defaults(run=run, parser=p)", "p.set_defaults(run=run, parser=parser)",
     ("tests/test_cli.py::test_subcommand_usage_keeps_option_order",)),
    # A single pair verifies the whole grid up to it.
    (CLI, "return range(args.n, args.n + 1), range(args.m, args.m + 1)",
     "return range(args.n + 1), range(1, args.m + 1)",
     ("tests/test_cli.py::test_verify_single_plain",)),
    # __exit__ kills no worker; it still waits for each.
    (CLI, "os.kill(pid, 9)  # SIGKILL", "pass",
     ("tests/test_cli.py::test_worker_still_running_when_another_dies_is_killed",)),
    # A worker keeps SIGINT.
    (CLI, "signal.signal(signal.SIGINT, signal.SIG_IGN)", "signal.getsignal(signal.SIGINT)",
     ("tests/test_cli.py::test_pool_workers_ignore_sigint",)),
    # The parent forks a worker for its own share too.
    (CLI, "for share in shares[1:]:", "for share in shares:",
     ("tests/test_cli.py::test_parallel_w_forks_w_minus_one_workers",)),
    # The parent's own results leave the walk.
    (CLI, "per_worker = [iter(own)] + [", "per_worker = [",
     ("tests/test_cli.py::test_real_pool_output_is_serial_bytes[plain]",
      "tests/test_cli.py::test_parallel_w_forks_w_minus_one_workers")),
    # Ctrl-C during the parent's own share becomes a failed pair.
    (CLI, "except Exception as exc:  # not KeyboardInterrupt",
     "except BaseException as exc:  # not KeyboardInterrupt",
     ("tests/test_cli.py::test_interrupt_in_the_parents_own_share_exits_130",
      "tests/test_cli.py::test_sigint_to_parallel_verify_exits_130_and_leaves_no_process")),
    # The CLI refuses brute force at its cap, n = 9.
    (CLI, "args.n > eulerian.BRUTEFORCE_CAP", "args.n >= eulerian.BRUTEFORCE_CAP",
     ("tests/test_cli.py::test_bruteforce_runs_at_its_cap",)),
    # A plain trace value over 1 is printed as a fraction.
    (CLI, 'else num if den == "1" else f"({num})/({den})")', 'else f"({num})/({den})")',
     ("tests/test_golden.py::test_golden_output",)),
    # The whole output is joined at once.
    (CLI, "if size >= 1 << 18 or i == len(texts):", "if i == len(texts):",
     ("tests/test_cli.py::test_verify_holds_its_output_about_once[serial]",)),
    # A row below the last one built is read from the last one, not rebuilt.
    (KERNELS, "_ROW if _ROW[0] <= n else (0, (1,))", "_ROW",
     ("tests/test_eulerian.py::test_row_cache_keeps_the_last_row_alone",)),
    # The binomial re-expansion drops its sign.
    (KERNELS, "(-1) ** (i - j) * comb(i, j)", "comb(i, j)",
     ("tests/test_intpoly.py::test_shifted_basis_reconstructs",
      "tests/test_intpoly.py::test_remainder_taylor_shift")),
    # divide_by_shift divides by t - 1 one time too few.
    (KERNELS, "for _ in range(k):\n        sums", "for _ in range(k - 1):\n        sums",
     ("tests/test_prooftrace.py::test_reduced_difference_is_verify_cofactor_over_g_power",)),
    # The synthetic-division quotient comes out reversed.
    (KERNELS, "cs = sums[-2::-1]", "cs = sums[:-1]",
     ("tests/test_intpoly.py::test_remainder_exact_multiple",
      "tests/test_congruence.py::test_verify_n1_m2_certificate")),
    # The recurrence coefficient k + 2 - i is one too small.
    (KERNELS, "(k + 2 - i) * a[i]", "(k + 1 - i) * a[i]",
     ("tests/test_eulerian.py::test_recurrence_known_values",)),
    # The running sum of times_geometric spans m + 1 coefficients.
    (KERNELS, "pad = [0] * (m - 1)", "pad = [0] * m",
     ("tests/test_congruence.py::test_sides_n1_m2",
      "tests/test_intpoly.py::test_times_geometric_is_a_power_of_g")),
    # times_binomial multiplies by t^e + 1.
    (KERNELS, "p = add([0] * e + p, p, -1)", "p = add([0] * e + p, p, 1)",
     ("tests/test_eulerian.py::test_gf_known_values",
      "tests/test_intpoly.py::test_times_binomial_is_a_power_of_t_e_minus_one")),
    # times_binomial caps the power at 2.
    (KERNELS, "for _ in range(k):\n        p = add(",
     "for _ in range(min(k, 2)):\n        p = add(",
     ("tests/test_prooftrace.py::test_denominator_divides_geometric_power",
      "tests/test_intpoly.py::test_times_binomial_is_a_power_of_t_e_minus_one")),
    # The RatFunc view of a pair swaps numerator and denominator.
    (KERNELS, "RatFunc._from_reduced(poly_view(pair[0]), poly_view(pair[1]))",
     "RatFunc._from_reduced(poly_view(pair[1]), poly_view(pair[0]))",
     ("tests/test_prooftrace.py::test_diff_rational_n1_m2",)),
    # The Poly view of numerators over a denominator drops the denominator.
    (KERNELS, "return _over(nums, den)", "return _over(nums)",
     ("tests/test_congruence.py::test_sides_n1_m2",
      "tests/test_congruence.py::test_verify_n1_m2_certificate")),
    # The left side is scaled by m^n, not m^(n+1).
    (KERNELS, "scale = m ** (n + 1)", "scale = m ** n",
     ("tests/test_congruence.py::test_sides_n0_m3",
      "tests/test_congruence.py::test_verify_n1_m2_certificate")),
    # The right side takes G_m^n, not G_m^(n+1).
    (KERNELS, "times_geometric(list(a), m, n + 1)", "times_geometric(list(a), m, n)",
     ("tests/test_congruence.py::test_sides_n1_m2",
      "tests/test_congruence.py::test_sides_n0_m3")),
    # The domain check lets n = -1 through.
    (KERNELS, "if n < 0:", "if n < -1:",
     ("tests/test_eulerian.py::test_negative_n_rejected",
      "tests/test_prooftrace.py::test_proof_steps_reject_bad_n_m[full_trace--1-2]")),
    # The domain check lets m = 0 through.
    (KERNELS, "if m < 1:", "if m < 0:",
     ("tests/test_prooftrace.py::test_proof_steps_reject_bad_n_m[series_difference_coeff-0-0]",
      "tests/test_prooftrace.py::test_proof_steps_reject_bad_n_m[verify_congruence-0-0]")),
    # report_from_sides certifies any two sides, whatever n and m.
    (CONGRUENCE, "    check_nm(n, m)\n", "",
     ("tests/test_congruence.py::test_report_from_sides_refuses_n_below_zero",
      "tests/test_prooftrace.py::test_proof_steps_reject_bad_n_m[report_from_fixed_sides-0-0]")),
    # verify reduces modulo (t-1)^n, not (t-1)^(n+1).
    (CONGRUENCE, "divide_by_shift(difference, n + 1)", "divide_by_shift(difference, n)",
     ("tests/test_congruence.py::test_verify_n1_m2_certificate",
      "tests/test_congruence.py::test_negative_control_unscaled_rhs")),
    # Every certificate holds, whatever its remainder.
    (CONGRUENCE, "not taylor", "True",
     ("tests/test_congruence.py::test_negative_control_unscaled_rhs",
      "tests/test_congruence.py::test_report_from_sides_matches_fraction_oracle")),
    # Brute force gives A_0 = t, not 1.
    (EULERIAN, "return EulerianPoly(0, (1,))", "return EulerianPoly(0, (0, 1))",
     ("tests/test_eulerian.py::test_bruteforce_known_values",
      "tests/test_eulerian.py::test_coeffs_is_the_trimmed_integer_row")),
    # An EulerianPoly's Poly view reads its row backwards.
    (EULERIAN, "poly_view(ep.coeffs)", "poly_view(ep.coeffs[::-1])",
     ("tests/test_eulerian.py::test_recurrence_known_values",
      "tests/test_eulerian.py::test_coeffs_is_the_trimmed_integer_row")),
    # worpitzky_row takes one running sum too few.
    (EULERIAN, "for _ in range(n + 1):", "for _ in range(n):",
     ("tests/test_eulerian.py::test_worpitzky_examples",)),
    # worpitzky_row truncates A_n one coefficient short.
    (EULERIAN, "row = eulerian_row(n)[:K + 1]", "row = eulerian_row(n)[:K]",
     ("tests/test_eulerian.py::test_worpitzky_power_row",)),
    # Poly equality ignores the denominator.
    (POLY, "return self.num == other.num and self.den == other.den",
     "return self.num == other.num", ("tests/test_poly.py::test_equality_compares_denominators",)),
    # RatFunc equality ignores the denominator.
    (RATFUNC, "return self.num == o.num and self.den == o.den", "return self.num == o.num",
     ("tests/test_ratfunc.py::test_equality_compares_denominators",)),
    # Series equality compares only the orders.
    (SERIES, "return self.coeffs == other.coeffs",
     "return len(self.coeffs) == len(other.coeffs)",
     ("tests/test_series.py::test_equality_compares_coefficients",)),
]


def python(src: Path, *args: str, **kwargs) -> subprocess.CompletedProcess:
    # No bytecode: a mutant and its restored file can share a size and an mtime.
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, **kwargs)


def pytest(src: Path, tests) -> int:
    return python(src, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests,
                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        probe = python(src, "-c", "import eulercong; print(eulercong.__file__)",
                       capture_output=True, text=True, check=True).stdout
        if not probe.startswith(str(src)):
            print(f"eulercong imports from {probe.strip()}, not from the copy", file=sys.stderr)
            return 1
        all_tests = sorted({t for *_, tests in MUTANTS for t in tests})
        if pytest(src, all_tests):
            print(f"the unmutated copy fails {' '.join(all_tests)}", file=sys.stderr)
            return 1
        missed = 0
        for path, old, new, tests in MUTANTS:
            text = (ROOT / "src" / path).read_text()
            count = text.count(old)
            if count != 1:
                verdict = f"ERROR: old text occurs {count} times"
            else:
                (src / path).write_text(text.replace(old, new))
                code = pytest(src, tests)
                (src / path).write_text(text)
                verdict = ("caught" if code == 1 else "SURVIVED" if code == 0
                           else f"ERROR: pytest exit {code}")
            missed += verdict != "caught"
            print(f"{verdict}: {path}: {old!r} -> {new!r}", flush=True)
        print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught"
              f" in {time.monotonic() - start:.0f} s")
        return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
