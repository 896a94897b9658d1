"""Source mutants that the tests must catch: python3 tests/mutation/run.py

Each mutant is (file under src/, exact old text, new text, test files). For
each one the script copies src/ to a temporary directory, replaces the old
text, and runs the test files against the copy with pytest -x; the run must
fail. The unmutated copy must pass the same files first. An old text that
does not occur exactly once is an error, so a refactor that removes the
mutated code fails here rather than leaving a mutant that tests nothing.
Exits 0 when every mutant is caught, 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TRACE = "eulercong/prooftrace.py"
TRACE_TESTS = ("tests/test_prooftrace.py",)

MUTANTS = [
    # The divisor exponent is never None.
    (TRACE, "exponent = None if divmod_exact(times_geometric([1], m, k), den)[1] else k",
     "exponent = k", TRACE_TESTS),
    # The divisor exponent is fixed at n+1.
    (TRACE, "k = max(exps, default=0)", "k = n + 1", TRACE_TESTS),
    # The ratio-form check is switched off.
    (TRACE, "if times_binomial(acc, 1, n + 1) != direct:", "if False:",
     ("tests/test_cli.py",)),
    # den_nonzero_at_one is always true.
    (TRACE, '"den_nonzero_at_one": den_at_one != 0,', '"den_nonzero_at_one": True,',
     TRACE_TESTS),
    # The telescoping check's lcm scale is 1.
    (TRACE, "scale = lcm(*(value.num.den for _, value in terms))", "scale = 1", TRACE_TESTS),
    # _reduce skips Phi_1 when it reduces over t^m - 1.
    (TRACE, "cyclotomic(m), n + 1)", "cyclotomic(m)[1:], n + 1)", TRACE_TESTS),
    # M1: the telescoping check drops its monic-integer guard.
    (TRACE, "if rem or value.den.den != 1 or value.den.num[-1] != 1:", "if rem:",
     TRACE_TESTS),
    # M11: the exponent is confirmed by dividing G_m^(n+1), not G_m^k.
    (TRACE, "divmod_exact(times_geometric([1], m, k), den)", "divmod_exact(top, den)",
     TRACE_TESTS),
]


def python(src: Path, *args: str, **kwargs) -> subprocess.CompletedProcess:
    # No bytecode: a mutant and its restored file can share a size and an mtime.
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, **kwargs)


def pytest(src: Path, tests) -> int:
    return python(src, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests,
                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
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
        print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught")
        return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
