import atexit
import gc
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from eulercong import _intpoly, cli, congruence, eulerian, prooftrace
from eulercong.cli import dump_json, main

REPORT_KEYS = ["n", "m", "holds", "lhs", "rhs", "remainder", "cofactor"]


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse validation path
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_eulerian_plain(capsys):
    code, out, _ = run(capsys, "eulerian", "--n", "3")
    assert code == 0
    assert out.strip() == "t + 4*t^2 + t^3"


@pytest.mark.parametrize("method", ["recurrence", "bruteforce", "gf"])
def test_eulerian_methods_agree(capsys, method):
    code, out, _ = run(capsys, "eulerian", "--n", "5", "--method", method)
    assert code == 0
    assert out.strip() == "t + 26*t^2 + 66*t^3 + 26*t^4 + t^5"
    # In every format the bytes are the recurrence's, but for the method
    # that the JSON names.
    for fmt in ("plain", "latex", "json"):
        expected = run(capsys, "eulerian", "--n", "5", "--format", fmt)
        assert run(capsys, "eulerian", "--n", "5", "--method", method, "--format", fmt) == (
            0, expected[1].replace('"recurrence"', f'"{method}"'), "")


def test_eulerian_json(capsys):
    code, out, _ = run(capsys, "eulerian", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 2, "method": "recurrence", "coeffs": ["0", "1", "1"]}


def test_eulerian_latex(capsys):
    code, out, _ = run(capsys, "eulerian", "--n", "3", "--format", "latex")
    assert code == 0
    assert out.strip() == "A_{3}(t) = t + 4t^{2} + t^{3}"


def test_verify_single_plain(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--m", "2")
    assert code == 0
    assert out.strip() == "n=1 m=2 holds=true remainder=0"


def test_verify_grid_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "10", "--m-max", "8",
                       "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 88
    for rep in reports:
        assert list(rep) == REPORT_KEYS
        assert rep["holds"] is True
        assert isinstance(rep["n"], int) and isinstance(rep["m"], int)
        for key in ("lhs", "rhs", "remainder", "cofactor"):
            assert all(isinstance(c, str) for c in rep[key])
    pairs = [(r["n"], r["m"]) for r in reports]
    assert pairs == sorted(pairs)


def test_verify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "3", "--m-max", "3",
                       "--format", "json")
    assert code == 0
    text = out.rstrip("\n")
    assert dump_json(json.loads(text)) == text


def test_verify_parallel_deterministic(capsys):
    code, seq, _ = run(capsys, "verify", "--n-max", "4", "--m-max", "4",
                       "--format", "json")
    assert code == 0
    code, par, _ = run(capsys, "verify", "--n-max", "4", "--m-max", "4",
                       "--format", "json", "--parallel", "4")
    assert code == 0
    assert seq == par


@pytest.mark.parametrize("fmt", ["plain", "latex", "json"])
@pytest.mark.parametrize("pairs", [["--n", "3", "--m", "2"],
                                   ["--n-max", "2", "--m-max", "3"]])
def test_verify_builds_no_poly(capsys, monkeypatch, fmt, pairs):
    # Every format renders the integer certificate without a Poly, built
    # from coefficients or from numerators over a denominator.
    argv = ["verify", *pairs, "--format", fmt]
    expected = run(capsys, *argv)

    def no_poly(*args):
        raise AssertionError("verify built a Poly")

    monkeypatch.setattr("eulercong.poly.Poly.__init__", no_poly)
    monkeypatch.setattr("eulercong.poly._over", no_poly)
    assert run(capsys, *argv) == expected
    assert expected[0] == 0


def test_verify_invalid_m_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--n", "1", "--m", "0")
    assert code == 2
    assert "usage" in err


def test_verify_requires_range_or_pair(capsys):
    code, _, _ = run(capsys, "verify", "--n", "1")
    assert code == 2
    code, _, err = run(capsys, "verify", "--n-max", "3")
    assert code == 2
    assert "verify needs both --n-max and --m-max" in err
    code, _, _ = run(capsys, "verify")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--n", "1", "--m", "2", "--n-max", "3")
    assert code == 2


def test_out_of_cap_exits_2(capsys):
    code, _, _ = run(capsys, "eulerian", "--n", "65")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--n", "1", "--m", "65")
    assert code == 2
    code, _, _ = run(capsys, "eulerian", "--n", "-1")
    assert code == 2
    code, out, err = run(capsys, "eulerian", "--n", "10", "--method", "bruteforce")
    assert code == 2
    assert out == ""
    assert err.endswith("error: brute force capped at n <= 9 (got 10)\n")
    code, out, err = run(capsys, "verify", "--n-max", "2", "--m-max", "2",
                         "--parallel", "0")
    assert code == 2
    assert out == ""
    assert err.endswith("error: --parallel must be >= 1\n")


def test_bruteforce_runs_at_its_cap(capsys):
    # n = 9, the largest the CLI accepts: 9! permutations, about 0.5 s.
    code, out, err = run(capsys, "eulerian", "--n", "9", "--method", "bruteforce")
    assert (code, err) == (0, "")
    assert out == ("t + 502*t^2 + 14608*t^3 + 88234*t^4 + 156190*t^5 + 88234*t^6"
                   " + 14608*t^7 + 502*t^8 + t^9\n")


def test_eulerian_method_error_exits_3(capsys, monkeypatch):
    # Only the brute-force cap is a usage error, and it is checked before
    # the method runs; any other ValueError is an internal error.
    def fail(n):
        raise ValueError("n must be nonnegative")

    monkeypatch.setattr(eulerian, "eulerian_from_gf", fail)
    code, out, err = run(capsys, "eulerian", "--n", "5", "--method", "gf")
    assert (code, out, err) == (3, "", "eulercong: internal error: n must be nonnegative\n")
    monkeypatch.setattr(eulerian, "eulerian_bruteforce", fail)
    code, out, err = run(capsys, "eulerian", "--n", "10", "--method", "bruteforce")
    assert (code, out) == (2, "")
    assert err.startswith("usage: ")
    assert err.endswith("error: brute force capped at n <= 9 (got 10)\n")


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(capsys, "verify", "--bogus")
    assert code == 2


EULERIAN_USAGE = ("usage: eulercong eulerian [-h] --n N"
                  " [--method {bruteforce,gf,recurrence}] [--format {plain,latex,json}]")
VERIFY_USAGE = ("usage: eulercong verify [-h] [--n N] [--m M]"
                " [--n-max N_MAX] [--m-max M_MAX] [--format {plain,latex,json}] [--parallel W]")
TRACE_USAGE = "usage: eulercong trace [-h] --n N --m M [--format {plain,latex,json}]"


@pytest.mark.parametrize("argv,usage", [
    pytest.param(["eulerian"], EULERIAN_USAGE, id="eulerian-no-n"),
    pytest.param(["verify", "--format", "bad"], VERIFY_USAGE, id="verify-bad-format"),
    pytest.param(["trace", "--n", "1"], TRACE_USAGE, id="trace-no-m"),
    # The package's own usage errors are raised on the subcommand's parser too.
    pytest.param(["verify", "--n", "65", "--m", "1"], VERIFY_USAGE, id="verify-n-cap"),
    pytest.param(["verify", "--n-max", "3"], VERIFY_USAGE, id="verify-no-m-max"),
    pytest.param(["verify", "--n-max", "2", "--m-max", "2", "--parallel", "0"], VERIFY_USAGE,
                 id="verify-parallel-0"),
    pytest.param(["trace", "--n", "41", "--m", "1"], TRACE_USAGE, id="trace-n-cap"),
    pytest.param(["eulerian", "--n", "10", "--method", "bruteforce"], EULERIAN_USAGE,
                 id="eulerian-bruteforce-cap"),
])
def test_subcommand_usage_keeps_option_order(capsys, argv, usage):
    # argparse wraps the usage to the terminal width, so compare it with
    # its whitespace normalised.
    code, out, err = run(capsys, *argv)
    head, sep, _ = err.partition(f"eulercong {argv[0]}: error: ")
    assert (code, out, sep) == (2, "", f"eulercong {argv[0]}: error: ")
    assert " ".join(head.split()) == usage


def test_trace_plain(capsys):
    code, out, _ = run(capsys, "trace", "--n", "1", "--m", "2")
    assert code == 0
    assert "all_checks=true" in out
    assert "denominator at t=1: 4" in out


def test_trace_json(capsys):
    code, out, _ = run(capsys, "trace", "--n", "1", "--m", "2",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["n"] == 1 and rep["m"] == 2 and rep["holds"] is True
    assert rep["diff"] == {"num": ["0", "-1"], "den": ["1", "2", "1"]}
    assert rep["per_j"] == [
        {"j": 0, "value": {"num": [], "den": ["1"]}, "divisor_exponent": 0},
        {"j": 1, "value": {"num": ["0", "-1"], "den": ["1", "2", "1"]},
         "divisor_exponent": 2},
    ]
    assert rep["den_at_one"] == "4"


def test_trace_latex(capsys):
    code, out, _ = run(capsys, "trace", "--n", "1", "--m", "2",
                       "--format", "latex")
    assert code == 0
    assert "\\text{difference}" in out


def test_trace_failed_check_exits_1_and_names_it(capsys, monkeypatch):
    # A_n under the A_1 = 1 convention breaks the proof at n >= 1.
    real = _intpoly.eulerian_row
    monkeypatch.setattr(_intpoly, "eulerian_row", lambda n: real(n)[1:] if n else real(n))
    code, out, err = run(capsys, "trace", "--n", "3", "--m", "2")
    assert code == 1
    assert out.startswith("n=3 m=2 all_checks=false\n")
    assert err == "eulercong: trace check failed: diff_equals_series, den_nonzero_at_one\n"


@pytest.mark.parametrize("argv", [
    ["--n", str(cli.TRACE_N_CAP + 1), "--m", "1"],
    ["--n", "0", "--m", str(cli.TRACE_M_CAP + 1)],
])
def test_trace_beyond_caps_exits_2_without_computing(capsys, monkeypatch, argv):
    monkeypatch.setattr(prooftrace, "full_trace", _raise_arithmetic)  # exit 3 if reached
    code, out, err = run(capsys, "trace", *argv)
    assert code == 2
    assert out == ""
    assert "must be in [" in err


def test_trace_at_caps_accepted(capsys):
    for argv in (["--n", str(cli.TRACE_N_CAP), "--m", "1"],
                 ["--n", "0", "--m", str(cli.TRACE_M_CAP)]):
        code, _, _ = run(capsys, "trace", *argv)
        assert code == 0


def test_parallel_workers_bounded(capsys, monkeypatch):
    # A fake pool records its size and runs the grid serially: no fork.
    sizes = []
    dealt = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            dealt.append(items)
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    code, par, _ = run(capsys, "verify", "--n-max", "1", "--m-max", "3",
                       "--format", "json", "--parallel", "100000")
    assert code == 0
    assert sizes == [2]  # the grid has two rows
    assert dealt == [[(0, range(1, 4), "json"), (1, range(1, 4), "json")]]  # whole rows
    code, seq, _ = run(capsys, "verify", "--n-max", "1", "--m-max", "3",
                       "--format", "json")
    assert par == seq
    # One CPU: a one-worker pool would only add cost, so none is built.
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, one_cpu, _ = run(capsys, "verify", "--n-max", "1", "--m-max", "3",
                           "--format", "json", "--parallel", "2")
    assert code == 0
    assert sizes == [2]
    assert one_cpu == seq


def _raise_arithmetic(*args):
    raise ArithmeticError("inexact polynomial division: remainder 1")


@pytest.mark.parametrize("module,target,argv", [
    pytest.param(cli, "verify_congruence", ["verify", "--n", "1", "--m", "2"],
                 id="verify_congruence-argv0"),
    pytest.param(prooftrace, "full_trace", ["trace", "--n", "1", "--m", "2"],
                 id="full_trace-argv1"),
])
def test_internal_error_exits_3(capsys, monkeypatch, module, target, argv):
    monkeypatch.setattr(module, target, _raise_arithmetic)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "eulercong: internal error: inexact polynomial division: remainder 1\n"


def test_ratio_forms_disagreeing_exits_3(capsys, monkeypatch):
    # A kernel perturbed in its last coefficient changes the direct form of
    # the j = 1 ratio as the builder makes it, but not the geometric form: an
    # arithmetic invariant broke, not a proof check.
    real = prooftrace.kernel

    def perturbed(c, n):
        w = real(c, n)
        return w[:-1] + [[w[-1][0] + 1, *w[-1][1:]]]

    monkeypatch.setattr(prooftrace, "kernel", perturbed)
    code, out, err = run(capsys, "trace", "--n", "3", "--m", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("eulercong: internal error: ratio forms disagree")
    assert err.count("\n") == 1


def test_dead_pool_worker_exits_3(capsys, monkeypatch):
    # A fake pool whose map fails as a pool with a killed worker does: no fork.
    class DeadPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            raise RuntimeError("a worker process died")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", DeadPool)
    code, out, err = run(capsys, "verify", "--n-max", "1", "--m-max", "2",
                         "--parallel", "2")
    assert code == 3
    assert out == ""
    assert err == "eulercong: internal error: a worker process died\n"


class InlinePool:
    """A pool that runs `map` in this process, lazily, as Executor.map does."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class InterruptedPool(InlinePool):
    def map(self, fn, items):
        raise KeyboardInterrupt


def _raise_interrupt(*args):
    raise KeyboardInterrupt


@pytest.mark.parametrize("pool,argv", [
    (InterruptedPool, ["--parallel", "2"]),
    (None, []),
])
def test_interrupted_verify_exits_130(capsys, monkeypatch, pool, argv):
    if pool:
        monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    else:
        monkeypatch.setattr(cli, "verify_congruence", _raise_interrupt)
    code, out, err = run(capsys, "verify", "--n-max", "1", "--m-max", "2", *argv)
    assert code == 130
    assert out == ""
    assert err == "eulercong: interrupted\n"


def test_interrupt_during_argument_parsing_exits_130(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", _raise_interrupt)
    code, out, err = run(capsys, "verify", "--n", "1", "--m", "2")
    assert code == 130
    assert out == ""
    assert err == "eulercong: interrupted\n"


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail a test that runs the real pool for over 60 s, instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("the pool did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("argv,pool", [
    pytest.param([], InlinePool, id="argv0"),
    pytest.param(["--parallel", "2"], InlinePool, id="argv1"),
    pytest.param(["--parallel", "2"], None, id="real-pool"),
])
def test_grid_failing_part_way_writes_nothing(capsys, monkeypatch, deadline, argv, pool):
    # Pairs before (2, 1) are already rendered when it fails; none is written.
    # With the real pool, (2, 1) fails in the parent's own share, rows 0 and 2.
    verify = congruence.verify_congruence

    def fail_at_2_1(n, m):
        if (n, m) == (2, 1):
            raise ArithmeticError("inexact polynomial division: remainder 1")
        return verify(n, m)

    monkeypatch.setattr(cli, "verify_congruence", fail_at_2_1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    if pool:
        monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    code, out, err = run(capsys, "verify", "--n-max", "2", "--m-max", "3", *argv)
    assert code == 3
    assert out == ""
    assert err == "eulercong: internal error: inexact polynomial division: remainder 1\n"
    assert_no_child()


def test_worker_killed_by_signal_exits_3_and_leaves_no_child(capsys, monkeypatch, deadline):
    # The forked worker of the odd rows kills itself at its first pair,
    # while the parent still has even rows to run; the parent then reaps it.
    parent = os.getpid()
    verify = congruence.verify_congruence

    def killed_at_1_1(n, m):
        if (n, m) == (1, 1) and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return verify(n, m)

    monkeypatch.setattr(cli, "verify_congruence", killed_at_1_1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "verify", "--n-max", "20", "--m-max", "12",
                         "--parallel", "2")
    assert code == 3
    assert out == ""
    assert err == ("eulercong: internal error: a worker process died "
                   f"(killed by signal {int(signal.SIGKILL)})\n")
    assert_no_child()


def test_worker_still_running_when_another_dies_is_killed(capsys, monkeypatch, deadline):
    # The parent renders row 0 and forks a worker each for rows 1 and 2.
    # Row 1's worker kills itself while row 2's sleeps at its pair: the
    # parent kills the sleeper on the way out, rather than wait for it.
    parent, verify = os.getpid(), congruence.verify_congruence

    def killed_at_1_1_asleep_at_2_1(n, m):
        if os.getpid() != parent:
            if (n, m) == (1, 1):
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(5)
        return verify(n, m)

    real_waitpid, codes = os.waitpid, []

    def waitpid(pid, options):
        reaped = real_waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    monkeypatch.setattr(cli, "verify_congruence", killed_at_1_1_asleep_at_2_1)
    monkeypatch.setattr(os, "waitpid", waitpid)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, out, _ = run(capsys, "verify", "--n-max", "2", "--m-max", "1", "--parallel", "3")
    assert (code, out) == (3, "")
    assert codes == [-signal.SIGKILL, -signal.SIGKILL]
    assert_no_child()


def test_interrupt_while_reaping_a_worker_leaves_no_child(capsys, monkeypatch, deadline):
    # Ctrl-C lands in the parent's first waitpid, as it waits for the worker
    # of the odd rows: the worker is still the pool's, so __exit__ kills and
    # reaps it.
    real_waitpid, calls = os.waitpid, []

    def interrupted_once(pid, options):
        calls.append(pid)
        if len(calls) == 1:
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", interrupted_once)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "verify", "--n-max", "3", "--m-max", "1", "--parallel", "2")
    assert (code, out, err) == (130, "", "eulercong: interrupted\n")
    assert calls[1] == calls[0]  # __exit__ reaps the worker the first call missed
    assert_no_child()


def test_sigint_right_after_reaping_a_worker_exits_130(capsys, monkeypatch, deadline):
    # A real SIGINT arrives just as the parent's waitpid has reaped the
    # worker of the odd rows: the worker is gone, so __exit__ must not try
    # to kill it, and the run ends as any other Ctrl-C does.
    real_waitpid, calls = os.waitpid, []

    def sigint_after_first_reap(pid, options):
        reaped = real_waitpid(pid, options)
        calls.append(pid)
        if len(calls) == 1:
            os.kill(os.getpid(), signal.SIGINT)
        return reaped

    monkeypatch.setattr(os, "waitpid", sigint_after_first_reap)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "verify", "--n-max", "3", "--m-max", "1", "--parallel", "2")
    assert (code, out, err) == (130, "", "eulercong: interrupted\n")
    assert len(calls) == 1
    assert_no_child()


def test_parallel_failure_is_the_serial_one(capsys, monkeypatch, deadline):
    # Rows 2 and 3 both fail, in different processes. The parent, which
    # renders the even rows, is slowed at (0, 1), so (3, 1) fails first in
    # time; the run still reports (2, 1), the first failing pair in grid
    # order, as a serial run does.
    verify = congruence.verify_congruence

    def slow_at_0_1_failing_at_2_1_and_3_1(n, m):
        if (n, m) == (0, 1):
            time.sleep(0.3)
        if (n, m) in ((2, 1), (3, 1)):
            raise ValueError(f"bad pair ({n}, {m})")
        return verify(n, m)

    monkeypatch.setattr(cli, "verify_congruence", slow_at_0_1_failing_at_2_1_and_3_1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["verify", "--n-max", "3", "--m-max", "1"]
    expected = (3, "", "eulercong: internal error: bad pair (2, 1)\n")
    assert run(capsys, *argv, "--parallel", "2") == expected
    assert run(capsys, *argv) == expected
    assert_no_child()


@pytest.mark.parametrize("message", ["not an arithmetic error", "a\0b", "bad \udc80 byte"],
                         ids=["text", "nul", "surrogate"])
def test_worker_raising_other_error_exits_3(capsys, monkeypatch, deadline, message):
    # Any exception in a worker ends the run with exit 3; none hangs it.
    # A serial run reports the same exception with the same code and line,
    # also when its message holds a NUL or a lone surrogate.
    def fail(n, m):
        raise ValueError(message)

    monkeypatch.setattr(cli, "verify_congruence", fail)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sys.stderr.reconfigure(errors="backslashreplace")  # as the interpreter's own stderr
    argv = ["verify", "--n-max", "3", "--m-max", "3"]
    parallel = run(capsys, *argv, "--parallel", "2")
    line = message.encode("utf-8", "backslashreplace").decode()
    assert parallel == (3, "", f"eulercong: internal error: {line}\n")
    assert_no_child()
    assert run(capsys, *argv) == parallel


class DevnullCounter:
    """A stdout that writes to os.devnull and counts what it is given."""

    def __init__(self, file):
        self.file, self.size = file, 0

    def write(self, text):
        self.size += len(text)
        return self.file.write(text)

    def flush(self):
        self.file.flush()


@pytest.mark.parametrize("parallel", [[], ["--parallel", "2"]], ids=["serial", "parallel"])
def test_verify_holds_its_output_about_once(monkeypatch, deadline, parallel):
    # The 20x20 JSON grid writes 4.85 MB. Its rows are held once and
    # written with no copy of the whole; with the pool, one worker's value
    # is also held as it is loaded. Two output sizes bound both.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with open(os.devnull, "w") as devnull:
        out = DevnullCounter(devnull)
        monkeypatch.setattr(sys, "stdout", out)
        tracemalloc.start()
        try:
            code = main(["verify", "--n-max", "20", "--m-max", "20", "--format", "json",
                         *parallel])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert out.size > 4_800_000
    assert peak < 2 * out.size
    assert_no_child()


def _raise_memory(*args):
    raise MemoryError()


@pytest.mark.parametrize("parallel", [[], ["--parallel", "2"]], ids=["serial", "parallel"])
def test_internal_error_without_message_names_its_type(capsys, monkeypatch, deadline,
                                                       parallel):
    monkeypatch.setattr(cli, "verify_congruence", _raise_memory)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "verify", "--n-max", "1", "--m-max", "2", *parallel)
    assert (code, out, err) == (3, "", "eulercong: internal error: MemoryError\n")
    assert_no_child()


def test_pool_workers_ignore_sigint(capsys, monkeypatch, deadline):
    # Ctrl-C is for the parent alone, which then kills and reaps the workers.
    parent, verify = os.getpid(), congruence.verify_congruence

    def verify_if_sigint_ignored(n, m):
        if os.getpid() != parent and signal.getsignal(signal.SIGINT) != signal.SIG_IGN:
            raise ValueError("a pool worker handles SIGINT")
        return verify(n, m)

    monkeypatch.setattr(cli, "verify_congruence", verify_if_sigint_ignored)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "verify", "--n-max", "3", "--m-max", "3",
                         "--parallel", "2")
    assert (code, err) == (0, "")
    assert out.count("holds=true") == 12
    assert_no_child()


def test_interrupt_in_the_parents_own_share_exits_130(capsys, monkeypatch, deadline):
    # Ctrl-C while the parent renders its own share is not a failed pair:
    # the run exits 130, and the worker is killed and reaped.
    parent, verify = os.getpid(), congruence.verify_congruence

    def interrupted_in_parent_at_2_1(n, m):
        if (n, m) == (2, 1) and os.getpid() == parent:
            raise KeyboardInterrupt
        return verify(n, m)

    monkeypatch.setattr(cli, "verify_congruence", interrupted_in_parent_at_2_1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "verify", "--n-max", "3", "--m-max", "3",
                         "--parallel", "2")
    assert (code, out, err) == (130, "", "eulercong: interrupted\n")
    assert_no_child()


def test_failed_fork_exits_3_and_leaves_no_child(capsys, monkeypatch, deadline):
    # The second fork fails as it does when the system is out of processes
    # (EAGAIN): the first worker is killed and reaped, and no pipe end leaks.
    real_fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(len(forks))
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    free = os.pipe()
    for fd in free:
        os.close(fd)
    monkeypatch.setattr(os, "fork", second_fork_fails)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, out, err = run(capsys, "verify", "--n-max", "3", "--m-max", "3",
                         "--parallel", "3")
    assert code == 3
    assert out == ""
    assert err == ("eulercong: internal error: could not start a worker process: "
                   "[Errno 11] Resource temporarily unavailable\n")
    assert forks == [0, 1]
    assert_no_child()
    assert os.pipe() == free  # the lowest free descriptors are free again
    for fd in free:
        os.close(fd)


def test_failure_in_a_forked_worker_is_the_serial_one(capsys, monkeypatch, deadline):
    # (1, 2) fails in the worker of the odd rows; the parent's rows all hold.
    verify = congruence.verify_congruence

    def fail_at_1_2(n, m):
        if (n, m) == (1, 2):
            raise ValueError("bad pair (1, 2)")
        return verify(n, m)

    monkeypatch.setattr(cli, "verify_congruence", fail_at_1_2)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["verify", "--n-max", "3", "--m-max", "3"]
    expected = (3, "", "eulercong: internal error: bad pair (1, 2)\n")
    assert run(capsys, *argv, "--parallel", "2") == expected
    assert run(capsys, *argv) == expected
    assert_no_child()


@pytest.mark.parametrize("workers,forks,own_rows", [(2, 1, [0, 2]), (3, 2, [0, 3])])
def test_parallel_w_forks_w_minus_one_workers(capsys, monkeypatch, deadline, workers, forks,
                                              own_rows):
    # The parent is one of the W processes: it forks W - 1 workers and
    # renders the first share, rows 0, W, 2W, ..., itself.
    real_fork, forked, parent, verify = os.fork, [], os.getpid(), congruence.verify_congruence
    in_parent = []

    def counted_fork():
        forked.append(1)
        return real_fork()

    def recording_verify(n, m):
        if os.getpid() == parent:
            in_parent.append((n, m))
        return verify(n, m)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(cli, "verify_congruence", recording_verify)
    argv = ["verify", "--n-max", "3", "--m-max", "3"]
    code, out, err = run(capsys, *argv, "--parallel", str(workers))
    assert (code, err) == (0, "")
    assert len(forked) == forks
    assert (0, 1) in in_parent
    assert in_parent == [(n, m) for n in own_rows for m in (1, 2, 3)]
    assert_no_child()


# 21 rows go to two processes (11/10) or three (7/7/7); 20 rows to three
# (7/7/6), where the process count does not divide the rows. The parent
# renders the first share, and a forked worker each of the others.
@pytest.mark.parametrize("fmt,workers,n_max", [
    pytest.param(fmt, 2, 20, id=fmt) for fmt in ("plain", "latex", "json")
] + [
    pytest.param(fmt, 3, 20, id=f"{fmt}-3-workers") for fmt in ("plain", "latex", "json")
] + [
    pytest.param("json", 3, 19, id="json-3-workers-20-rows"),
])
def test_real_pool_output_is_serial_bytes(capsys, monkeypatch, deadline, fmt, workers, n_max):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    argv = ["verify", "--n-max", str(n_max), "--m-max", "12", "--format", fmt]
    serial = run(capsys, *argv)
    assert run(capsys, *argv, "--parallel", str(workers)) == serial
    assert serial[0] == 0
    assert_no_child()


@pytest.mark.parametrize("fmt", ["plain", "latex", "json"])
def test_concurrent_futures_pool_writes_serial_bytes(capsys, monkeypatch, deadline, fmt):
    # The benchmark's tracer puts a subclass of concurrent.futures' pool in
    # this pool's place, so `map(fn, items)` must be all that verify asks.
    from concurrent.futures import ProcessPoolExecutor

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    argv = ["verify", "--n-max", "6", "--m-max", "5", "--format", fmt]
    serial = run(capsys, *argv)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", ProcessPoolExecutor)
    assert run(capsys, *argv, "--parallel", "2") == serial
    assert serial[0] == 0
    assert_no_child()


@pytest.mark.parametrize("parallel", [[], ["--parallel", "2"]], ids=["serial", "inline-pool"])
def test_each_grid_row_builds_its_eulerian_row_once(capsys, monkeypatch, parallel):
    # The 14x10 grid has 15 rows: A_n is built once per row, not per pair.
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    _intpoly.eulerian_row.cache_clear()
    code, _, _ = run(capsys, "verify", "--n-max", "14", "--m-max", "10", "--format", "json",
                     *parallel)
    assert code == 0
    assert _intpoly.eulerian_row.cache_info().misses == 15


@pytest.mark.parametrize("pairs", [["--n-max", "0", "--m-max", "4"],
                                   ["--n", "3", "--m", "4"]])
def test_one_row_builds_no_pool(capsys, monkeypatch, pairs):
    # Workers are dealt whole grid rows, so a second one would sit idle.
    built = []

    class RecordingPool(InlinePool):
        def __init__(self, max_workers):
            built.append(max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    argv = ["verify", *pairs]
    serial = run(capsys, *argv)
    assert run(capsys, *argv, "--parallel", "2") == serial
    assert serial[0] == 0
    assert built == []


def test_no_fork_runs_serially(capsys, monkeypatch):
    # Where os.fork is missing (Windows), --parallel builds no pool.
    built = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda **kw: built.append(kw))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    argv = ["verify", "--n-max", "3", "--m-max", "2", "--format", "json"]
    serial = run(capsys, *argv)
    monkeypatch.delattr(os, "fork")
    assert run(capsys, *argv, "--parallel", "2") == serial
    assert built == []


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv,golden", [
    (["verify", "--n-max", "6", "--m-max", "5", "--format", "json", "--parallel", "2"],
     "verify-grid-6x5.json"),
    (["verify", "--n-max", "6", "--m-max", "5", "--format", "latex"], "verify-grid-6x5.latex"),
    (["verify", "--n-max", "6", "--m-max", "5"], "verify-grid-6x5.plain"),
    *[(["trace", "--n", "6", "--m", "4", "--format", fmt], f"trace-6-4.{fmt}")
      for fmt in ("plain", "json", "latex")],
    *[(["eulerian", "--n", "5", "--method", method], "eulerian-5.plain")
      for method in ("recurrence", "bruteforce", "gf")],
])
def test_cli_runs_no_rational_arithmetic(capsys, monkeypatch, deadline, argv, golden):
    # Poly and RatFunc sums, Poly powers and poly_gcd serve the library
    # and the tests alone: no subcommand calls them.
    from eulercong import poly, ratfunc

    def unused(*args):
        raise AssertionError("the CLI ran rational arithmetic")

    for owner, name in [(poly.Poly, "__add__"), (poly.Poly, "__pow__"),
                        (ratfunc.RatFunc, "__add__"), (poly, "poly_gcd"),
                        (ratfunc, "poly_gcd")]:
        monkeypatch.setattr(owner, name, unused)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run(capsys, *argv) == (0, (GOLDEN / golden).read_text(), "")
    assert_no_child()


def cli_env() -> dict:
    """The environment of a CLI subprocess that imports this source tree."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_sigint_to_parallel_verify_exits_130_and_leaves_no_process():
    # The CLI runs in its own session, so SIGINT goes to it and its pool
    # worker, as Ctrl-C in a terminal does; the parent is interrupted in
    # its own share of the grid. A process started with SIGINT ignored
    # keeps ignoring it, so the entry restores the default handler first:
    # this test may itself run with SIGINT ignored.
    entry = ("import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler)\n"
             "from eulercong.cli import main; sys.exit(main())")
    proc = subprocess.Popen(
        [sys.executable, "-c", entry, "verify", "--n-max", "64", "--m-max", "64",
         "--parallel", "2"],
        env=cli_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    pgid = proc.pid
    try:
        time.sleep(1)
        os.killpg(pgid, signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 130
        assert err == "eulercong: interrupted\n"
        assert out == ""
        with pytest.raises(ProcessLookupError):
            os.killpg(pgid, 0)
    finally:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()


@pytest.mark.parametrize("argv", [
    ["verify", "--n-max", "0", "--m-max", "2"],
    ["verify", "--n-max", "0", "--m-max", "2", "--parallel", "2"],
    ["trace", "--n", "1", "--m", "2"],
    ["eulerian", "--n", "3"],
])
def test_closed_stdout_exits_141_quietly(argv):
    # The read end of the pipe is closed before the CLI starts, so its
    # first write fails, as in `eulercong ... | head -1` once head exits.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "eulercong.cli", *argv],
                              env=cli_env(), stdin=subprocess.DEVNULL, stdout=write_end,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_in_process_main_leaves_exit_alone(capsys):
    # Only the program freezes its heap at exit; a caller's process keeps
    # its atexit handlers and the collector's final sweep.
    callbacks = atexit._ncallbacks()
    assert run(capsys, "verify", "--n", "1", "--m", "2")[0] == 0
    assert run(capsys, "verify", "--n", "65", "--m", "1")[0] == 2
    assert atexit._ncallbacks() == callbacks
    assert gc.get_freeze_count() == 0


# Registered before `main`, so it runs after every handler `main` registers.
EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print(f"frozen at exit: {gc.get_freeze_count() > 0}", file=sys.stderr))
from eulercong.cli import main
sys.exit(main())
"""


@pytest.mark.parametrize("argv,code,stdout,stderr", [
    pytest.param(["verify", "--n", "1", "--m", "2"], 0,
                 "n=1 m=2 holds=true remainder=0\n", "", id="exit-0"),
    pytest.param(["verify", "--n", "65", "--m", "1"], 2, "",
                 "usage: eulercong verify [-h] [--n N] [--m M] [--n-max N_MAX] [--m-max M_MAX]\n"
                 "                        [--format {plain,latex,json}] [--parallel W]\n"
                 "eulercong verify: error: n must be in [0, 64], got 65\n", id="exit-2"),
    pytest.param(["verify", "--n-max", "0", "--m-max", "2"], 141, None, "", id="exit-141"),
])
def test_cli_process_freezes_its_heap_at_exit(argv, code, stdout, stderr):
    # Exit 141: the read end of stdout's pipe is closed before the CLI starts.
    # COLUMNS pins the width that argparse wraps the exit-2 usage to.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-c", EXIT_PROBE, *argv],
                              env=dict(cli_env(), COLUMNS="80"),
                              stdin=subprocess.DEVNULL,
                              stdout=write_end if code == 141 else subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stdout) == (code, stdout)
    assert proc.stderr == stderr + "frozen at exit: True\n"
