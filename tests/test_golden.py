"""Byte-exact CLI output, frozen from the Fraction implementation.

The files under golden/ hold the stdout of `eulercong ARGS` as written
before verify (and, for the trace runs, the proof trace) moved to
integer arithmetic; every run below exits 0. The JSON and plain files
that the benchmark's checker reads are also checked by it: it recomputes
every value from first principles and imports nothing from eulercong.
"""

import importlib.util
from functools import partial
from pathlib import Path

import pytest

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
GRID_6X5 = [(n, m) for n in range(7) for m in range(1, 6)]
CHECKED = {
    "verify-grid-6x5.json": partial(checks.check_verify_json, GRID_6X5),
    "verify-grid-6x5.plain": partial(checks.check_verify_plain, GRID_6X5),
    "verify-1-2.json": partial(checks.check_verify_json, [(1, 2)]),
    "verify-1-2.plain": partial(checks.check_verify_plain, [(1, 2)]),
    "trace-1-2.json": partial(checks.check_trace_json, 1, 2),
    "trace-6-4.json": partial(checks.check_trace_json, 6, 4),
    "trace-8-6.json": partial(checks.check_trace_json, 8, 6),
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
