"""Byte-exact CLI output, frozen from the Fraction implementation.

The files under golden/ hold the stdout of `eulercong ARGS` as written
before verify (and, for the trace runs, the proof trace) moved to
integer arithmetic; every run below exits 0.
"""

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


def output(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.encode()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", RUNS)
def test_golden_output(capsys, name, fmt):
    code, out = output(capsys, [*RUNS[name], "--format", fmt])
    assert code == 0
    assert out == (GOLDEN / f"{name}.{fmt}").read_bytes()


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
