"""Benchmark of the eulercong CLI: closed loops of whole CLI invocations.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

It may be started from any directory: the package is imported from the
`src/` beside `perfbench/`. With `--trace 0` every operation is a separate, untraced CLI
process and the end-to-end metrics are printed. With `--trace 1` the same
invocations run in this process, once plain and once with spans around
the package's public functions, and the per-layer metrics are printed.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
ENTRY = "import sys; from eulercong.cli import main; sys.exit(main())"
SETUP_PER_PASS = 3
PARALLEL = 2
# Time the reference loop takes at the speed the figures are scaled to;
# about its median on the 2-core machine of the README's figures.
REFERENCE_S = 0.02

GRID = ["verify", "--n-max", "14", "--m-max", "10", "--format", "json"]
GRID_PAIRS = [(n, m) for n in range(15) for m in range(1, 11)]

# Pass sets the seed chooses from, then shuffles. The sets of a workload
# were picked to cost about the same and to write about the same number
# of bytes, so that the seed changes the inputs but not the size of the
# work: every plain verify line is 33 bytes when n and m have two digits.
DEEP_SETS = [  # a pair and its transpose: one large-m, one large-n, n*m ~ 570
    ((10, 56), (56, 10)),
    ((12, 48), (48, 12)),
]
TRACE_SETS = [  # 6 <= n, m <= 9; about 5.5 s and 41-43 KB per pass
    ((6, 8), (9, 6), (7, 8)),
    ((8, 6), (7, 7), (6, 9)),
]


@dataclass(frozen=True)
class Op:
    """One CLI invocation and how to check its stdout."""

    args: tuple[str, ...]
    kind: str  # "verify-json", "verify-plain" or "trace-json"
    pairs: tuple[tuple[int, int], ...]

    def check(self, text: str, memo: dict) -> list[str]:
        if self.kind == "verify-json":
            return checks.check_verify_json(self.pairs, text, memo)
        if self.kind == "verify-plain":
            return checks.check_verify_plain(self.pairs, text)
        return checks.check_trace_json(*self.pairs[0], text)


def verify_op(n: int, m: int) -> Op:
    return Op(("verify", "--n", str(n), "--m", str(m)), "verify-plain", ((n, m),))


def trace_op(n: int, m: int) -> Op:
    return Op(("trace", "--n", str(n), "--m", str(m), "--format", "json"),
              "trace-json", ((n, m),))


def workload(name: str, seed: int) -> tuple[Op, list[Op]]:
    """(set-up operation, operations of one pass) for a workload and seed."""
    rng = random.Random(f"{name}:{seed}")
    par = ("--parallel", str(PARALLEL))
    if name in ("verify-grid", "verify-grid-par"):
        extra = par if name == "verify-grid-par" else ()
        setup = Op(("verify", "--n-max", "0", "--m-max", "2", "--format", "json", *extra),
                   "verify-json", ((0, 1), (0, 2)))
        return setup, [Op((*GRID, *extra), "verify-json", tuple(GRID_PAIRS))]
    if name == "verify-deep":
        pairs = list(rng.choice(DEEP_SETS))
        rng.shuffle(pairs)
        return verify_op(0, 1), [verify_op(n, m) for n, m in pairs]
    if name == "trace":
        pairs = list(rng.choice(TRACE_SETS))
        rng.shuffle(pairs)
        return trace_op(0, 1), [trace_op(n, m) for n, m in pairs]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-grid", "verify-deep", "trace", "verify-grid-par")


@dataclass
class Tally:
    """Operations attempted and failed, with each distinct output checked once."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    verdicts: dict = field(default_factory=dict)
    memo: dict = field(default_factory=dict)

    def record(self, op: Op, code: int, stdout: bytes, stderr: bytes = b"") -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"{' '.join(op.args)}: exit {code}: {stderr[-500:]!r}", file=sys.stderr)
            return
        key = (op, hashlib.sha256(stdout).digest())
        if key not in self.verdicts:
            self.verdicts[key] = op.check(stdout.decode(), self.memo)
        problems = self.verdicts[key]
        if problems:
            self.failed += 1
            self.wrong += 1
            print(f"{' '.join(op.args)}: wrong output: {problems[:3]}", file=sys.stderr)


# -- untraced: one process per operation -----------------------------------


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def invoke(op: Op, env: dict) -> tuple[int, bytes, bytes, float, float, float]:
    """Run one CLI process: exit code, stdout, stderr, wall s, CPU s, peak RSS MB.

    Wall time runs from just before the process starts until its output
    is read and it has been reaped. CPU time and peak RSS come from
    wait4, so they include the pool workers the CLI itself waited for.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, *op.args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    with selectors.DefaultSelector() as sel:
        for stream in (proc.stdout, proc.stderr):
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout.fileno()])
    err = b"".join(chunks[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, out, err, wall, cpu, usage.ru_maxrss / 1024


def reference() -> float:
    """Seconds for a fixed loop of Fraction and big-int arithmetic.

    The CLI spends its time in the same kind of interpreted arithmetic,
    so this loop slows down and speeds up with the machine the same way.
    """
    t0 = time.perf_counter()
    acc, x = Fraction(0), 1
    for i in range(1, 4000):
        acc += Fraction(i, i % 89 + 1)
        x = (x * 12345678901 + i) % (1 << 512)
    return time.perf_counter() - t0


def run_untraced(name: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    setup_op, ops = workload(name, seed)
    env = _env()
    tally = Tally()
    setup: list[float] = []
    passes: list[dict] = []
    rounds: list[float] = []
    refs: list[float] = []

    def timed(op: Op) -> tuple[int, bytes, bytes, float, float, float]:
        refs.append(reference())
        return invoke(op, env)

    began = time.perf_counter()
    while True:
        # Set-up invocations are spread over the run, a few before each
        # pass, so that their median samples the same stretch of time.
        r0 = time.perf_counter()
        for _ in range(SETUP_PER_PASS):
            code, out, err, wall, _, _ = timed(setup_op)
            tally.record(setup_op, code, out, err)
            setup.append(wall)
        results = [timed(op) for op in ops]
        wall = sum(r[3] for r in results)
        for op, (code, out, err, *_) in zip(ops, results):
            tally.record(op, code, out, err)
        passes.append({
            "wall_s": wall,
            "cpu_s": sum(r[4] for r in results),
            "peak_rss_mb": max(r[5] for r in results),
            "output_bytes": sum(len(r[1]) for r in results),
        })
        rounds.append(time.perf_counter() - r0)
        # Whole rounds only; stop when another would overrun the run.
        if time.perf_counter() - began + statistics.median(rounds) > seconds:
            break

    # Times are scaled to the reference speed: the machine's speed drifts
    # by tens of percent over minutes, and this ratio cancels the drift.
    speed = REFERENCE_S / statistics.median(refs)
    wall_s = statistics.median(p["wall_s"] for p in passes) * speed
    metrics = {
        "wall_s": {"value": wall_s, "unit": "s"},
        "cpu_s": {"value": statistics.median(p["cpu_s"] for p in passes) * speed, "unit": "s"},
        "pairs_per_s": {"value": sum(len(op.pairs) for op in ops) / wall_s, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup) * speed, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                        "unit": "MB"},
        "output_bytes": {"value": statistics.median(p["output_bytes"] for p in passes),
                         "unit": "B"},
    }
    print(f"{name} seed={seed}: {len(passes)} passes of {len(ops)} invocations, "
          f"raw wall_s {[round(p['wall_s'], 3) for p in passes]}, "
          f"raw setup_s {statistics.median(setup):.4f}, "
          f"reference {statistics.median(refs):.5f} s", file=sys.stderr)
    return tally, metrics


# -- traced: the same operations in this process ----------------------------


def run_traced(name: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    sys.path.insert(0, str(SRC))
    from eulercong import cli
    from tracer import Tracer

    _, ops = workload(name, seed)
    tracer = Tracer()
    tally = Tally()

    def one_pass() -> float:
        t0 = time.perf_counter()
        outputs = []
        for op in ops:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(op.args))
            except Exception:  # an internal error fails this operation only
                traceback.print_exc()
                code = 1
            outputs.append((op, code, buf.getvalue().encode()))
        wall = time.perf_counter() - t0
        for op, code, out in outputs:
            tally.record(op, code, out)
        return wall

    began = time.perf_counter()
    one_pass()  # warm-up: first-call costs fall here, not in a timed pass
    plain, traced = [], []
    while not traced or time.perf_counter() - began + plain[-1] + traced[-1] <= seconds:
        plain.append(one_pass())
        tracer.clear()
        tracer.install()
        try:
            traced.append(one_pass())
        finally:
            tracer.uninstall()

    layers = tracer.layer_metrics()
    tracer.write(OUT / f"spans-{name}-seed{seed}.json",
                 {"workload": name, "seed": seed, "ops": [list(op.args) for op in ops]})
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    layers.update({
        "trace.pass_s": traced[-1],
        "trace.untraced_pass_s": plain_s,
        "trace.overhead_pct": 100.0 * (traced_s / plain_s - 1.0),
        "trace.self_share_pct": 100.0 * self_total / traced[-1],
    })
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
    print(f"{name} seed={seed}: untraced {[round(x, 3) for x in plain]}, "
          f"traced {[round(x, 3) for x in traced]}", file=sys.stderr)
    return tally, metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bits"):
        return "bit"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eulercong" / "cli.py").is_file():
        print(f"no eulercong sources under {SRC}", file=sys.stderr)
        return 2
    run = run_traced if args.trace else run_untraced
    tally, metrics = run(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
