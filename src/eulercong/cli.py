"""Command-line front end: construct, verify, and trace.

Exit codes: 0 success with all checks passing, 1 any failed
mathematical check (trace also names the failed proof checks in one
stderr line, `eulercong: trace check failed: <names>`), 2 usage or
validation error, 3 internal error (any exception the package
raises under any subcommand, such as a broken arithmetic invariant, or a
`--parallel` worker that could not start, raised or died; one line on
stderr, which names the exception's type when it has no message, and
nothing on stdout, serially and in parallel alike), 130 interrupted by
Ctrl-C (SIGINT; one line `eulercong: interrupted` on stderr and nothing
on stdout), 141 stdout closed by its reader, as in `| head -1` (the
status a shell reports for SIGPIPE; nothing on stderr). A usage error
is found before any computing starts and prints its subcommand's usage
line; `main` is the only place that maps an exception to an exit code.

`main` freezes the heap at exit only when it runs as the program, that
is when it parses `sys.argv` (`argv is None`: the console script and
`python -m eulercong.cli`). It then registers `gc.freeze` with
`atexit`, so the collector's last sweep at interpreter exit skips every
module, class and function, which live until exit anyway. Every other
atexit handler still runs, stdout and stderr are still flushed, and the
process exits with the code `main` returned. A call `main([...])` from a
host program or a test keeps the normal teardown.

verify works one grid row at a time: `_render_row` verifies a row's pairs
in m order and keeps only their text, written at the end in pieces of
about 256 kB, so the output is held about once. `--parallel W` forks
min(W, grid rows, CPUs) - 1 workers where `os.fork` exists and that is at
least 1, and otherwise runs serially with the same bytes. Rows are dealt
in turn, and the parent renders the first share itself; each worker sends
its texts down its own pipe as one value, ending at its first failure, and
the parent raises the first failure in grid order, as a serial run does.
Workers ignore SIGINT and the parent does not: on Ctrl-C, or when a
worker could not start or died, the workers still alive are killed and
reaped. No `Poly` or `Fraction` is built: `_intpoly.render` writes plain
and latex (as every `Poly` prints), JSON writes integer results (eulerian
rows, trace pairs) with `str`, and `_intpoly.fraction_strs` writes only
the verify certificate, its numerators over one common denominator.
`dump_json` is the one indented writer of every subcommand and gives the
bytes of `json.dumps(obj, indent=2)`.

Each subcommand imports only what it runs: `verify` (also with
`--parallel`) loads `cli`, `congruence` and `_intpoly`, `eulerian`
(every method) adds `eulerian`, and `trace` adds `prooftrace`. All three
write integer results, so none loads `poly`, `fractions`,
`concurrent.futures`, `dataclasses` or `json`.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import marshal
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from ._intpoly import fraction_strs, render
from .congruence import verify_congruence

if TYPE_CHECKING:
    from .congruence import CongruenceReport
    from .prooftrace import Pair, TraceReport
    from .ratfunc import RatFunc

N_CAP = 64
M_CAP = 64
# trace costs about m^2 n^3 big-integer operations. Its slowest accepted
# runs, near the corner (40, 40), take about 9 s and 75 MB as a CLI
# process on a 2-core Xeon; (48, 48) already takes 20 s in process.
TRACE_N_CAP = 40
TRACE_M_CAP = 40

# --method name -> its construction in `eulerian`.
METHODS = {
    "recurrence": "eulerian_recurrence",
    "bruteforce": "eulerian_bruteforce",
    "gf": "eulerian_from_gf",
}


# -- rendering ---------------------------------------------------------


def ratfunc_json(r: RatFunc) -> dict:
    return {"num": fraction_strs(r.num.num, r.num.den),
            "den": fraction_strs(r.den.num, r.den.den)}


def pair_json(pair: Pair) -> dict:
    return {"num": [str(c) for c in pair[0]], "den": [str(c) for c in pair[1]]}


def pair_text(pair: Pair, latex: bool = False) -> str:
    """A trace value num/den in plain, as a `RatFunc` prints, or in latex."""
    num, den = (render(p, latex=latex) for p in pair)
    return (f"{num} / \\left({den}\\right)" if latex
            else num if den == "1" else f"({num})/({den})")


def report_json(rep: CongruenceReport) -> dict:
    return {
        "n": rep.n,
        "m": rep.m,
        "holds": rep.holds,
        "lhs": fraction_strs(rep.lhs_num, rep.den),
        "rhs": fraction_strs(rep.rhs_num, rep.den),
        "remainder": fraction_strs(rep.remainder_num, rep.den),
        "cofactor": fraction_strs(rep.cofactor_num, rep.den),
    }


def trace_json(rep: TraceReport) -> dict:
    return {
        "n": rep.n,
        "m": rep.m,
        "holds": rep.all_checks,
        "diff": pair_json(rep.diff),
        "per_j": [
            {
                "j": term.j,
                "value": pair_json(term.ratio),
                "divisor_exponent": term.divisor_exponent,
            }
            for term in rep.per_j
        ],
        "den_at_one": str(rep.den_at_one),
    }


def dump_json(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2), with `indent` opening each line after the first.

    Covers what the CLI writes: dicts, lists, ints, bools, None, and
    strings (keys too) that JSON writes unescaped, such as "-1/4".
    """
    if isinstance(obj, str):
        return f'"{obj}"'
    if not obj or not isinstance(obj, (dict, list)):
        # None, and ints, bools, [] and {} as str() writes them, lowered.
        return "null" if obj is None else str(obj).lower()
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f'"{k}": {dump_json(v, inner)}' for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    items = [f'"{v}"' if isinstance(v, str) else dump_json(v, inner) for v in obj]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


# -- argument parsing ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulercong",
        description="Eulerian polynomial congruence toolkit (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_euler = sub.add_parser("eulerian", help="construct A_n(t)")
    p_euler.add_argument("--n", type=int, required=True)
    p_euler.add_argument("--method", choices=sorted(METHODS), default="recurrence")

    p_verify = sub.add_parser("verify", help="check the congruence mod (t-1)^(n+1)")
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--n-max", type=int, dest="n_max")
    p_verify.add_argument("--m-max", type=int, dest="m_max")

    p_trace = sub.add_parser("trace", help="replay the proof steps for one (n, m)")
    p_trace.add_argument("--n", type=int, required=True)
    p_trace.add_argument("--m", type=int, required=True)
    for p, run in ((p_euler, _cmd_eulerian), (p_verify, _cmd_verify), (p_trace, _cmd_trace)):
        p.add_argument("--format", choices=["plain", "latex", "json"], default="plain")
        p.set_defaults(run=run, parser=p)  # so a usage error prints p's usage
    p_verify.add_argument("--parallel", type=int, default=1, metavar="W")

    return parser


def _check_caps(parser: argparse.ArgumentParser, n: int, m: int = 1,
                n_cap: int = N_CAP, m_cap: int = M_CAP) -> None:
    """Exit 2 unless 0 <= n <= n_cap and 1 <= m <= m_cap; m = 1 always passes."""
    for name, value, low, cap in (("n", n, 0, n_cap), ("m", m, 1, m_cap)):
        if not low <= value <= cap:
            parser.error(f"{name} must be in [{low}, {cap}], got {value}")


# -- commands ------------------------------------------------------------


def _cmd_eulerian(args, parser) -> int:
    _check_caps(parser, args.n)
    from . import eulerian  # only the path that uses it pays for it

    if args.method == "bruteforce" and args.n > eulerian.BRUTEFORCE_CAP:
        parser.error(f"brute force capped at n <= {eulerian.BRUTEFORCE_CAP} (got {args.n})")
    row = getattr(eulerian, METHODS[args.method])(args.n).coeffs
    if args.format == "plain":
        print(render(row))
    elif args.format == "latex":
        print(f"A_{{{args.n}}}(t) = {render(row, latex=True)}")
    else:
        print(dump_json({"n": args.n, "method": args.method, "coeffs": [str(c) for c in row]}))
    return 0


def _verify_grid(args, parser) -> tuple[range, range]:
    single = args.n is not None or args.m is not None
    ranged = args.n_max is not None or args.m_max is not None
    if single == ranged:
        parser.error("verify needs either --n and --m, or --n-max and --m-max")
    if single:
        if args.n is None or args.m is None:
            parser.error("verify needs both --n and --m")
        _check_caps(parser, args.n, args.m)
        return range(args.n, args.n + 1), range(args.m, args.m + 1)
    if args.n_max is None or args.m_max is None:
        parser.error("verify needs both --n-max and --m-max")
    _check_caps(parser, args.n_max, args.m_max)
    return range(args.n_max + 1), range(1, args.m_max + 1)


def _cmd_verify(args, parser) -> int:
    ns, ms = _verify_grid(args, parser)
    if args.parallel < 1:
        parser.error("--parallel must be >= 1")
    rows = [(n, ms, args.format) for n in ns]
    workers = min(args.parallel, len(rows), os.cpu_count() or 1)
    if workers > 1 and hasattr(os, "fork"):
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rendered = list(pool.map(_render_row, rows))
    else:
        rendered = list(map(_render_row, rows))

    holds, texts = zip(*(pair for row in rendered for pair in row))
    sep, head, tail = (",\n", "[\n", "\n]\n") if args.format == "json" else ("\n", "", "\n")
    start = size = 0
    for i, text in enumerate(texts, 1):  # joined in pieces of about 256 kB
        size += len(text)
        if size >= 1 << 18 or i == len(texts):
            print(head, sep.join(texts[start:i]), sep="", end=sep if i < len(texts) else tail)
            head, start, size = "", i, 0
    return 0 if all(holds) else 1


def _render_row(task: tuple[int, range, str]) -> list[tuple[bool, str]]:
    """Verify the pairs (n, m) of one grid row in m order and render each in format `fmt`.

    Each report is dropped here, so a grid holds only its output text and
    a pool worker sends back strings, not certificates. A JSON pair is
    rendered as an element of the grid's array.
    """
    n, ms, fmt = task
    row = []
    for m in ms:
        r = verify_congruence(n, m)
        if fmt == "json":
            text = "  " + dump_json(report_json(r), "\n  ")
        elif fmt == "latex":
            status = "\\checkmark" if r.holds else "\\times"
            text = (f"A_{{{n}}}(t^{{{m}}}) \\equiv {render(r.rhs_num, r.den, latex=True)}"
                    f" \\pmod{{(t-1)^{{{n + 1}}}}} \\quad {status}")
        else:
            text = (f"n={n} m={m} holds={str(r.holds).lower()} "
                    f"remainder={render(r.remainder_num, r.den)}")
        row.append((r.holds, text))
    return row


def _run(fn, share: list) -> list:
    """`fn` of each task in `share` up to its first exception, then its `_reason`."""
    results = []
    try:
        for task in share:
            results.append(fn(task))
    except Exception as exc:  # not KeyboardInterrupt: Ctrl-C still ends the run
        results.append(_reason(exc))
    return results


class ProcessPoolExecutor:
    """The `--parallel` pool: the parent and W - 1 forked workers, one pipe each.

    W is `max_workers`, at most the number of items, and item i of `map`
    goes to share i % W: there is no chunk size. The parent forks a worker
    for each share but the first, which it runs itself. A worker sends its
    share's `_run` list down its pipe as one `marshal` value. `map` reads
    the workers in turn, walks the items in order and raises `RuntimeError`
    at the first reason, the failure a serial run meets, or if a worker
    could not be forked or died. A pid leaves `pids` once reaped, so
    `__exit__` kills and reaps every worker still alive. A worker ignores
    Ctrl-C and the parent does not: its `KeyboardInterrupt` leaves `map`,
    and `__exit__` then kills the workers. The name and `map`'s signature are
    `concurrent.futures`', which tests' fakes and the benchmark's tracer
    put in this class's place.
    """

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers
        self.pids: dict[int, int] = {}  # read end of a live worker's pipe -> pid

    def __enter__(self) -> ProcessPoolExecutor:
        return self

    def __exit__(self, *exc) -> bool:
        for fd, pid in self.pids.items():
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            os.close(fd)
        return False

    def map(self, fn, items: list) -> list:
        import signal

        shares = [items[w::self.max_workers] for w in range(self.max_workers)]
        for share in shares[1:]:
            fds = ()
            try:
                fds = read_end, write_end = os.pipe()
                pid = os.fork()
            except OSError as exc:  # e.g. EAGAIN: out of processes
                for fd in fds:
                    os.close(fd)
                raise RuntimeError(f"could not start a worker process: {exc}") from None
            if pid == 0:  # the worker
                code = 1
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    with open(write_end, "wb") as out:
                        marshal.dump(_run(fn, share), out)
                    code = 0
                finally:
                    os._exit(code)  # no stdio flush, atexit or teardown of the caller
            os.close(write_end)
            self.pids[read_end] = pid
        own = _run(fn, shares[0])  # while the workers run theirs
        per_worker = [iter(own)] + [iter(self._reap(fd)) for fd in list(self.pids)]
        results = []
        for i in range(len(items)):  # item order: the serial run's failure first
            results.append(next(per_worker[i % self.max_workers]))
            if isinstance(results[-1], str):
                raise RuntimeError(results[-1])
        return results

    def _reap(self, fd: int) -> list:
        import signal

        data = open(fd, "rb", buffering=0, closefd=False).read()  # written once done
        # No Ctrl-C from waitpid to the pop: __exit__ must not kill a reaped pid.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())  # only reads it, outside the try
        try:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            code = os.waitstatus_to_exitcode(os.waitpid(self.pids[fd], 0)[1])
            self.pids.pop(fd)
            os.close(fd)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if code or not data:
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise RuntimeError(f"a worker process died ({how})")
        return marshal.loads(data)


def _cmd_trace(args, parser) -> int:
    _check_caps(parser, args.n, args.m, TRACE_N_CAP, TRACE_M_CAP)
    from .prooftrace import full_trace  # only the path that uses it pays for it

    rep = full_trace(args.n, args.m)
    if args.format == "json":
        print(dump_json(trace_json(rep)))
    elif args.format == "latex":
        print(f"\\text{{difference}} = {pair_text(rep.diff, latex=True)}")
        for term in rep.per_j:
            print(f"j = {term.j}: {pair_text(term.ratio, latex=True)},"
                  f" \\; k = {term.divisor_exponent}")
    else:
        print(f"n={rep.n} m={rep.m} all_checks={str(rep.all_checks).lower()}")
        print(f"  difference = {pair_text(rep.diff)}")
        print(f"  series coefficient = {pair_text(rep.series)}")
        print(f"  denominator at t=1: {rep.den_at_one}")
        for term in rep.per_j:
            print(f"  j={term.j}: value={pair_text(term.ratio)} "
                  f"divisor_exponent={term.divisor_exponent}")
    if rep.all_checks:
        return 0
    print(f"eulercong: trace check failed: {', '.join(rep.failed_checks())}",
          file=sys.stderr)
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:  # run as the program: skip the collector's sweep at exit
        atexit.register(gc.freeze)
    try:
        args = build_parser().parse_args(argv)
        code = args.run(args, args.parser)
        sys.stdout.flush()  # so a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, so the flush at
        # exit writes nothing either, and exit as a shell reports SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        print("eulercong: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # a broken invariant, a failed worker, any other bug
        print(f"eulercong: internal error: {_reason(exc)}", file=sys.stderr)
        return 3


def _reason(exc: Exception) -> str:
    """The message of `exc`, or its type's name when it has none."""
    return str(exc) or type(exc).__name__


if __name__ == "__main__":
    sys.exit(main())
