"""Exact-arithmetic toolkit for the Eulerian polynomial congruence

    A_n(t^m) == ((1 + t + ... + t^(m-1)) / m)^(n+1) * A_n(t)  mod (t-1)^(n+1)

with a mechanical, machine-checked replay of its generating-function proof.

The names in `__all__`, the CLI-level API and its report types, are
resolved lazily (PEP 562): `import eulercong` imports no submodule, and
`eulercong.full_trace` imports `eulercong.prooftrace` on first access.
So a CLI process loads only the modules its subcommand runs: `verify`
(also with `--parallel`) loads `cli`, `congruence` and `_intpoly`, and
neither `poly` nor `fractions`; `eulerian` (every method) adds `eulerian`
and `poly`, and `trace` adds `poly`, `prooftrace` and `ratfunc`.
"""

from importlib import import_module

# Public name -> submodule that defines it: the CLI-level API and the
# report types. Every other public function stays importable from its
# own submodule, e.g. `eulercong.poly.poly_gcd`.
_SOURCES = {
    "CongruenceReport": "congruence",
    "verify_congruence": "congruence",
    "EulerianPoly": "eulerian",
    "eulerian_bruteforce": "eulerian",
    "eulerian_from_gf": "eulerian",
    "eulerian_recurrence": "eulerian",
    "Poly": "poly",
    "RatioTerm": "prooftrace",
    "TraceReport": "prooftrace",
    "full_trace": "prooftrace",
    "RatFunc": "ratfunc",
}

__all__ = sorted(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
