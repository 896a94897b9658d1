"""Exact-arithmetic toolkit for the Eulerian polynomial congruence

    A_n(t^m) == ((1 + t + ... + t^(m-1)) / m)^(n+1) * A_n(t)  mod (t-1)^(n+1)

with a mechanical, machine-checked replay of its generating-function proof.

The names in `__all__` are resolved lazily (PEP 562): `import eulercong`
imports no submodule, and `eulercong.full_trace` imports
`eulercong.prooftrace` on first access. So a CLI process loads only the
modules its subcommand runs (see `eulercong.cli`).
"""

from importlib import import_module

# Public name -> submodule that defines it.
_SOURCES = {
    "CongruenceReport": "congruence",
    "congruence_sides": "congruence",
    "report_from_sides": "congruence",
    "verify_congruence": "congruence",
    "EulerianPoly": "eulerian",
    "eulerian_bruteforce": "eulerian",
    "eulerian_from_gf": "eulerian",
    "eulerian_recurrence": "eulerian",
    "worpitzky_row": "eulerian",
    "Poly": "poly",
    "exact_div": "poly",
    "geometric_poly": "poly",
    "parse_poly": "poly",
    "poly_gcd": "poly",
    "remainder_mod_shift_power": "poly",
    "shifted_basis_coeffs": "poly",
    "RatioTerm": "prooftrace",
    "TraceReport": "prooftrace",
    "diff_rational": "prooftrace",
    "full_trace": "prooftrace",
    "ratio_coeff": "prooftrace",
    "series_difference_coeff": "prooftrace",
    "xp_decompose": "prooftrace",
    "RatFunc": "ratfunc",
    "TruncatedSeries": "series",
    "constant_series": "series",
    "geometric_exp_sum": "series",
    "lift_to_ratfunc": "series",
    "scaled_exp": "series",
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
