"""Exact-arithmetic toolkit for the Eulerian polynomial congruence

    A_n(t^m) == ((1 + t + ... + t^(m-1)) / m)^(n+1) * A_n(t)  mod (t-1)^(n+1)

with a mechanical, machine-checked replay of its generating-function proof.

The API is the submodules: import each name from the one that defines it,
e.g. `from eulercong.congruence import verify_congruence`. This module
imports none of them, so a CLI process loads only what its subcommand runs.
"""

__version__ = "0.1.0"
