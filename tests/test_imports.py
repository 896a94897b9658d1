"""Import hygiene: each CLI subcommand loads only the modules it runs.

Each check runs in a fresh interpreter, because this test process has
already imported every module. Nothing here measures time.
"""

import ast
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import eulercong

SRC = str(Path(eulercong.__file__).resolve().parent.parent)
ENV = dict(os.environ,
           PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
README = Path(__file__).resolve().parents[1] / "README.md"

# Prints the loaded modules under the packages `roots` after `code`.
PROBE = """
import sys
{code}
print(sorted(k for k in sys.modules if k.split(".")[0] in {roots!r}))
"""

CORE = ["eulercong", "eulercong._intpoly", "eulercong.cli", "eulercong.congruence"]

# Every public name of the package's API, and the submodule it is imported
# from. The package itself re-exports none of them.
PUBLIC = {
    "CongruenceReport": "congruence",
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
    "poly_gcd": "poly",
    "RatioTerm": "prooftrace",
    "TraceReport": "prooftrace",
    "diff_rational": "prooftrace",
    "full_trace": "prooftrace",
    "ratio_coeff": "prooftrace",
    "series_difference_coeff": "prooftrace",
    "RatFunc": "ratfunc",
    "TruncatedSeries": "series",
    "constant_series": "series",
    "geometric_exp_sum": "series",
    "scaled_exp": "series",
}


def loaded_after(code: str, roots: tuple = ("eulercong", "concurrent")) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code, roots=roots)],
        env=ENV, capture_output=True, text=True, check=True,
    )
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def run_main(*argv: str) -> str:
    return f"from eulercong.cli import main\nassert main({list(argv)!r}) == 0"


def test_import_package_loads_no_submodule():
    assert loaded_after("import eulercong") == ["eulercong"]


def test_import_cli_loads_no_pool_trace_or_series():
    loaded = loaded_after("import eulercong.cli")
    for name in ("concurrent.futures", "eulercong.prooftrace",
                 "eulercong.ratfunc", "eulercong.series"):
        assert name not in loaded
    assert loaded == CORE


def test_verify_loads_no_prooftrace():
    assert loaded_after(run_main("verify", "--n", "3", "--m", "2")) == CORE


def test_gf_method_loads_only_the_core():
    # The constructions return integer rows, which the CLI renders as
    # such, so eulerian, by every method and in every format, adds only
    # `eulerian` to what verify loads: no `poly`, `fractions`, `decimal`
    # or `concurrent.futures`.
    for method in ("gf", "recurrence", "bruteforce"):
        for fmt in ("plain", "latex", "json"):
            code = run_main("eulerian", "--n", "5", "--method", method, "--format", fmt)
            roots = ("eulercong", "concurrent", "fractions", "decimal", "numbers")
            loaded = loaded_after(code, roots)
            assert loaded == sorted(CORE + ["eulercong.eulerian"]), (method, fmt)


def test_eulerian_module_loads_no_trace_or_series():
    loaded = loaded_after("import eulercong.eulerian")
    for name in ("eulercong.prooftrace", "eulercong.series", "eulercong.ratfunc"):
        assert name not in loaded


def test_reading_an_eulerian_poly_loads_the_rational_layer():
    # A construction returns an integer row; `.poly` builds its Poly view.
    code = ("import sys\nfrom eulercong.eulerian import eulerian_recurrence\n"
            "ep = eulerian_recurrence(5)\nassert 'eulercong.poly' not in sys.modules\n"
            "assert str(ep.poly) == 't + 26*t^2 + 66*t^3 + 26*t^4 + t^5'")
    assert "eulercong.poly" not in loaded_after("import eulercong.eulerian")
    assert loaded_after(code, ("eulercong", "fractions")) == [
        "eulercong", "eulercong._intpoly", "eulercong.eulerian", "eulercong.poly", "fractions"]


# The rational layer, and the one bridge to it: `_intpoly`'s two view
# builders, the only functions that may import it at run time.
RATIONAL = {"poly", "ratfunc", "series", "fractions"}
BRIDGE = {"poly_view", "ratfunc_view"}


def rational_imports(tree: ast.AST, bridge: set, allowed: bool = False) -> list[int]:
    """Lines importing the rational layer outside `bridge` and `if TYPE_CHECKING:`."""
    lines = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if getattr(node, "module", None) else [
                alias.name for alias in node.names]
            if not allowed and any(RATIONAL & set(name.split(".")) for name in names):
                lines.append(node.lineno)
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            lines += rational_imports(ast.Module(node.body, []), bridge, True)
            lines += rational_imports(ast.Module(node.orelse, []), bridge, allowed)
            continue
        inside = isinstance(node, ast.FunctionDef) and node.name in bridge
        lines += rational_imports(node, bridge, allowed or inside)
    return lines


@pytest.mark.parametrize("module", ["_intpoly", "congruence", "prooftrace", "eulerian", "cli"])
def test_only_the_bridge_imports_the_rational_layer(module):
    tree = ast.parse(Path(SRC, "eulercong", f"{module}.py").read_text())
    assert rational_imports(tree, BRIDGE if module == "_intpoly" else set()) == []


@pytest.mark.parametrize("source,lines", [
    ("def _over(nums, den):\n    from .poly import _over\n", [2]),
    ("from fractions import Fraction\nimport eulercong.series\n", [1, 2]),
    ("from . import ratfunc, eulerian\n", [1]),
    ("if TYPE_CHECKING:\n    from .poly import Poly\nelse:\n    from .poly import Poly\n", [4]),
    ("def poly_view():\n    from .poly import _over\n", []),
    ("from . import eulerian\nfrom ._intpoly import poly_view\n", []),
])
def test_rational_import_finder(source, lines):
    assert rational_imports(ast.parse(source), BRIDGE) == lines


@pytest.mark.parametrize("module", ["congruence", "prooftrace"])
def test_integer_layers_load_no_eulerian(module):
    # verify and trace read A_n's integer rows from `_intpoly`.
    assert "eulercong.eulerian" not in loaded_after(f"import eulercong.{module}")


def test_prooftrace_loads_no_congruence():
    # Both sides of the congruence come from `_intpoly.integer_sides`, and
    # the rational views of a report import their layers only when read.
    assert loaded_after("import eulercong.prooftrace") == [
        "eulercong", "eulercong._intpoly", "eulercong.prooftrace"]


def test_trace_loads_no_pool():
    loaded = loaded_after(run_main("trace", "--n", "2", "--m", "2"))
    assert loaded == sorted(CORE + ["eulercong.prooftrace"])


@pytest.mark.parametrize("fmt", ["plain", "latex", "json"])
def test_trace_loads_no_poly_or_fractions(fmt):
    # A trace report holds integer pairs, and the CLI renders them as such.
    code = run_main("trace", "--n", "4", "--m", "3", "--format", fmt)
    loaded = loaded_after(code, ("eulercong", "fractions", "decimal", "numbers"))
    assert loaded == sorted(CORE + ["eulercong.prooftrace"])


def test_reading_den_at_one_loads_no_rational_layer():
    # den_at_one is den(1) of the report's integer pair, an int.
    code = ("from eulercong.prooftrace import full_trace\n"
            "value = full_trace(6, 4).den_at_one\n"
            "assert type(value) is int and value == 16384")
    loaded = loaded_after(code, ("eulercong", "fractions"))
    assert loaded == ["eulercong", "eulercong._intpoly", "eulercong.prooftrace"]


def test_reading_a_trace_value_loads_the_rational_layer():
    code = ("import sys\nfrom eulercong.prooftrace import diff_rational, full_trace\n"
            "rep = full_trace(4, 3)\nassert 'eulercong.ratfunc' not in sys.modules\n"
            "assert rep.diff_value == diff_rational(4, 3)")
    loaded = loaded_after(code, ("eulercong", "fractions"))
    assert loaded == ["eulercong", "eulercong._intpoly", "eulercong.poly",
                      "eulercong.prooftrace", "eulercong.ratfunc", "fractions"]


# What the stdlib process pool would load, and `select`, which a pool that
# waits on its workers' pipes at once would; the CLI's own pool loads none.
POOL_STDLIB = ("concurrent", "multiprocessing", "pickle", "logging", "socket",
               "select")


def test_parallel_verify_loads_the_pool():
    # Two CPUs, whatever the machine has, so the pool path is taken. The
    # pool lives in `cli`, so the parallel run loads the serial verify set.
    code = "import os\nos.cpu_count = lambda: 2\n" + run_main(
        "verify", "--n-max", "1", "--m-max", "2", "--parallel", "2")
    assert loaded_after(code, ("eulercong",) + POOL_STDLIB) == CORE


@pytest.mark.parametrize("parallel", [[], ["--parallel", "2"]])
def test_verify_loads_no_poly_or_fractions(parallel):
    code = "import os\nos.cpu_count = lambda: 2\n" + run_main(
        "verify", "--n-max", "2", "--m-max", "2", "--format", "json", *parallel)
    loaded = loaded_after(code, ("eulercong", "fractions", "decimal", "numbers"))
    assert loaded == CORE


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3", "--m", "2", "--format", "json"],
    ["trace", "--n", "2", "--m", "2", "--format", "json"],
    ["eulerian", "--n", "5", "--method", "gf", "--format", "json"],
])
def test_subcommands_load_no_dataclasses_inspect_or_json(argv):
    assert loaded_after(run_main(*argv), ("dataclasses", "inspect", "json")) == []


@pytest.mark.parametrize("path", sorted(Path(SRC, "eulercong").glob("*.py")),
                         ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    # Start-up dominates every CLI run, so a module imports nothing it does
    # not use. `if TYPE_CHECKING:` blocks count as top level.
    tree = ast.parse(path.read_text())
    statements = [node for stmt in tree.body
                  for node in [stmt, *(stmt.body if isinstance(stmt, ast.If) else [])]]
    bound = [alias.asname or alias.name.split(".")[0] for node in statements
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in bound if name not in used] == []


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_every_public_name_resolves(name):
    value = getattr(import_module(f"eulercong.{PUBLIC[name]}"), name)
    assert getattr(value, "__name__", name) == name


# The names the package module re-exported before its API became its
# submodules; each must now fail on the package, not resolve to a stale copy.
FORMER_REEXPORTS = ["CongruenceReport", "EulerianPoly", "Poly", "RatFunc", "RatioTerm",
                    "TraceReport", "eulerian_bruteforce", "eulerian_from_gf",
                    "eulerian_recurrence", "full_trace", "verify_congruence"]


@pytest.mark.parametrize("name", FORMER_REEXPORTS)
def test_unknown_attribute_raises(name):
    with pytest.raises(AttributeError, match=name):
        getattr(eulercong, name)
    with pytest.raises(ImportError, match=name):
        exec(f"from eulercong import {name}", {})


def test_readme_python_blocks_run():
    # Each block runs in a fresh interpreter, so an import the package no
    # longer provides fails here rather than in a reader's session.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], env=ENV,
                              capture_output=True, text=True)
        assert proc.returncode == 0, f"{block}\n{proc.stderr}"
