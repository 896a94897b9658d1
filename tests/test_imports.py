"""Import hygiene: each CLI subcommand loads only the modules it runs.

Each check runs in a fresh interpreter, because this test process has
already imported every module. Nothing here measures time.
"""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import eulercong

SRC = str(Path(eulercong.__file__).resolve().parent.parent)

# Prints the loaded modules under the packages `roots` after `code`.
PROBE = """
import sys
{code}
print(sorted(k for k in sys.modules if k.split(".")[0] in {roots!r}))
"""

CORE = ["eulercong", "eulercong._intpoly", "eulercong.cli", "eulercong.congruence",
        "eulercong.eulerian"]

# Every public name of the package's API: the names of `__all__`, and the
# public functions that stay importable from their own submodule only.
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code, roots=roots)],
        env=env, capture_output=True, text=True, check=True,
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
    # eulerian prints a Poly, so it adds `poly` to what verify loads.
    loaded = loaded_after(run_main("eulerian", "--n", "5", "--method", "gf"))
    assert loaded == sorted(CORE + ["eulercong.poly"])


def test_eulerian_module_loads_no_trace_or_series():
    loaded = loaded_after("import eulercong.eulerian")
    for name in ("eulercong.prooftrace", "eulercong.series", "eulercong.ratfunc"):
        assert name not in loaded


def test_trace_loads_no_pool():
    loaded = loaded_after(run_main("trace", "--n", "2", "--m", "2"))
    assert loaded == sorted(CORE + ["eulercong.poly", "eulercong.prooftrace",
                                    "eulercong.ratfunc"])


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


@pytest.mark.parametrize("name", sorted(set(PUBLIC) | set(eulercong.__all__)))
def test_every_public_name_resolves(name):
    value = getattr(import_module(f"eulercong.{PUBLIC[name]}"), name)
    assert getattr(value, "__name__", name) == name
    if name in eulercong.__all__:
        assert getattr(eulercong, name) is value
        assert name in dir(eulercong)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from eulercong import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(eulercong.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        eulercong.no_such_name
