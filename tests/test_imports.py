"""Import hygiene: each CLI subcommand loads only the modules it runs.

Each check runs in a fresh interpreter, because this test process has
already imported every module. Nothing here measures time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eulercong

SRC = str(Path(eulercong.__file__).resolve().parent.parent)

# Prints the loaded eulercong and concurrent.futures modules after `code`.
PROBE = """
import json
import sys
{code}
print(json.dumps(sorted(k for k in sys.modules
                        if k.split(".")[0] in ("eulercong", "concurrent"))))
"""

CORE = ["eulercong", "eulercong.cli", "eulercong.congruence",
        "eulercong.eulerian", "eulercong.poly"]


def loaded_after(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


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


def test_trace_loads_no_pool():
    loaded = loaded_after(run_main("trace", "--n", "2", "--m", "2"))
    assert loaded == sorted(CORE + ["eulercong.prooftrace", "eulercong.ratfunc"])


def test_parallel_verify_loads_the_pool():
    loaded = loaded_after(run_main("verify", "--n-max", "1", "--m-max", "2",
                                   "--parallel", "2"))
    assert "concurrent.futures.process" in loaded
    assert "eulercong.prooftrace" not in loaded


@pytest.mark.parametrize("name", eulercong.__all__)
def test_every_public_name_resolves(name):
    value = getattr(eulercong, name)
    assert getattr(value, "__name__", name) == name
    assert name in dir(eulercong)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from eulercong import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(eulercong.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        eulercong.no_such_name
