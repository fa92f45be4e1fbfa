import os
import pathlib
import subprocess
import sys
import types

import pytest

import e6cubic
from e6cubic import arith, cli, counting, density, surface, torsor, verify

MODULES = [arith, surface, torsor, counting, density, verify, cli]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_every_public_name_of_the_package_is_exported_by_its_module():
    # a re-export from e6cubic cannot outlive its module's export list
    exported = {name for module in MODULES for name in module.__all__}
    public = {
        name
        for name, value in vars(e6cubic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - exported) == []


def test_no_path_loads_scipy():
    # numpy is the one runtime dependency; a fresh interpreter shows what the
    # package itself loads on each path, the constant's quadratures included
    script = """
import sys
import e6cubic
from e6cubic import cli, counting, density
assert cli.main(["count", "--B", "1000", "--method", "fast"]) == 0
list(counting.enumerate_points(60))
assert cli.main(["verify", "--B", "40", "--samples", "100", "--grid", "2"]) == 0
assert cli.main(["constant", "--trunc-prime", "1000"]) == 0
density.main_term_coefficients(1000)
# fit's own peyre_constant, after a count
assert cli.main(["fit", "--B-range", "10:10000:geometric:14", "--threads", "1",
                 "--trunc-prime", "1000"]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    done = in_a_fresh_interpreter(script)
    assert done.returncode == 0, done.stderr


def test_shard_worker_loads_no_module():
    # a pool worker pays again for every module it imports that the parent
    # has not: counting sweep-2w's grid (25 heights from 100 to about 2e4)
    # in both shards imports nothing after the package itself
    script = """
import sys
import numpy as np
from e6cubic import counting, torsor
grid = tuple(sorted({int(round(b)) for b in np.geomspace(100, 20100, 25)}))
before = set(sys.modules)
for part in (0, 1):
    counting._grid_part((grid, 2, part, torsor.T1_SCHEME))
assert set(sys.modules) == before, sorted(set(sys.modules) - before)
"""
    done = in_a_fresh_interpreter(script)
    assert done.returncode == 0, done.stderr


def in_a_fresh_interpreter(script):
    """script's run in a new Python process that imports the package from this tree."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
