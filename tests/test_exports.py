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
