import pytest

from e6cubic import arith, cli, counting, density, surface, torsor, verify


@pytest.mark.parametrize(
    "module",
    [arith, surface, torsor, counting, density, verify, cli],
    ids=lambda m: m.__name__,
)
def test_every_exported_name_exists(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
