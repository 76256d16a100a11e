import importlib

import pytest


@pytest.mark.parametrize("module", ["hoardbench", "hoardbench.core", "hoardbench.envs"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
    assert len(set(package.__all__)) == len(package.__all__)
