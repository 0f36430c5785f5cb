"""The packages' export lists name only what the packages define."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["condshap", "condshap.simlab", "condshap.shell"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing
