"""Every name a vfi module lists in ``__all__`` exists, so that ``from
vfi.<module> import *`` cannot fail on a stale entry."""

import importlib
import pkgutil

import pytest

import vfi

MODULES = sorted(m.name for m in pkgutil.iter_modules(vfi.__path__, "vfi."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
