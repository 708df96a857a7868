"""The declared public surface of each module."""

import importlib
import pkgutil

import choc


def test_every_listed_name_exists():
    # a stale __all__ entry breaks only ``from choc.<module> import *``
    modules = [importlib.import_module(f"choc.{info.name}")
               for info in pkgutil.iter_modules(choc.__path__)]
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert listed
    missing = [f"{m.__name__}.{name}" for m in listed for name in m.__all__
               if not hasattr(m, name)]
    assert missing == []
