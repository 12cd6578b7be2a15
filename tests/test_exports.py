"""Every name a ``repro`` module lists in ``__all__`` resolves.

A deletion that leaves its export behind breaks ``from repro.x import *``
and misleads readers of the package surface; this walks every module
of the package and catches such a stale name.
"""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")
    ]
    stale = {}
    for name in names:
        module = importlib.import_module(name)
        missing = [export for export in getattr(module, "__all__", ())
                   if not hasattr(module, export)]
        if missing:
            stale[name] = missing
    assert len(names) > 50  # the walk reached every subpackage
    assert not stale, f"__all__ names that do not resolve: {stale}"
