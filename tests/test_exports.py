"""Every name a ``trailmine`` module lists in ``__all__`` exists."""

import importlib
import pkgutil

import trailmine


def test_every_all_entry_resolves():
    names = ["trailmine"] + [f"trailmine.{m.name}" for m in pkgutil.iter_modules(trailmine.__path__)]
    checked, missing = 0, []
    for name in names:
        module = importlib.import_module(name)
        for entry in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, entry):
                missing.append(f"{name}.{entry}")
    assert checked
    assert not missing, missing
