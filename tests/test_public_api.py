"""Export hygiene: every ``__all__`` entry in the package resolves.

A stale name left in an ``__all__`` after its definition is deleted
breaks only ``from module import *``, which nothing else exercises.
"""

import importlib
import pkgutil

import repro


def test_every_all_entry_resolves_once():
    modules = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    problems = []
    for name in modules:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        for entry in exported:
            if not hasattr(module, entry):
                problems.append(f"{name}.__all__ names missing {entry!r}")
        duplicates = sorted({e for e in exported if exported.count(e) > 1})
        if duplicates:
            problems.append(f"{name}.__all__ repeats {duplicates}")
    assert not problems, "\n".join(problems)
