"""Lazy package exports: a name loads with its module on first use.

A package's ``__init__`` names where each public name lives instead of
importing it, so ``import repro.cran.service`` loads the modules serving
runs and not, say, the classical detectors or the experiment drivers.
Every package of the library exports this way, through a module
``__getattr__`` (PEP 562).
"""

import sys
from importlib import import_module
from typing import Callable, Dict, Iterable


def lazy_exports(package: str, modules: Dict[str, Iterable[str]],
                 submodules: Iterable[str] = ()) -> Callable[[str], object]:
    """The ``__getattr__`` of *package*: each name of ``modules[module]`` is
    read from *module* (relative to *package* when it starts with a dot),
    and each of *submodules* is that submodule; a name is imported on first
    access and then kept in the package's namespace.  Also gives the
    package a ``__dir__`` that lists the names not yet loaded."""
    where = {name: module for module, names in modules.items()
             for name in names}
    submodules = frozenset(submodules)
    namespace = sys.modules[package].__dict__
    namespace["__dir__"] = lambda: sorted({*namespace, *where, *submodules})

    def __getattr__(name: str):
        if name in submodules:
            return import_module(f".{name}", package)
        if name not in where:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(where[name], package), name)
        namespace[name] = value
        return value

    return __getattr__
