"""Lazy module bindings: numpy, and the numeric submodules cli calls.

The exact commands (``cpm moments`` without ``--log``, ``bell``,
``identities``) run on Python integers and never touch numpy, so importing
the package should not pay numpy's import, several times the work of those
commands.  ``np`` is numpy itself when it was already imported, and
otherwise a module that loads numpy on its first attribute access
(``importlib.util.LazyLoader``).  ``weights``, ``moments``, ``auxdist`` and
``graphsim`` take ``np`` from here, and none reads an attribute of it at
import or when a weight model is built.

``cpmoments.cli`` binds its five numeric submodules (``weights``,
``moments``, ``asymptotics``, ``auxdist``, ``graphsim``) the same way, so a
command compiles and runs only the modules it calls: ``bell`` never
executes ``graphsim``.  They are registered in ``sys.modules`` rather than
imported inside the functions that use them because the benchmark's tracer
(``perfbench/tracing.py``), which imports ``cpmoments.cli``, looks each one
up there (``sys.modules["cpmoments.auxdist"]`` and the others) to wrap its
functions, and executes the ones no command has touched yet.

On Python 3.10 and 3.11 ``LazyLoader`` takes no lock, so two threads must
not make the first attribute access of the same lazy module at once; code
that starts threads touches every lazy module its threads use first.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_module(name: str) -> ModuleType:
    """The module ``name`` from ``sys.modules`` if it is there; otherwise a
    module registered there under ``name`` that executes on first attribute
    access.  A later ``import name`` also executes it."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        # as the import system does, so ``import a.b`` then ``a.b.f`` works
        setattr(sys.modules[parent], child, module)
    return module


np = lazy_module("numpy")
