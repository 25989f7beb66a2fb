"""numpy, bound lazily: the package's one numpy import.

The exact commands (``cpm moments`` without ``--log``, ``bell``,
``identities``) run on Python integers and never touch numpy, so importing
the package should not pay numpy's import, several times the work of those
commands.  ``np`` is numpy itself when it was already imported, and
otherwise a module that loads numpy on its first attribute access
(``importlib.util.LazyLoader``).  ``weights``, ``moments``, ``auxdist`` and
``graphsim`` take ``np`` from here, and none reads an attribute of it at
import or when a weight model is built.

Only numpy is deferred, never a cpmoments module: ``cpmoments.cli``
imports all six submodules, so the benchmark's tracer
(``perfbench/tracing.py``), which imports ``cpmoments.cli``, finds each one
in ``sys.modules`` (``sys.modules["cpmoments.auxdist"]`` and the others) to
wrap its functions.
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
    return module


np = lazy_module("numpy")
