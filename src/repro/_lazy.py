"""Package exports resolved on first access (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule with the package, so a process that uses one of them
pays for all (a Swing-priced tuning session would load the kernel compiler
and the asyncio server). :func:`attach` gives such a package a module-level
``__getattr__`` that imports the defining submodule when a name is first
looked up, and caches the name in the package namespace::

    __getattr__, __dir__, __all__ = _lazy.attach(__name__, {
        "measure": ("Evaluator", "LocalEvaluator"),
    })

``from package import Name``, ``package.Name`` and ``from package import *``
keep working; only the moment the submodule is imported moves.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping, Sequence


def attach(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each submodule (relative to ``package``) to the public
    names it defines.
    """
    where = {name: sub for sub, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        sub = where.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__, list(where)
