"""Lazy package exports (PEP 562), in the manner of Scientific Python's
SPEC 1.

Each package ``__init__`` lists the names it re-exports in one table,
``{submodule: names}``, and hands it to :func:`attach`.  Nothing in the
table is imported until it is first read: ``from repro.core import
fit_machine`` imports :mod:`repro.core.fitting` and what it needs, not
the rest of :mod:`repro.core`.  So an ``archline`` process pays only
for the modules its command runs (DESIGN.md, "Import conventions").
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__all__ = ["attach"]


def attach(
    package: str,
    exports: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    ``exports`` maps a module, named relative to the package as in a
    ``from`` import (``".model"``, ``".core.model"``,
    ``"..faults.errors"``), to the names the package re-exports from
    it.  ``submodules`` are re-exported as themselves.
    A name is imported on its first read and then bound in the
    package's namespace, so later reads are plain attribute lookups.
    """
    owners = {
        name: module for module, names in exports.items() for name in names
    }
    public = [*owners, *submodules]
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name in owners:
            module = importlib.import_module(owners[name], package)
            value = getattr(module, name)
        elif name in submodules:
            value = importlib.import_module(f".{name}", package)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *public})

    return __getattr__, __dir__, public
