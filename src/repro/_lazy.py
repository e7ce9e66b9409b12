"""Lazy public names for the package ``__init__`` modules (PEP 562).

A package lists its public names in one table, module → names, and
binds the pair this module builds as its ``__getattr__`` and
``__dir__``.  The module behind a name is imported on the first access
to that name, so ``import repro`` imports no subsystem and a CLI
subcommand pays only for the modules it uses (DESIGN §17).
"""

from __future__ import annotations

import importlib
from typing import Callable, Mapping


def lazy_exports(
    namespace: dict, table: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Return ``(__getattr__, __dir__)`` for the package whose globals are *namespace*.

    *table* maps a module path to the public names taken from it.  A name,
    once resolved, is stored in *namespace*, so later lookups are plain
    attribute reads and return the object its module defines.  An
    unknown name raises :class:`AttributeError` naming the package, as
    for any module; the import system relies on that to fall back to a
    submodule in ``from package import submodule``.
    """
    package = namespace["__name__"]
    owners = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *owners})

    return __getattr__, __dir__
