"""PEP 562 lazy exports for package ``__init__`` modules.

A package ``__init__`` that imports every submodule makes importing any
one of them pay for all of them: ``repro.core.majority`` alone used to
pull the whole study (numpy, networkx, the topology builder) into a
server that only needs the vote.  :func:`lazy_exports` keeps each
package's flat public namespace (``from repro.core import
evaluate_all`` still works) while importing a name's home submodule
only on first access, the pattern :mod:`repro` itself uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each submodule (relative name) to the public names
    it defines.  The returned ``__getattr__`` imports the submodule on
    first access and caches the value on the package, so later lookups
    are plain attribute reads.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *home})

    return list(home), __getattr__, __dir__
