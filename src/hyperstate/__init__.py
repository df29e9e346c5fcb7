"""Construction, certification and probing of hyperentangled pure states.

The package namespace is the union of the submodules' ``__all__`` lists.
Submodules are imported lazily, on first access to one of their names, so the
command line can apply the HYPERSTATE_THREADS cap to the environment before
the linear algebra backend loads.  A name, once resolved, is stored in the
package namespace, so later lookups skip the search.
"""

from importlib import import_module
from typing import Any

__version__ = "0.1.0"

# Searched in this order; cli is first because it alone imports no numerics.
_SUBMODULES = ("cli", "state", "bilinear", "certify", "construct", "witness", "degree", "io")


def __getattr__(name: str) -> Any:
    if name == "__all__":
        return sorted(
            {n for sub in _SUBMODULES for n in import_module(f".{sub}", __name__).__all__}
        )
    if not (name.startswith("__") and name.endswith("__")):
        for sub in _SUBMODULES:
            module = import_module(f".{sub}", __name__)
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return __getattr__("__all__")
