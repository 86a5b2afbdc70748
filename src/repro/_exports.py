"""Resolve a package's public names on first access (PEP 562).

A package ``__init__`` declares ``_EXPORTS`` (public name -> the
submodule that defines it) and binds
``__getattr__ = exports_getattr(__name__, _EXPORTS)``.  Importing the
package then loads none of its submodules: a name is imported the first
time it is read, and a submodule read as an attribute
(``repro.runtime`` after a bare ``import repro``) is imported the same
way.  So a command imports only the modules it runs (see DESIGN.md,
"Import policy").
"""

from __future__ import annotations

import importlib
import sys


def exports_getattr(package: str, exports: dict):
    """The module ``__getattr__`` for ``package``'s lazy ``exports``."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is not None:
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
        elif name.startswith("_"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
