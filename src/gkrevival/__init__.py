"""Coherent states on the quadratic energy ladder e_n = n(n+mu)/mu and
their revival dynamics: state construction, time-domain analysis,
measure verification, and a CSV-producing command line.

Each module's ``__all__`` is the one list of its public names; the
package re-exports exactly their union, resolved on first access
(PEP 562).  A command executes only the modules it runs: ``import
gkrevival`` runs ``specfun`` and ``spectrum``, and the other four wait in
``sys.modules`` as ``_LazyModule`` instances that execute on first use."""

import importlib.util
import sys
import threading
import types

from . import specfun, spectrum

__version__ = "0.1.0"

_lock = threading.RLock()


class _LazyModule(types.ModuleType):
    """A module that executes on its first attribute access, ``vars()``
    included.  The first access runs the code once under the package
    lock, and the module becomes a plain ``ModuleType`` only after the
    code has run, so another thread waits for it instead of reading a
    half-executed module."""

    def __getattribute__(self, attr):
        get = types.ModuleType.__getattribute__
        with _lock:
            spec = get(self, "__spec__")
            # reads by the executing code itself find loader_state None
            if spec.loader_state == "lazy":
                spec.loader_state = None
                spec.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return get(self, attr)


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader_state = "lazy"
    sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    return module


_dd, gkstate, revival, measure = map(_lazy, ("_dd", "gkstate", "revival", "measure"))
_MODULES = (specfun, spectrum, gkstate, revival, measure)


def __getattr__(name):
    if name == "__all__":
        return [n for mod in _MODULES for n in mod.__all__] + ["__version__"]
    for mod in _MODULES:
        if name in mod.__all__:
            return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
