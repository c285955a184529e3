"""Coherent states on the quadratic energy ladder e_n = n(n+mu)/mu and
their revival dynamics: state construction, time-domain analysis,
measure verification, and a CSV-producing command line.

Each module's ``__all__`` is the one list of its public names; the
package re-exports exactly their union, resolved on first access
(PEP 562).  A command executes only the modules it runs: ``import
gkrevival`` runs ``specfun`` and ``spectrum``, and the other four wait in
``sys.modules`` as lazy modules that execute on first use."""

import importlib.util
import sys

from . import specfun, spectrum

__version__ = "0.1.0"


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
