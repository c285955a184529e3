"""Coherent states on the quadratic energy ladder e_n = n(n+mu)/mu and
their revival dynamics: state construction, time-domain analysis,
measure verification, and a CSV-producing command line.

Each module's ``__all__`` is the one list of its public names; the
package re-exports exactly their union."""

from . import specfun, spectrum, gkstate, revival, measure
from .specfun import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403
from .gkstate import *  # noqa: F401,F403
from .revival import *  # noqa: F401,F403
from .measure import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*specfun.__all__, *spectrum.__all__, *gkstate.__all__, *revival.__all__,
           *measure.__all__, "__version__"]
