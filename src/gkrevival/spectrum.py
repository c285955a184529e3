"""Energy ladder of the deformed (position-dependent-mass) oscillator on
its discrete branch, the moment products built from it, and the two time
scales that govern wavepacket revivals.

Units: hbar = 1 throughout, so levels are reported in units of
``hbar * alpha`` and times in ``1 / alpha``.  The ladder

    e_n = n (n + mu) / mu,      mu = 2 / |Lambda| > 0,

is quadratic in n; its constant second difference 2/mu sets the revival
time ``t_rev = 2 pi mu / alpha`` and its first derivative at the centrally
excited level sets the classical period.  The cubic term vanishes
identically, so there is no superrevival scale.
"""

from __future__ import annotations

import math

from .specfun import ConvergenceError, bessel_i_ratio, ln_gamma

__all__ = [
    "SpectrumParams",
    "TimeScales",
    "energy_level",
    "moment_rho",
    "revival_time",
    "classical_period",
    "time_scales",
    "phase",
]

# Defaults and limits of gkstate and measure, stated here so that the CLI
# can read them without executing those modules.
_TAIL_TOL = 1e-14
_TAIL_TOL_MAX = 1e-6
_MAX_N = 20
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
# Q = sqrt(J mu) (r2 - r1) subtracts two Bessel ratios near 1.  Against
# 40-digit arithmetic its absolute error is about 2e-8 at J mu = 1e12,
# 8e-8 at 1e14 and 7e-6 at 1e16; truncated states end near J mu = 1e12
# too, where n_max reaches gkstate._HARD_CAP.
_MANDEL_JMU_MAX = 1e12


class _Record:
    """The package's one record type: immutable, with the constructor,
    equality, hash and repr of a frozen dataclass, but without importing
    dataclasses, which loads inspect (and with it ast, dis and tokenize)
    and generates each class's methods as its module runs.  A subclass
    names its fields in order in ``_fields``; one that validates has its
    own ``__init__``, and one with identity equality (``eq=False``) takes
    object's ``__eq__`` and ``__hash__``.  Assignment and deletion raise AttributeError, and copy
    and pickle restore that dict as they do for any plain instance."""

    _fields = ()

    def __init__(self, *args, **kwargs):
        cls, fields, values = type(self), self._fields, self.__dict__
        values.update(zip(fields, args), **kwargs)
        need = [f for f in fields if f not in values]
        fn = f"{cls.__qualname__}.__init__()"
        # a surplus positional argument, a field given twice, or an unknown keyword
        if len(values) < len(args) + len(kwargs) or len(values) + len(need) > len(fields):
            if len(args) > len(fields):
                least = len([f for f in fields if not hasattr(cls, f)]) + 1
                takes = f"from {least} to " * (least <= len(fields)) + str(len(fields) + 1)
                raise TypeError(f"{fn} takes {takes} positional arguments but {len(args) + 1} "
                                "were given")
            name = next(k for k in kwargs if k not in fields[len(args) :])
            why = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{fn} got {why} argument {name!r}")
        if missing := [repr(f) for f in need if not hasattr(cls, f)]:
            n, s = len(missing), "s" * (len(missing) > 1)
            names = ", ".join(missing[:-1]) + "," * (n > 2) + " and " * (n > 1) + missing[-1]
            raise TypeError(f"{fn} missing {n} required positional argument{s}: {names}")
        values.update({f: getattr(cls, f) for f in need})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(map(self.__dict__.__getitem__, self._fields)))

    def __repr__(self):
        items = ", ".join(f"{k}={self.__dict__[k]!r}" for k in self._fields)
        return f"{type(self).__qualname__}({items})"


class SpectrumParams(_Record):
    """Deformation parameter ``mu`` and angular frequency ``alpha`` of the
    energy ladder.  ``mu`` is real; integrality matters only for the phase
    regrouping in :mod:`gkrevival.revival` and is checked there."""

    _fields = ("mu", "alpha")

    def __init__(self, mu: float, alpha: float = 1.0):
        if not 0.0 < _real(mu, "mu") < math.inf:
            raise ValueError(f"mu must be finite and > 0, got {mu}")
        if not 0.0 < _real(alpha, "alpha") < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {alpha}")
        self.__dict__.update(mu=mu, alpha=alpha)


class TimeScales(_Record):
    """Classical period and revival time of a wavepacket on the ladder."""

    _fields = ("t_classical", "t_revival")


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} is not finite, got {value}")
    return value


def _real(x, what: str) -> float:
    # x * 1.0 converts an integer as arithmetic does, so one past the float
    # range is a ValueError here and not an OverflowError later
    try:
        return x * 1.0
    except OverflowError:
        raise ValueError(f"{what} must be finite, got an integer past the float range") from None


def energy_level(n: int, p: SpectrumParams) -> float:
    """Dimensionless level e_n = n (n + mu) / mu, in units of hbar*alpha."""
    if not n >= 0:
        raise ValueError(f"n must be >= 0, got {n}")
    n = _real(n, "n")
    return _finite(n * (n + p.mu) / p.mu, "e_n")


def moment_rho(n: int, p: SpectrumParams) -> float:
    """ln of the moment product rho_n = prod_{i=1..n} e_i.

    Gamma form: rho_n = n! Gamma(n+1+mu) / (mu^n Gamma(1+mu)), evaluated
    in the log domain with ``math.lgamma``, so it cannot overflow for any
    realistic n and needs no SciPy.  Raises ValueError where ln rho_n
    itself overflows.
    """
    if not n >= 0:
        raise ValueError(f"n must be >= 0, got {n}")
    mu = p.mu
    try:
        ln_fact, ln_rise = math.lgamma(n + 1.0), math.lgamma(n + 1.0 + mu)
    except OverflowError:
        raise ValueError(f"ln rho_n overflows for mu={mu}") from None
    return _finite(ln_fact + ln_rise - n * math.log(mu) - ln_gamma(1.0 + mu), "ln rho_n")


def revival_time(p: SpectrumParams) -> float:
    """Full revival time t_rev = 2 pi mu / alpha."""
    return _finite(2.0 * math.pi * p.mu / p.alpha, "t_rev")


def classical_period(n_bar: float, p: SpectrumParams) -> float:
    """Classical period at central level n_bar, from the exact derivative
    of the ladder: T_cl = 2 pi / (alpha (2 n_bar + mu) / mu)."""
    n_bar = _real(n_bar, "n_bar")
    if not 0.0 <= n_bar < math.inf:
        raise ValueError(f"n_bar must be finite and >= 0, got {n_bar}")
    d = p.alpha * (2.0 * n_bar + p.mu)  # 0.0 only where the product underflows
    t_cl = _finite(2.0 * math.pi * p.mu / d if d else math.inf, "T_cl")
    if not t_cl:  # the quotient underflows, or d overflows
        raise ValueError(f"T_cl underflows to 0 at alpha={p.alpha}, mu={p.mu}, n_bar={n_bar}")
    return t_cl


def time_scales(n_bar: float, p: SpectrumParams) -> TimeScales:
    """Both wavepacket time scales at central level n_bar."""
    return TimeScales(t_classical=classical_period(n_bar, p), t_revival=revival_time(p))


def phase(n: int, t: float, mu: float) -> float:
    """Raw (unreduced) phase phi_n(t) = 2 pi (mu n + n^2) t of level n, t in
    revival-time units (see :mod:`gkrevival.revival`)."""
    n, t, mu = _real(n, "n"), _real(t, "t"), _real(mu, "mu")
    if not math.isfinite(t):
        raise ValueError(f"times must be finite, got t = {t}")
    if not (n >= 0 and 0.0 < mu < math.inf):
        raise ValueError(f"phase needs n >= 0 and a finite mu > 0, got n = {n}, mu = {mu}")
    return _finite(2.0 * math.pi * (mu * n + n * n) * t, "phi_n(t)")


def _mean_n(J: float, mu: float) -> float:
    # the one evaluation of <n>; J = 0 is the ground state
    if J == 0.0:
        return 0.0
    y = 2.0 * math.sqrt(J * mu)
    return 0.5 * y * bessel_i_ratio(mu, y)


def _mandel_q(J: float, mu: float) -> float:
    # the one evaluation of Q; raises for the ground state and past the
    # cancellation bound
    if J == 0.0:
        raise ValueError("Mandel Q is undefined for the ground state (J = 0)")
    if J * mu > _MANDEL_JMU_MAX:
        raise ConvergenceError(
            f"Mandel Q is served for J*mu <= {_MANDEL_JMU_MAX:g}, where cancellation "
            f"stays below 1e-7; got J*mu = {J * mu:.3g}"
        )
    y = 2.0 * math.sqrt(J * mu)
    r1 = bessel_i_ratio(mu, y)
    r2 = bessel_i_ratio(mu + 1.0, y)
    return 0.5 * y * (r2 - r1)
