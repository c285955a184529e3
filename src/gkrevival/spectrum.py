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
from dataclasses import dataclass

from .specfun import ln_gamma

__all__ = [
    "SpectrumParams",
    "TimeScales",
    "energy_level",
    "moment_rho",
    "revival_time",
    "classical_period",
    "time_scales",
]


@dataclass(frozen=True)
class SpectrumParams:
    """Deformation parameter ``mu`` and angular frequency ``alpha`` of the
    energy ladder.  ``mu`` is real; integrality matters only for the phase
    regrouping in :mod:`gkrevival.revival` and is checked there."""

    mu: float
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")


@dataclass(frozen=True)
class TimeScales:
    """Classical period and revival time of a wavepacket on the ladder."""

    t_classical: float
    t_revival: float


def energy_level(n: int, p: SpectrumParams) -> float:
    """Dimensionless level e_n = n (n + mu) / mu, in units of hbar*alpha."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return n * (n + p.mu) / p.mu


def moment_rho(n: int, p: SpectrumParams) -> float:
    """ln of the moment product rho_n = prod_{i=1..n} e_i.

    Gamma form: rho_n = n! Gamma(n+1+mu) / (mu^n Gamma(1+mu)), evaluated
    in the log domain with ``math.lgamma``, so it cannot overflow for any
    realistic n and needs no SciPy.  Raises ValueError where ln rho_n
    itself overflows.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    mu = p.mu
    try:
        ln_fact, ln_rise = math.lgamma(n + 1.0), math.lgamma(n + 1.0 + mu)
    except OverflowError:
        raise ValueError(f"ln rho_n overflows for mu={mu}") from None
    return ln_fact + ln_rise - n * math.log(mu) - ln_gamma(1.0 + mu)


def revival_time(p: SpectrumParams) -> float:
    """Full revival time t_rev = 2 pi mu / alpha."""
    return 2.0 * math.pi * p.mu / p.alpha


def classical_period(n_bar: float, p: SpectrumParams) -> float:
    """Classical period at central level n_bar, from the exact derivative
    of the ladder: T_cl = 2 pi / (alpha (2 n_bar + mu) / mu)."""
    if n_bar < 0.0:
        raise ValueError(f"n_bar must be >= 0, got {n_bar}")
    return 2.0 * math.pi * p.mu / (p.alpha * (2.0 * n_bar + p.mu))


def time_scales(n_bar: float, p: SpectrumParams) -> TimeScales:
    """Both wavepacket time scales at central level n_bar."""
    return TimeScales(t_classical=classical_period(n_bar, p), t_revival=revival_time(p))
