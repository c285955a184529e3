"""Resolution of unity for the coherent-state family, reduced to its
operational content: the moment problem for the measure density

    rho(J) = 2 mu (J mu)^(mu/2) K_mu(2 sqrt(J mu)) / Gamma(1 + mu),

whose n-th moment must reproduce the ladder product rho_n.  The phase
integral that kills off-diagonal projectors is analytic for a discrete
ladder, so nothing oscillatory is integrated here; what remains is a
smooth, exponentially decaying one-dimensional integrand.

Moments are evaluated after the substitution u = 2 sqrt(J mu), which
turns the integrand into u^(2n+mu+1) K_mu(u) times constants and removes
the square-root kink at the origin.  Everything is scaled by exp(-ln
rho_n) before quadrature so the target value is 1 and the absolute
tolerance is meaningful for every n and mu.
"""

import math
from dataclasses import dataclass

from .specfun import ConvergenceError, bessel_i_scaled, bessel_k_scaled, ln_bessel_k, ln_gamma
from .spectrum import SpectrumParams, moment_rho

__all__ = [
    "QuadratureConfig",
    "MomentReport",
    "density_rho",
    "measure_k",
    "moment_integral",
    "moment_check",
]

_MAX_N = 20
_CUTOFF_FACTOR = 1e-3


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature tolerances.  The domain is truncated where the scaled
    integrand has fallen below abs_tol * 1e-3 (and at least 46 nats below
    its peak)."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")


@dataclass(frozen=True)
class MomentReport:
    """Comparison of one numerical moment against the ladder product."""

    n: int
    integral: float
    rho_n: float
    rel_err: float


def density_rho(J: float, p: SpectrumParams) -> float:
    """Measure density rho(J) > 0; rho(0+) = 1 and integral over J is 1."""
    if not J > 0.0:
        raise ValueError(f"J must be > 0, got {J}")
    mu = p.mu
    y = 2.0 * math.sqrt(J * mu)
    ln_val = (
        math.log(2.0 * mu)
        + 0.5 * mu * math.log(J * mu)
        + ln_bessel_k(mu, y)
        - ln_gamma(1.0 + mu)
    )
    return math.exp(ln_val)


def measure_k(J: float, p: SpectrumParams) -> float:
    """Positive measure weight k(J) = 2 mu I_mu(y) K_mu(y), y = 2 sqrt(J mu).

    Equals N^2(J) rho(J); for large J it falls off like sqrt(mu/J)/2.
    Both factors are the kernel's scaled Bessel functions, whose term
    budget grows with y, so any finite J > 0 is served.
    """
    if not J > 0.0:
        raise ValueError(f"J must be > 0, got {J}")
    mu = p.mu
    y = 2.0 * math.sqrt(J * mu)
    return 2.0 * mu * bessel_i_scaled(mu, y) * bessel_k_scaled(mu, y)


def _ln_integrand_u(u: float, n: int, mu: float) -> float:
    # ln of u^(2n+mu+1) K_mu(u) 2^(-2n-mu) mu^(-n) / Gamma(1+mu).
    if u <= 0.0:
        return -math.inf
    return (
        (2.0 * n + mu + 1.0) * math.log(u)
        + ln_bessel_k(mu, u)
        - (2.0 * n + mu) * math.log(2.0)
        - n * math.log(mu)
        - ln_gamma(1.0 + mu)
    )


def _u_window(n: int, mu: float, ln_shift: float, cfg: QuadratureConfig) -> tuple:
    # Locate the scaled integrand's peak and the point where it has
    # decayed below the truncation threshold.
    u_peak = 2.0 * n + mu + 0.5
    ln_peak = _ln_integrand_u(u_peak, n, mu) - ln_shift
    threshold = min(math.log(cfg.abs_tol * _CUTOFF_FACTOR), ln_peak - 46.0)
    u = u_peak
    step = max(1.0, 0.125 * u_peak)
    while _ln_integrand_u(u, n, mu) - ln_shift > threshold:
        u += step
        if u > 1e6:
            raise ConvergenceError(
                f"moment integrand failed to decay below threshold (n={n}, mu={mu})"
            )
    return u_peak, u


def _run_quad(f, a: float, b: float, points, cfg: QuadratureConfig) -> float:
    # Imported here: SciPy's start-up cost is paid only by the quadrature.
    from scipy.integrate import quad

    out = quad(
        f, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=200, points=points,
        full_output=1,
    )
    if len(out) > 3:
        raise ConvergenceError(f"quadrature did not converge: {out[3]}")
    return float(out[0])


def moment_integral(
    n: int, p: SpectrumParams, cfg: QuadratureConfig = QuadratureConfig()
) -> float:
    """The n-th moment of rho as a number, by adaptive quadrature in
    u = 2 sqrt(J mu) over [0, u_max], with the peak as a break point."""
    if not 0 <= n <= _MAX_N:
        raise ValueError(f"n must lie in [0, {_MAX_N}], got {n}")
    mu = p.mu
    ln_shift = moment_rho(n, p)
    u_peak, u_max = _u_window(n, mu, ln_shift, cfg)

    def f(u: float) -> float:
        ln_g = _ln_integrand_u(u, n, mu) - ln_shift
        return math.exp(ln_g) if ln_g > -745.0 else 0.0

    return _run_quad(f, 0.0, u_max, [u_peak], cfg) * math.exp(ln_shift)


def moment_check(
    n: int, p: SpectrumParams, cfg: QuadratureConfig = QuadratureConfig()
) -> MomentReport:
    """Integrate the n-th moment and compare it with the ladder product
    rho_n = n! Gamma(n+1+mu) / (mu^n Gamma(1+mu))."""
    rho_n = math.exp(moment_rho(n, p))
    integral = moment_integral(n, p, cfg)
    return MomentReport(
        n=n, integral=integral, rho_n=rho_n, rel_err=abs(integral - rho_n) / rho_n
    )
