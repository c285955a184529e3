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

The quadrature is the tanh-sinh rule of Takahasi and Mori (1974) on
[0, u_max]: u = u_max (1 + tanh(pi/2 sinh t)) / 2, trapezoidal in t.
Its nodes and weights are closed forms, and the rule is nested: each
halving of the step adds only the odd multiples of the new step.  Only
the power of u changes with n, so the moments asked for together share
one window, the widest any of them needs, and one ln K_mu value per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import ConvergenceError, ln_bessel_i, ln_bessel_k, ln_gamma
from .spectrum import _ABS_TOL, _MAX_N, _REL_TOL, SpectrumParams, _real, moment_rho

__all__ = [
    "QuadratureConfig",
    "MomentReport",
    "density_rho",
    "measure_k",
    "moment_checks",
]

_CUTOFF_FACTOR = 1e-3
# tanh-sinh rule: nodes t in [-_T_MAX, _T_MAX], first step _H0, at most
# _MAX_LEVELS halvings; at |t| = 3 a node lies within 2e-14 u_max of an end
_T_MAX = 3.0
_H0 = 0.5
_MAX_LEVELS = 8
# the window walk tries _BATCH points at a time and gives up past _U_LIMIT
_BATCH = 8
_U_LIMIT = 1e6


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature tolerances for the moments scaled to 1.

    The tanh-sinh rule halves its step until, for every moment, the last
    two levels differ by at most max(abs_tol, rel_tol * |value|); the
    finer level is returned.  Since the rule's error roughly squares with
    each halving, the returned value is far closer than that bound.  The
    window [0, u_max] is cut where every scaled integrand has fallen
    below abs_tol * 1e-3 (and at least 46 nats below its peak).
    """

    abs_tol: float = _ABS_TOL
    rel_tol: float = _REL_TOL

    def __post_init__(self):
        if not (_real(self.abs_tol, "abs_tol") > 0.0 and _real(self.rel_tol, "rel_tol") > 0.0):
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
    if not _real(J, "J") > 0.0:
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

    Equals N^2(J) rho(J); for large J it falls off like sqrt(mu/J)/2,
    and as J -> 0 it tends to 1.  The product is taken in logs, so it stays
    finite where I_mu(y) underflows and K_mu(y) overflows.
    """
    if not _real(J, "J") > 0.0:
        raise ValueError(f"J must be > 0, got {J}")
    mu = p.mu
    y = 2.0 * math.sqrt(J * mu)
    return math.exp(math.log(2.0 * mu) + ln_bessel_i(mu, y) + ln_bessel_k(mu, y))


def _ln_integrand_u(u, ln_k, n, mu: float):
    # ln of u^(2n+mu+1) K_mu(u) 2^(-2n-mu) mu^(-n) / Gamma(1+mu), given
    # ln_k = ln K_mu(u); arrays broadcast, so one ln K row serves every n
    return (
        (2.0 * n + mu + 1.0) * np.log(u)
        + ln_k
        - (2.0 * n + mu) * math.log(2.0)
        - n * math.log(mu)
        - ln_gamma(1.0 + mu)
    )


def _u_window(n: np.ndarray, mu: float, ln_shift: np.ndarray, cfg: QuadratureConfig) -> float:
    # One upper limit for every n: walk right from the rightmost peak in
    # steps of an eighth of it until each scaled integrand has decayed
    # below its own truncation threshold.  The walk's points are tried
    # _BATCH at a time, so ln K is evaluated once per batch for every n.
    peaks = 2.0 * n + mu + 0.5
    ln_peak = _ln_integrand_u(peaks, ln_bessel_k(mu, peaks), n, mu) - ln_shift
    threshold = np.minimum(math.log(cfg.abs_tol * _CUTOFF_FACTOR), ln_peak - 46.0)
    u_peak = float(peaks.max())
    step = max(1.0, 0.125 * u_peak)
    k = np.arange(_BATCH)
    while u_peak + step * k[0] <= _U_LIMIT:
        u = u_peak + step * k
        ln_g = _ln_integrand_u(u, ln_bessel_k(mu, u), n[:, None], mu) - ln_shift[:, None]
        below = (ln_g <= threshold[:, None]).all(axis=0)
        if below.any():
            return float(u[np.argmax(below)])
        k += _BATCH
    raise ConvergenceError(
        f"moment integrand failed to decay below threshold (n={int(n.max())}, mu={mu})"
    )


def _tanh_sinh(t: np.ndarray, u_max: float):
    # Nodes and weights of u = u_max (1 + tanh(pi/2 sinh t)) / 2, the
    # node written so that it keeps full relative precision near u = 0.
    s = 0.5 * math.pi * np.sinh(t)
    u = u_max / (1.0 + np.exp(-2.0 * s))
    w = 0.25 * math.pi * u_max * np.cosh(t) / np.cosh(s) ** 2
    return u, w


def _scaled_moments(ns, ln_shift: np.ndarray, mu: float, cfg: QuadratureConfig) -> np.ndarray:
    # Nested tanh-sinh rule for every moment in ns at once, each scaled
    # by exp(-ln_shift) so its value is 1, on one window and one ln K row.
    n = np.asarray(ns, dtype=float)
    u_max = _u_window(n, mu, ln_shift, cfg)
    n, ln_shift = n[:, None], ln_shift[:, None]

    def node_sum(t):
        u, w = _tanh_sinh(t, u_max)
        ln_g = _ln_integrand_u(u, ln_bessel_k(mu, u), n, mu) - ln_shift
        return np.exp(ln_g) @ w

    h = _H0
    m = round(_T_MAX / h)
    total = node_sum(h * np.arange(-m, m + 1))
    estimate = h * total
    for _ in range(_MAX_LEVELS):
        # halving the step adds the odd multiples of the new step
        h *= 0.5
        m *= 2
        total = total + node_sum(h * np.arange(1 - m, m, 2))
        previous, estimate = estimate, h * total
        bound = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(estimate))
        if (np.abs(estimate - previous) <= bound).all():
            return estimate
    worst = int(np.argmax(np.abs(estimate - previous)))
    raise ConvergenceError(
        f"moment quadrature did not converge in {_MAX_LEVELS} halvings "
        f"(n={ns[worst]}, mu={mu}, last change {abs(estimate[worst] - previous[worst]):.3g})"
    )


def moment_checks(
    ns, p: SpectrumParams, cfg: QuadratureConfig = QuadratureConfig()
) -> list:
    """Integrate the moments n in ns together and compare each with the
    ladder product rho_n = n! Gamma(n+1+mu) / (mu^n Gamma(1+mu)).

    One tanh-sinh pass serves every n (see QuadratureConfig).  Raises
    ValueError where rho_n overflows a double and ConvergenceError where
    the rule's levels never agree.
    """
    ns = list(ns)
    for n in ns:
        if not 0 <= n <= _MAX_N:
            raise ValueError(f"n must lie in [0, {_MAX_N}], got {n}")
    if not ns:
        return []
    ln_rho = [moment_rho(n, p) for n in ns]
    rho = []
    for n, v in zip(ns, ln_rho):
        try:
            rho.append(math.exp(v))
        except OverflowError:
            raise ValueError(f"rho_{n} = exp({v:.6g}) overflows at mu={p.mu}") from None
    scaled = _scaled_moments(ns, np.array(ln_rho), p.mu, cfg).tolist()
    return [
        MomentReport(n=n, integral=s * r, rho_n=r, rel_err=abs(s * r - r) / r)
        for n, s, r in zip(ns, scaled, rho)
    ]
