"""Temporally stable coherent states on the quadratic ladder.

A state is labelled by an action J >= 0 and a phase gamma, with number
weights

    w_n = (1 / N^2(J)) J^n / rho_n,      rho_n = prod_{i<=n} e_i,

held in the log domain so that large J and large mu never overflow.  The
basis expansion is truncated where the geometric tail bound drops below
``tail_tol`` of the total weight; ``n_max`` is the last retained level.

Phase evolution is exact by construction: evolving by t only shifts
gamma -> gamma + alpha t, and overlaps reduce the accumulated phase
gamma * e_n with compensated (double length) arithmetic so that phase
errors stay near machine level even after many revival periods.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._dd import phase_factors, quadratic_in_n
from .specfun import ConvergenceError, bessel_i_ratio, ln_bessel_i, ln_gamma
from .spectrum import SpectrumParams

__all__ = [
    "CoherentState",
    "build_state",
    "normalization_sq",
    "weight",
    "weights",
    "mean_n",
    "mean_energy",
    "mandel_q",
    "evolve",
    "overlap",
]

_HARD_CAP = 10**6
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class CoherentState:
    """Truncated number-basis representation of one coherent state.

    ``ln_weights[n]`` is ln w_n for n = 0 .. n_max (normalized over the
    retained levels); ``ln_norm_sq`` is ln N^2(J) from the same partial
    sum.  Instances are immutable; build them with :func:`build_state`.
    """

    J: float
    gamma: float
    params: SpectrumParams
    n_max: int
    ln_weights: np.ndarray
    ln_norm_sq: float
    tail_tol: float


def _truncation_index(J: float, mu: float, tail_tol: float) -> int:
    # Walk the term ratio r_n = J mu / ((n+1)(n+1+mu)) past the weight
    # peak until both geometric tail bounds fall below tail_tol of the
    # largest term (a lower bound on the full sum): the plain mass tail
    # a_n r/(1-r) and the energy-weighted tail a_n e_{n+1} r/(1-rg),
    # g the energy growth ratio.  The second keeps the action identity
    # accurate to O(tail_tol) even though e_n grows like n^2/mu.
    ln_a = 0.0
    ln_peak = 0.0
    ln_tol = math.log(tail_tol)
    jmu = J * mu
    n = 0
    while True:
        d1 = (n + 1.0) * (n + 1.0 + mu)
        r = jmu / d1
        if r < 1.0:
            g = (n + 2.0) * (n + 2.0 + mu) / d1
            s = r * g
            if (
                s < 1.0
                and ln_a + math.log(r) - math.log1p(-r) < ln_peak + ln_tol
                and ln_a + math.log(r) + math.log(max(1.0, d1 / mu)) - math.log1p(-s)
                < ln_peak + ln_tol
            ):
                return n
        if n >= _HARD_CAP:
            raise ConvergenceError(
                f"weight tail did not close within {_HARD_CAP} levels (J={J}, mu={mu})"
            )
        ln_a += math.log(r)
        if ln_a > ln_peak:
            ln_peak = ln_a
        n += 1


def build_state(
    J: float, gamma: float, params: SpectrumParams, tail_tol: float = 1e-14
) -> CoherentState:
    """Construct the state |J, gamma> on the ladder given by ``params``.

    Raises ValueError for J < 0, non-finite labels, or a tail_tol outside
    (0, 1e-6].  J = 0 yields the ground state with a single retained level.
    """
    if not (math.isfinite(J) and J >= 0.0):
        raise ValueError(f"J must be finite and >= 0, got {J}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if not 0.0 < tail_tol <= 1e-6:
        raise ValueError(f"tail_tol must lie in (0, 1e-6], got {tail_tol}")

    mu = params.mu
    if J == 0.0:
        return CoherentState(
            J=0.0,
            gamma=gamma,
            params=params,
            n_max=0,
            ln_weights=np.zeros(1),
            ln_norm_sq=0.0,
            tail_tol=tail_tol,
        )

    n_max = _truncation_index(J, mu, tail_tol)
    n = np.arange(n_max + 1, dtype=float)
    ln_rho = _ln_rho_vec(n, mu)
    ln_a = n * math.log(J) - ln_rho
    c = float(ln_a.max())
    ln_norm_sq = c + math.log(float(np.exp(ln_a - c).sum()))
    return CoherentState(
        J=J,
        gamma=gamma,
        params=params,
        n_max=n_max,
        ln_weights=ln_a - ln_norm_sq,
        ln_norm_sq=ln_norm_sq,
        tail_tol=tail_tol,
    )


def _ln_rho_vec(n: np.ndarray, mu: float) -> np.ndarray:
    # Same gamma-function form as spectrum.moment_rho, vectorized.
    from scipy.special import gammaln

    return gammaln(n + 1.0) + gammaln(n + 1.0 + mu) - n * math.log(mu) - ln_gamma(1.0 + mu)


def normalization_sq(J: float, p: SpectrumParams) -> float:
    """ln N(J)^2 in closed form,

    ln Gamma(1+mu) - (mu/2) ln(J mu) + ln I_mu(2 sqrt(J mu)),

    which the series sum cached on a built state (ln_norm_sq) must
    reproduce.  J = 0 gives ln 1 = 0.
    """
    if not (math.isfinite(J) and J >= 0.0):
        raise ValueError(f"J must be finite and >= 0, got {J}")
    if J == 0.0:
        return 0.0
    mu = p.mu
    y = 2.0 * math.sqrt(J * mu)
    return ln_gamma(1.0 + mu) - 0.5 * mu * math.log(J * mu) + ln_bessel_i(mu, y)


def weights(state: CoherentState) -> np.ndarray:
    """Number distribution w_n over the retained levels 0 .. n_max."""
    return np.exp(state.ln_weights)


def weight(n: int, state: CoherentState) -> float:
    """Single weight w_n; zero beyond the truncation index."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > state.n_max:
        return 0.0
    return float(math.exp(state.ln_weights[n]))


def mean_n(state: CoherentState) -> float:
    """<n> in closed form, sqrt(J mu) I_{mu+1}/I_mu at 2 sqrt(J mu);

    always below sqrt(J mu) since the ratio is below one.  The direct
    sum over the weights is the oracle this must agree with.
    """
    if state.J == 0.0:
        return 0.0
    mu = state.params.mu
    y = 2.0 * math.sqrt(state.J * mu)
    return 0.5 * y * bessel_i_ratio(mu, y)


def mean_energy(state: CoherentState) -> float:
    """<e_n>; equals the action J up to the truncation tail."""
    mu = state.params.mu
    n = np.arange(state.n_max + 1, dtype=float)
    return float(np.exp(state.ln_weights) @ (n * (n + mu) / mu))


def mandel_q(state: CoherentState) -> float:
    """Mandel parameter Q = <(dn)^2>/<n> - 1 in closed form,

    Q = sqrt(J mu) * (I_{mu+2}/I_{mu+1} - I_{mu+1}/I_mu)(2 sqrt(J mu)),

    independent of the truncation.  Negative for all J > 0 on this
    ladder (sub-Poissonian statistics).  Undefined at J = 0.
    """
    if state.J == 0.0:
        raise ValueError("Mandel Q is undefined for the ground state (J = 0)")
    mu = state.params.mu
    y = 2.0 * math.sqrt(state.J * mu)
    r1 = bessel_i_ratio(mu, y)
    r2 = bessel_i_ratio(mu + 1.0, y)
    return 0.5 * y * (r2 - r1)


def evolve(state: CoherentState, t: float) -> CoherentState:
    """Time evolution: |J, gamma> -> |J, gamma + alpha t>."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return dataclasses.replace(state, gamma=state.gamma + state.params.alpha * t)


def overlap(s1: CoherentState, s2: CoherentState) -> complex:
    """Inner product <s1|s2> of two states on the same ladder.

    The series runs to the larger of the two truncation indices; since
    each term is the geometric mean of the two weight sequences, the
    neglected tail is no larger than the mean of the two state tails.
    """
    if s1.params != s2.params:
        raise ValueError("overlap requires both states on the same ladder parameters")
    n_up = max(s1.n_max, s2.n_max)
    ln1 = np.full(n_up + 1, -math.inf)
    ln2 = np.full(n_up + 1, -math.inf)
    ln1[: s1.n_max + 1] = s1.ln_weights + s1.ln_norm_sq
    ln2[: s2.n_max + 1] = s2.ln_weights + s2.ln_norm_sq
    ln_a = 0.5 * (ln1 + ln2)
    c = float(ln_a.max())
    # exp(-i dgamma e_n) with e_n = (mu n + n^2) / mu: the quadratic is
    # reduced mod 1 against dgamma / (2 pi mu) before the 2 pi multiply.
    mu = s1.params.mu
    m_hi, m_lo = quadratic_in_n(np.arange(n_up + 1, dtype=float), mu)
    phases = phase_factors(m_hi, m_lo, (s2.gamma - s1.gamma) / (_TWO_PI * mu))
    terms = np.exp(ln_a - c) * phases
    scale = math.exp(c - 0.5 * (s1.ln_norm_sq + s2.ln_norm_sq))
    return complex(terms.sum() * scale)
