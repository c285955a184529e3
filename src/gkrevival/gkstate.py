"""Temporally stable coherent states on the quadratic ladder.

A state is labelled by an action J >= 0 and a phase gamma, with number
weights

    w_n = (1 / N^2(J)) J^n / rho_n,      rho_n = prod_{i<=n} e_i,

held in the log domain so that large J and large mu never overflow.  The
basis expansion is truncated at both ends of the weight peak, wherever a
geometric tail bound drops below ``tail_tol`` of the peak weight:
``n_min`` is the first retained level and ``n_max`` the last.  Near J = 0
``n_min`` is 0; at large J the weights peak near sqrt(J mu), and most
levels below the peak are dropped.  The weights are the terms of the
ascending series of N^2 ~ I_mu(2 sqrt(J mu)), walked out from the peak by
``specfun._peak_walk`` as ``ln_bessel_i`` sums them, so the cost follows
the window, not n_max (``build_state`` states the tests).  The ladder
enters only through the term ratio r_n = a_{n-1} / a_n = n (n + mu) /
(J mu), so a weight is exact to a few roundings per level from the peak.

Phase evolution is exact by construction: evolving by t only shifts
gamma -> gamma + alpha t, and overlaps reduce the accumulated phase
gamma * e_n with compensated (double length) arithmetic so that phase
errors stay near machine level even after many revival periods.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._dd import _TWO_PI, _check_cycles, phase_parts, quadratic_in_n
from .specfun import (ConvergenceError, _first_half_width, _peak_level, _peak_walk,
                      ln_bessel_i, ln_gamma)
from .spectrum import (_TAIL_TOL, _TAIL_TOL_MAX, SpectrumParams, _mandel_q, _mean_n, _real,
                       moment_rho)

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
# Levels (ln_weights entries) of the partners in one batch of an overlap
# sweep, at most, unless one partner alone has more: a sweep's memory does
# not grow with its length.
_OVERLAP_LEVELS = 1 << 16
_UNCAPPED = "weight tail did not close within %d levels (J=%r, mu=%r)"


@dataclass(frozen=True, eq=False)
class CoherentState:
    """Truncated number-basis representation of one coherent state.

    The retained levels are the window n_min .. n_max.  ``ln_weights[n]``
    is ln w_n for n = 0 .. n_max (normalized over the window) and is
    -inf (weight 0) below ``n_min``, so weights stay indexed by level;
    ``ln_norm_sq`` is ln N^2(J) from the same partial sum.  ``n_min`` is
    the largest level whose geometric lower-tail bound is below
    ``tail_tol`` of the peak weight, or 0.  Instances are immutable;
    build them with :func:`build_state`.
    """

    J: float
    gamma: float
    params: SpectrumParams
    n_min: int
    n_max: int
    ln_weights: np.ndarray
    ln_norm_sq: float
    tail_tol: float


def build_state(
    J: float, gamma: float, params: SpectrumParams, tail_tol: float = _TAIL_TOL
) -> CoherentState:
    """Construct the state |J, gamma> on the ladder given by ``params``.

    Raises ValueError for J < 0, non-finite labels, or a tail_tol outside
    (0, 1e-6], and ConvergenceError when n_max would pass 10^6.  J = 0
    yields the ground state with a single retained level.

    The levels are walked out from the weight peak p, not from 0, by
    ``_peak_walk``: first p +- the Gaussian half-width at which the terms
    fall below tail_tol / max(1, J), then, on a side whose tail bound has
    not closed, blocks twice as long as that side's last.  ln(a_n / a_p)
    is the cumulative sum of ln r_k outward from p, and ln a_p =
    p ln J - ln rho_p the one ``lgamma`` pair.  Each level is evaluated
    and tested once.

    * ``n_max`` is the first level n >= p whose energy-weighted tail
      bound a_n e_{n+1} r_n / (1 - s_n) = a_n J / (1 - s_n) is below
      ``tail_tol`` a_p, with r_n = J mu / ((n+1)(n+1+mu)) and
      s_n = r_n e_{n+2} / e_{n+1} < 1.  It keeps the action identity
      accurate to O(tail_tol) even though e_n grows like n^2/mu, and it
      also bounds the plain mass tail a_n r_n / (1 - r_n), since
      e_{n+1} > 1 and s_n >= r_n.
    * ``n_min`` is the largest level k in 1 .. p whose lower tail bound
      a_k r_k / (1 - r_k) is below ``tail_tol`` a_p, with
      r_k = k (k + mu) / (J mu) < 1; below the peak r falls as k falls,
      so the bound holds whether or not the terms are monotone.  It is 0
      where no level qualifies.

    ``ln_norm_sq`` = ln a_p + ln sum_n a_n / a_p carries the cancellation
    of the lgamma pair, an absolute error of about 2^-52 times the larger
    of ln Gamma(1 + mu) and p ln(J mu): 2.69 at J = 2, mu = 1e200, not 2.
    """
    if not (math.isfinite(_real(J, "J")) and J >= 0.0):
        raise ValueError(f"J must be finite and >= 0, got {J}")
    if not math.isfinite(_real(gamma, "gamma")):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if not 0.0 < tail_tol <= _TAIL_TOL_MAX:
        raise ValueError(f"tail_tol must lie in (0, 1e-6], got {tail_tol}")

    mu = params.mu
    if J == 0.0:
        return CoherentState(J=0.0, gamma=gamma, params=params, n_min=0, n_max=0,
                             ln_weights=np.zeros(1), ln_norm_sq=0.0, tail_tol=tail_tol)

    jmu = J * mu
    if not jmu < _HARD_CAP * (_HARD_CAP + mu):  # the peak lies past the cap
        raise ConvergenceError(_UNCAPPED % (_HARD_CAP, J, mu))
    p = _peak_level(jmu, mu)
    # the upper test asks a_n J < tail_tol a_p, and the peak root lies in
    # [p, p + 1), so the variance is taken at p + 1 (p = 0 has one too)
    w = _first_half_width(p + 1, mu, math.log(tail_tol) - max(0.0, math.log(J)))
    walk = _peak_walk(jmu, mu, p, min(p, w), w)
    blocks = [next(walk)]
    lo, ln, d = blocks[0]
    bottom = _lower_end(lo, np.exp(ln[: p - lo + 1]), d, jmu, tail_tol) if p else 0
    top = _upper_end(p, np.exp(ln[p - lo :]), d[p - lo :], J, jmu, tail_tol)
    while bottom is None:
        blocks.insert(0, walk.send(-1))
        lo, ln, d = blocks[0]
        bottom = _lower_end(lo, np.exp(ln), d, jmu, tail_tol)
    while top is None:  # closes, since the terms fall to 0 above the peak
        blocks.append(walk.send(1))
        a, ln, d = blocks[-1]
        top = _upper_end(a, np.exp(ln), d, J, jmu, tail_tol)
    if top > _HARD_CAP:
        raise ConvergenceError(_UNCAPPED % (_HARD_CAP, J, mu))

    ln = np.concatenate([b[1] for b in blocks]) if len(blocks) > 1 else blocks[0][1]
    shifted = ln[bottom - lo : top - lo + 1]
    ln_sum = math.log(float(np.exp(shifted).sum()))
    ln_weights = np.concatenate((np.full(bottom, -math.inf), shifted - ln_sum))
    return CoherentState(J=J, gamma=gamma, params=params, n_min=bottom, n_max=top,
                         ln_weights=ln_weights, tail_tol=tail_tol,
                         ln_norm_sq=p * math.log(J) - moment_rho(p, params) + ln_sum)


def _lower_end(a: int, rel: np.ndarray, d: np.ndarray, jmu: float, tail_tol: float):
    # n_min's test on levels a, a + 1, .. <= p, given a_n / a_p and d_n on
    # them: the last level with r < 1 (a prefix, r_k = d_k / (J mu) rises)
    # and a_k r_k / (1 - r_k) < tail_tol, or None; level 0 always passes
    r = d[: len(rel)] / jmu
    below = int(r.searchsorted(1.0))
    hits = (rel[:below] * r[:below] / (1.0 - r[:below]) < tail_tol).nonzero()[0]
    return a + int(hits[-1]) if len(hits) else None


def _upper_end(a: int, rel: np.ndarray, d: np.ndarray, J: float, jmu: float, tail_tol: float):
    # n_max's test on levels a >= p, a + 1, .., given a_n / a_p on them and
    # d_n on two more: the first level whose energy-weighted bound closes,
    # or None (where s >= 1 the test fails, 1 - s <= 0)
    closed = rel * J < tail_tol * (1.0 - jmu / d[1:-1] * (d[2:] / d[1:-1]))
    i = int(closed.argmax())
    return a + i if closed[i] else None


def normalization_sq(J: float, p: SpectrumParams) -> float:
    """ln N(J)^2 in closed form,

    ln Gamma(1+mu) - (mu/2) ln(J mu) + ln I_mu(2 sqrt(J mu)),

    which the series sum cached on a built state (ln_norm_sq) must
    reproduce.  J = 0 gives ln 1 = 0, and so does a J mu that underflows
    to 0, where ln N^2 ~ J mu / (1 + mu) rounds to 0.  Its terms cancel,
    to an absolute error of about 2^-52 times the largest of
    ln Gamma(1 + mu), (mu/2) ln(J mu) and p ln(J mu), the last from the
    ``lgamma`` pair of the I series' peak term (p the weight peak).
    """
    if not (math.isfinite(_real(J, "J")) and J >= 0.0):
        raise ValueError(f"J must be finite and >= 0, got {J}")
    mu = p.mu
    if J * mu == 0.0:
        return 0.0
    y = 2.0 * math.sqrt(J * mu)
    return ln_gamma(1.0 + mu) - 0.5 * mu * math.log(J * mu) + ln_bessel_i(mu, y)


def weights(state: CoherentState) -> np.ndarray:
    """Number distribution w_n for n = 0 .. n_max; 0 below n_min."""
    return np.exp(state.ln_weights)


def weight(n: int, state: CoherentState) -> float:
    """Single weight w_n; zero outside the window n_min .. n_max."""
    if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= 0):
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if n > state.n_max:
        return 0.0
    return float(math.exp(state.ln_weights[n]))


def mean_n(state: CoherentState) -> float:
    """<n> in closed form, sqrt(J mu) I_{mu+1}/I_mu at 2 sqrt(J mu), below
    sqrt(J mu) since the ratio is below one: ``spectrum._mean_n(J, mu)``,
    the one path, which the CLI calls without a state."""
    return _mean_n(state.J, state.params.mu)


def mean_energy(state: CoherentState) -> float:
    """<e_n>; equals the action J up to the truncation tail."""
    mu = state.params.mu
    n = np.arange(state.n_min, state.n_max + 1, dtype=float)
    return float(np.exp(state.ln_weights[state.n_min :]) @ (n * (n + mu) / mu))


def mandel_q(state: CoherentState) -> float:
    """Mandel parameter Q = <(dn)^2>/<n> - 1 in closed form,

    Q = sqrt(J mu) * (I_{mu+2}/I_{mu+1} - I_{mu+1}/I_mu)(2 sqrt(J mu)),

    independent of the truncation.  Negative for all J > 0 on this
    ladder (sub-Poissonian statistics).  Undefined at J = 0 (ValueError);
    raises ConvergenceError past J mu = 1e12, where cancellation in the
    ratio difference would exceed 1e-7 (no state is built that far).
    ``spectrum._mandel_q(J, mu)`` is the one path, which the CLI calls.
    """
    return _mandel_q(state.J, state.params.mu)


def evolve(state: CoherentState, t: float) -> CoherentState:
    """Time evolution: |J, gamma> -> |J, gamma + alpha t>."""
    if not math.isfinite(_real(t, "t")):
        raise ValueError(f"t must be finite, got {t}")
    gamma = state.gamma + state.params.alpha * t
    if not math.isfinite(gamma):
        raise ValueError(f"gamma + alpha t must be finite, got {gamma} at t = {t}")
    return dataclasses.replace(state, gamma=gamma)


def _overlap_terms(s: CoherentState, n_lo: int, n_up: int) -> np.ndarray:
    # ln w_n on levels n_lo .. n_up: the state's own window, and on each
    # side of it the terms the window dropped, walked out from w_{n_min}
    # and w_{n_max} by the term ratio, so that the partner's weights
    # there meet their true terms
    jmu, mu = s.J * s.params.mu, s.params.mu
    ln = np.empty(n_up + 1 - n_lo)
    ln[: s.n_max + 1 - n_lo] = s.ln_weights[n_lo:]
    if s.n_min > n_lo:
        _, down, _ = next(_peak_walk(jmu, mu, s.n_min, s.n_min - n_lo, 0))
        ln[: s.n_min - n_lo] = ln[s.n_min - n_lo] + down[:-1]
    if n_up > s.n_max:
        _, up, _ = next(_peak_walk(jmu, mu, s.n_max, 0, n_up - s.n_max))
        ln[s.n_max + 1 - n_lo :] = ln[s.n_max - n_lo] + up[1:]
    return ln


def overlap(s1: CoherentState, s2):
    """Inner product <s1|s2> of two states on the same ladder, or, for an
    iterable of partner states of one angle, the list of <s1|s2> over it.

    The series runs over levels min(n_min) .. max(n_max) of the two
    windows.  Outside its own window a state's terms are rebuilt from its
    first and last retained ones by the term ratio, so the truncation
    costs only each state's normalisation and the levels outside both
    windows, of order ``tail_tol`` each.  At the default 1e-14 the
    equal-angle overlap matches I_mu(y12) / sqrt(I_mu(y1) I_mu(y2)) to
    3e-15 absolute over the ``overlap`` command's sweeps (J mu <= 1e7,
    against 40-digit mpmath).  The phase exp(-i dgamma e_n)
    is the revival kernel's at t = dgamma / (2 pi mu): one row of
    ``_dd.phase_parts`` at that time, contracted with the weights as the
    kernel contracts its blocks (re @ a, im @ a).

    Partners are taken in batches of at most ``_OVERLAP_LEVELS`` levels,
    so a sweep's memory does not grow with its length.  s1's terms and
    the row of parts are built once per batch, over the union of the
    pairwise windows, and each partner's series runs on slices of them:
    every entry has the bits of the one-state call, a batch of one.
    Raises ValueError for partners of two angles, and when
    (mu n_up + n_up^2) |dgamma| / (2 pi mu) exceeds the phase reduction
    bound of ``_dd`` (1e20).
    """
    one = isinstance(s2, CoherentState)
    values, batch, levels, gamma = [], [], 0, None
    for s in (s2,) if one else s2:
        if s.params != s1.params:
            raise ValueError("overlap requires both states on the same ladder parameters")
        if gamma is None:
            gamma = s.gamma
        elif s.gamma != gamma:
            raise ValueError("overlap partners must share one angle")
        if batch and levels + len(s.ln_weights) > _OVERLAP_LEVELS:
            values += _overlaps(s1, batch)
            batch, levels = [], 0
        batch.append(s)
        levels += len(s.ln_weights)
    if batch:
        values += _overlaps(s1, batch)
    return values[0] if one else values


def _overlaps(s1: CoherentState, batch: list) -> list:
    # <s1|s2> for each s2 of a batch of one angle.  A slice of s1's terms
    # over the union window has the bits of its terms over the pairwise
    # one (its walks are sequential cumsums from its window ends), and a
    # slice of the row of parts those of the pairwise row (elementwise)
    n_lo = min(s1.n_min, min(s.n_min for s in batch))
    n_up = max(s1.n_max, max(s.n_max for s in batch))
    mu = s1.params.mu
    t = (batch[0].gamma - s1.gamma) / (_TWO_PI * mu)
    _check_cycles(n_up, mu, abs(t))
    ln1 = _overlap_terms(s1, n_lo, n_up)
    re, im = phase_parts(*quadratic_in_n(np.arange(n_lo, n_up + 1, dtype=float), mu), t)
    values = []
    for s2 in batch:
        lo, up = min(s1.n_min, s2.n_min), max(s1.n_max, s2.n_max)
        i, j = lo - n_lo, up + 1 - n_lo
        ln_a = 0.5 * (ln1[i:j] + _overlap_terms(s2, lo, up))
        c = float(ln_a.max())
        a = np.exp(ln_a - c)
        scale = math.exp(c)
        values.append(complex((re[i:j] @ a) * scale, (im[i:j] @ a) * scale))
    return values
