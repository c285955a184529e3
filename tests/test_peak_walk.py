"""The peak-outward walk of the I_mu series terms: built states and the
overlap's terms on both sides of a window against the range-doubling build they
replaced, bit for bit, and ln N^2 against 40-digit arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkrevival import gkstate
from gkrevival.gkstate import build_state, normalization_sq
from gkrevival.specfun import ConvergenceError, _first_half_width, _peak_level
from gkrevival.spectrum import SpectrumParams, moment_rho

_CAP = 10**6


def _build_reference(J, mu, tail_tol):
    # (n_min, n_max, ln_norm_sq, ln_weights) of a state with J > 0 as the
    # range-doubling build computed them: one range around the peak p,
    # summed again from p each time it doubles, until both tails close
    jmu = J * mu
    n0 = 2.0 * jmu / (mu + math.hypot(mu, 2.0 * math.sqrt(jmu)))
    if not n0 < _CAP:
        raise ConvergenceError("peak past the cap")
    p = int(n0)
    while p > 0 and p * (p + mu) > jmu:
        p -= 1
    while (p + 1) * (p + 1 + mu) <= jmu:
        p += 1
    c = p * math.log(J) - moment_rho(p, SpectrumParams(mu))
    w = _first_half_width(p + 1, mu, math.log(tail_tol) - max(0.0, math.log(J)))
    lo, hi = max(0, p - w), min(_CAP, p + w)
    while True:
        k = np.arange(lo, hi + 3, dtype=float)
        d = k * (k + mu)
        peak = p - lo
        with np.errstate(divide="ignore", over="ignore"):
            ln_r = np.log(k[1:-2] * (k[1:-2] + mu) / (J * mu))
        shifted = np.concatenate(
            (np.cumsum(ln_r[:peak][::-1])[::-1], [0.0], -np.cumsum(ln_r[peak:]))
        )
        rel = np.exp(shifted)
        d1 = d[peak + 1 : -1]
        s = jmu / d1 * (d[peak + 2 :] / d1)
        closed = rel[peak:] * J < tail_tol * (1.0 - s)
        top = int(closed.argmax()) if closed.any() else None
        k0 = 1 if lo == 0 else 0
        r = d[k0 : peak + 1] / jmu
        below = int(np.searchsorted(r, 1.0))
        hits = np.flatnonzero(rel[k0 : k0 + below] * r[:below] / (1.0 - r[:below]) < tail_tol)
        bottom = k0 + int(hits[-1]) if len(hits) else (0 if lo == 0 else None)
        if top is not None and bottom is not None:
            break
        if top is None:
            if hi == _CAP:
                raise ConvergenceError("tail past the cap")
            hi = min(_CAP, p + 2 * (hi - p))
        if bottom is None:
            lo = max(0, p - 2 * (p - lo))
    ln_sum = math.log(float(rel[bottom : peak + top + 1].sum()))
    ln_weights = np.full(lo + peak + top + 1, -math.inf)
    ln_weights[lo + bottom :] = shifted[bottom : peak + top + 1] - ln_sum
    return lo + bottom, lo + peak + top, c + ln_sum, ln_weights


def _overlap_terms_reference(s, n_lo, n_up):
    # ln w_n on n_lo .. n_up, stepped down from w_{n_min} and up from
    # w_{n_max} by the term ratio
    ln = np.full(n_up + 1 - n_lo, -math.inf)
    ln[: s.n_max + 1 - n_lo] = s.ln_weights[n_lo:]
    if s.n_min > n_lo:
        k = np.arange(n_lo + 1, s.n_min + 1, dtype=float)
        steps = np.log(k * (k + s.params.mu) / (s.J * s.params.mu))
        ln[: s.n_min - n_lo] = ln[s.n_min - n_lo] + np.cumsum(steps[::-1])[::-1]
    if n_up > s.n_max:
        k = np.arange(s.n_max + 1, n_up + 1, dtype=float)
        steps = np.log(k * (k + s.params.mu) / (s.J * s.params.mu))
        ln[s.n_max + 1 - n_lo :] = ln[s.n_max - n_lo] - np.cumsum(steps)
    return ln


def _assert_same_state(J, mu, tail_tol):
    try:
        ref = _build_reference(J, mu, tail_tol)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            build_state(J, 0.0, SpectrumParams(mu), tail_tol)
        return None
    s = build_state(J, 0.0, SpectrumParams(mu), tail_tol)
    assert (s.n_min, s.n_max, s.ln_norm_sq) == ref[:3]
    assert s.ln_weights.tobytes() == ref[3].tobytes()
    return s


_TAIL_TOL = st.one_of(
    st.floats(min_value=-300.0, max_value=-50.0),
    st.floats(min_value=-50.0, max_value=-6.0),
).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None)
@given(
    log_j=st.floats(min_value=-3.0, max_value=8.0),
    log_mu=st.floats(min_value=-2.0, max_value=math.log10(3e3)),
    tail_tol=_TAIL_TOL,
    ratio=st.floats(min_value=0.25, max_value=4.0),
)
def test_walk_matches_range_doubling(log_j, log_mu, tail_tol, ratio):
    # the same state bit for bit, and for a pair of states the same
    # overlap terms, including those walked below and above each window
    J, mu = 10.0**log_j, 10.0**log_mu
    s1 = _assert_same_state(J, mu, tail_tol)
    s2 = _assert_same_state(J * ratio, mu, tail_tol)
    if s1 is None or s2 is None:
        return
    n_lo, n_up = min(s1.n_min, s2.n_min), max(s1.n_max, s2.n_max)
    for s in (s1, s2):
        got = gkstate._overlap_terms(s, n_lo, n_up)
        assert got.tobytes() == _overlap_terms_reference(s, n_lo, n_up).tobytes()


@pytest.mark.parametrize("J,mu", [(1e-200, 1e-200), (9.7e11, 1.0), (1e5, 1e15)])
def test_walk_matches_range_doubling_fixed(J, mu):
    # J mu underflowing to 0; a window ending just below the level cap
    # (just past it at 1e-300); mu dwarfing every level
    for tail_tol in (1e-14, 1e-300):
        _assert_same_state(J, mu, tail_tol)


@settings(max_examples=40, deadline=None)
@given(
    mu=st.one_of(st.floats(min_value=0.01, max_value=100.0),
                 st.floats(min_value=-2.0, max_value=3.0).map(lambda e: 10.0**e)),
    log_jmu=st.floats(min_value=-6.0, max_value=7.0),
)
def test_ln_norm_sq_against_mpmath(mu, log_jmu):
    """ln N^2 from the series (ln_norm_sq) and the closed form
    (normalization_sq) against 40-digit mpmath, for J mu <= 1e7.  Both
    carry the lgamma cancellation their docstrings state, an absolute
    error of about 2^-52 times the largest of ln Gamma(1 + mu),
    (mu/2) ln(J mu) and p ln(J mu); the series also drops tail mass below
    tail_tol of its peak term on each side."""
    import mpmath

    J = 10.0**log_jmu / mu
    p = SpectrumParams(mu)
    s = build_state(J, 0.0, p)
    with mpmath.workdps(40):
        j, m = mpmath.mpf(J), mpmath.mpf(mu)
        ref = float(mpmath.loggamma(1 + m) - m / 2 * mpmath.log(j * m)
                    + mpmath.log(mpmath.besseli(m, 2 * mpmath.sqrt(j * m))))
    ln_jmu = abs(math.log(J * mu))
    scale = max(1.0, math.lgamma(1.0 + mu), 0.5 * mu * ln_jmu, _peak_level(J * mu, mu) * ln_jmu)
    tol = 16.0 * 2.0**-52 * scale
    assert abs(s.ln_norm_sq - ref) <= tol + 2.0 * s.tail_tol
    assert abs(normalization_sq(J, p) - ref) <= tol
