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
ascending series of N^2 ~ I_mu(2 sqrt(J mu)), walked out from the peak
in blocks from ``specfun._peak_block``, the builder ``ln_bessel_i`` sums
them with, so the cost follows the window, not n_max (``build_state``
states the tests).  The ladder enters only through the term ratio
r_n = a_{n-1} / a_n = n (n + mu) / (J mu), so a weight is exact to a few
roundings per level from the peak, with the bits the builder states.  So
a sweep's states (the ``overlap`` command's partners) are walked together
as one (state x level) block, each row aligned at its own peak, with the
tail tests as masked 2-D comparisons; only each window's 1-D sum and the
record are left per state, and every state has the bits of its
``build_state`` call, the one-state case of the same walk.

Phase evolution is exact by construction: evolving by t only shifts
gamma -> gamma + alpha t, and overlaps reduce the accumulated phase
gamma * e_n with compensated (double length) arithmetic so that phase
errors stay near machine level even after many revival periods.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ._dd import _TWO_PI, _check_cycles, phase_parts, quadratic_in_n
from .specfun import (ConvergenceError, _first_half_width, _peak_block, _peak_level, ln_bessel_i,
                      ln_gamma)
from .spectrum import (_TAIL_TOL, _TAIL_TOL_MAX, SpectrumParams, _mandel_q, _mean_n, _real,
                       _Record, moment_rho)

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
# Entries (states x levels) of one block of a sweep's walk, and of one
# batch of its overlap terms, at most, unless one state alone has more:
# a sweep's memory does not grow with its length.  A walk block of 2^14
# (128 KiB an array) built small sweeps 5-10 % faster than 2^16; an
# overlap batch also pays s1's terms and the phase parts over its union
# window, so wide sweeps need more partners a batch: at J = 1e5,
# mu = 1e3, tail_tol 1e-300, 2^16 ran the overlap 2.2x faster than 2^14,
# and small sweeps at par (interleaved runs on a 2-vCPU x86-64 VM)
_WALK_LEVELS = 1 << 14
_OVERLAP_LEVELS = 1 << 16
# Levels per piece of an overlap's dot products: OpenBLAS runs a ddot of
# up to 10 000 entries on one thread, and splits a longer one across its
# threads, with other bits
_DOT_LEVELS = 10_000
_UNCAPPED = "weight tail did not close within %d levels (J=%r, mu=%r)"


class CoherentState(_Record):
    """Truncated number-basis representation of one coherent state.

    The retained levels are the window n_min .. n_max.  ``ln_weights[n]``
    is ln w_n for n = 0 .. n_max (normalized over the window) and is
    -inf (weight 0) below ``n_min``, so weights stay indexed by level;
    ``ln_norm_sq`` is ln N^2(J) from the same partial sum.  ``n_min`` is
    the largest level whose geometric lower-tail bound is below
    ``tail_tol`` of the peak weight, or 0.  Instances are immutable and
    equal only to themselves; build them with :func:`build_state`.
    """

    _fields = ("J", "gamma", "params", "n_min", "n_max", "ln_weights", "ln_norm_sq", "tail_tol")
    __eq__, __hash__ = object.__eq__, object.__hash__


def build_state(
    J: float, gamma: float, params: SpectrumParams, tail_tol: float = _TAIL_TOL
) -> CoherentState:
    """Construct the state |J, gamma> on the ladder given by ``params``.

    Raises ValueError for J < 0, non-finite labels, or a tail_tol outside
    (0, 1e-6], and ConvergenceError when n_max would pass 10^6.  J = 0
    yields the ground state with a single retained level.

    The levels are walked out from the weight peak p, not from 0, over
    p - b .. p + a; where a tail bound has not closed in that block, the
    walk runs again with that side twice as long, up to one level past
    the cap.  b is the Gaussian half-width at which the terms fall below
    tail_tol / max(1, J); above p they fall more slowly, so a comes from
    one Newton step on a lower bound of that fall, and at a subnormal
    tail_tol reaches at least the level where n_max's test stops rounding
    to false (``_first_widths``).
    ln(a_n / a_p) is the cumulative sum of ln r_k outward from p, from
    ``specfun._peak_block``, and ln a_p = p ln J - ln rho_p the one
    ``lgamma`` pair.  This is the one-state case of ``_build_states``,
    which walks a sweep's states as one (state x level) block, each row
    aligned at its own peak, with the bits of this call.

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
    return next(_walk_block([_peak_row(J, gamma, params, tail_tol)], gamma, params, tail_tol))


def _build_states(Js, gamma: float, params: SpectrumParams, tail_tol: float):
    # The states |J, gamma> for J in Js, in order, each with the bits of
    # its one-state call.  Consecutive states are walked together, in
    # blocks of at most _WALK_LEVELS entries (rows x levels) unless one
    # row alone has more, so a sweep's memory does not grow with its
    # length; where a J fails, its error follows the states before it
    rows, below, above = [], 0, 0
    for J in Js:
        try:
            row = _peak_row(J, gamma, params, tail_tol)
        except (ValueError, TypeError, ArithmeticError, ConvergenceError):
            # the rows before it first: one of them may fail in its walk
            yield from _walk_block(rows, gamma, params, tail_tol)
            raise
        b, a = max(below, row[4]), max(above, row[5])
        if rows and (len(rows) + 1) * (b + a + 3) > _WALK_LEVELS:
            yield from _walk_block(rows, gamma, params, tail_tol)
            rows, b, a = [], row[4], row[5]
        rows.append(row)
        below, above = b, a
    yield from _walk_block(rows, gamma, params, tail_tol)


def _peak_row(J: float, gamma: float, params: SpectrumParams, tail_tol: float) -> tuple:
    # (J, J mu, p, ln a_p, b, a) of a state: its peak level, its peak
    # term, and its first block's levels below and above p (all 0 at J = 0)
    if not (math.isfinite(_real(J, "J")) and J >= 0.0):
        raise ValueError(f"J must be finite and >= 0, got {J}")
    if not math.isfinite(_real(gamma, "gamma")):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if not 0.0 < tail_tol <= _TAIL_TOL_MAX:
        raise ValueError(f"tail_tol must lie in (0, 1e-6], got {tail_tol}")
    if J == 0.0:
        return 0.0, 0.0, 0, 0.0, 0, 0
    mu = params.mu
    jmu = J * mu
    if not jmu < _HARD_CAP * (_HARD_CAP + mu):  # the peak lies past the cap
        raise ConvergenceError(_UNCAPPED % (_HARD_CAP, J, mu))
    p = _peak_level(jmu, mu)
    # ln a_p before the walk: where ln rho_p overflows, a ValueError at once
    ln_peak = p * math.log(J) - moment_rho(p, params)
    return (J, jmu, p, ln_peak, *_first_widths(J, jmu, mu, p, tail_tol))


def _first_widths(J: float, jmu: float, mu: float, p: int, tail_tol: float) -> tuple:
    # Levels below and above p in the first block of a state's walk.
    # Below, the Gaussian half-width w at which the terms fall below
    # tail_tol / max(1, J) of a_p, with the variance taken at p + 1 (the
    # upper test's root lies in [p, p + 1)): there they fall faster than
    # that Gaussian.  Above they fall more slowly, but over m levels by at
    # least G(m) = int_0^m ln((p + x)(p + x + mu) / (J mu)) dx, which is
    # convex, so one Newton step on G(m) = -ln_stop from m = w lands at or
    # past its root.  (Where J mu underflows to 0, p = 0 and a_1 = 0.)
    ln_stop = math.log(tail_tol) - max(0.0, math.log(J))
    w = _first_half_width(p + 1, mu, ln_stop)
    if not jmu > 0.0:
        return min(p, w), w
    m, ln_jmu = float(w), math.log(jmu)
    fall = _x_ln_x_rise(p, m) + _x_ln_x_rise(p + mu, m) - m * (2.0 + ln_jmu)
    m += (-ln_stop - fall) / (math.log(p + m) + math.log(p + m + mu) - ln_jmu)
    # subnormal: tail_tol (1 - s_n) rounds to 0, and n_max's test fails,
    # until 1 - s_n >= ulp(0) / (2 tail_tol), and s_n > r_n; where that
    # J mu / (1 - s_n) overflows, so does d_n before the test can close
    q = jmu / (1.0 - 0.5 * (math.ulp(0.0) / tail_tol))
    if tail_tol < 2.0**-1022 and q < math.inf:
        m = max(m, _peak_level(q, mu) - p)
    return min(p, w), 16 + int(1.1 * m)


def _x_ln_x_rise(a: float, m: float) -> float:
    # (a + m) ln(a + m) - a ln a, without cancellation for a >> m
    if a < m:
        return (a + m) * math.log(a + m) - (a * math.log(a) if a else 0.0)
    return m * math.log(a) + (a + m) * math.log1p(m / a)


def _walk_block(rows: list, gamma: float, params: SpectrumParams, tail_tol: float):
    # The states of rows from _peak_row, in order.  The first blocks of
    # the rows' walks are one (row x level) _peak_block, row i's column c
    # at level p_i - b + c, and both tail tests run on all of it as 2-D
    # comparisons: each level has the bits of one cumsum from p, so a
    # row's first passing level is its own walk's, wherever the row's
    # own first block would have ended.  A row's columns below level 0
    # are never read: level 0 passes n_min's test (r_0 = 0), unless J mu
    # underflows to 0, where p = 0 = n_min.  A row whose tails do not
    # both close within the block is walked again alone, each open side
    # twice as long, up to one level past the cap
    mu = params.mu
    walked = [row for row in rows if row[0]]
    if walked:
        # one column of labels per row, or for one row plain floats (faster)
        J, jmu, p = walked[0][:3] if len(walked) == 1 else \
            np.array([row[:3] for row in walked]).T[:, :, None]
        b, a = max(row[4] for row in walked), max(row[5] for row in walked)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ln, d = _peak_block(jmu, mu, p, b, a)
            ln, d = ln.reshape(len(walked), -1), d.reshape(len(walked), -1)
            rel = np.exp(ln)
            # n_min's test: a_k r_k / (1 - r_k) < tail_tol, r_k = d_k / (J mu)
            # <= 1 (at r_k = 1 the bound is inf and fails); hits from p down
            r = d[:, : b + 1] / jmu
            hits = (rel[:, : b + 1] * r / (1.0 - r) < tail_tol)[:, ::-1]
            # n_max's test: the energy-weighted bound is below tail_tol.
            # Where s >= 1 it fails (1 - s <= 0), and so it does where
            # d_{n+2} overflows (s is inf, or nan where d_{n+1} does too)
            d1, d2 = d[:, b + 1 : -1], d[:, b + 2 :]
            closed = rel[:, b:] * J < tail_tol * (1.0 - jmu / d1 * (d2 / d1))
        ends = zip(hits, hits.argmax(axis=1).tolist(), closed, closed.argmax(axis=1).tolist(),
                   ln, rel, d)
    for row in rows:
        J, jmu, p, ln_peak = row[:4]
        if not J:
            yield CoherentState(J=0.0, gamma=gamma, params=params, n_min=0, n_max=0,
                                ln_weights=np.zeros(1), ln_norm_sq=0.0, tail_tol=tail_tol)
            continue
        hits, i, closed, m, ln, rel, d = next(ends)
        low, high = bool(hits[i]) or not p, bool(closed[m])
        # d_n rises with n, and no level closes whose test reads one that overflows
        if not high and np.isinf(d[b:]).any():
            n = p + int(np.isinf(d[b:]).argmax())
            raise ConvergenceError(f"weight tail did not close below level {n}, where "
                                   f"d_n = n (n + mu) overflows (J={J!r}, J mu={jmu!r})")
        if p + (m if high else a) > _HARD_CAP:
            raise ConvergenceError(_UNCAPPED % (_HARD_CAP, J, mu))
        if not (low and high):
            wider = min(p, b if low else 2 * b), a if high else min(2 * a, _HARD_CAP + 1 - p)
            yield from _walk_block([(*row[:4], *wider)], gamma, params, tail_tol)
            continue
        lo = p - i if p else 0
        ln, rel = ln[b - p + lo : b + m + 1], rel[b - p + lo : b + m + 1]
        ln_sum = math.log(float(rel.sum()))
        ln_weights = np.concatenate((np.full(lo, -math.inf), ln - ln_sum))
        yield CoherentState(J, gamma, params, lo, p + m, ln_weights, ln_peak + ln_sum, tail_tol)


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
    return CoherentState(**{**state.__dict__, "gamma": gamma})


def _extended_terms(states: list, n_lo: int, n_up: int, lo=None, up=None) -> np.ndarray:
    # ln w_n on levels n_lo .. n_up, one row per state of one ladder: the
    # state's own window, and on each side of it the terms the window
    # dropped, walked out from w_{n_min} and w_{n_max} by the term ratio
    # down to level lo and up to level up (n_lo and n_up if not given;
    # -inf past them), so that a partner's weights there meet their true
    # terms.  Each side is a row-wise cumsum over the columns some row
    # walks, with steps of 0 up to the row's own window end (0 + x = x):
    # every entry has the bits of the walk from that end, however far the
    # row runs
    mu, width = states[0].params.mu, n_up + 1 - n_lo
    first, last = [s.n_min - n_lo for s in states], [s.n_max - n_lo for s in states]
    # the columns walked: from a to below f, and from m to below g
    a, f = 0 if lo is None else lo - n_lo, max(first)
    m, g = min(last) + 1, width if up is None else up + 1 - n_lo
    shape = (len(states), width)
    ln = np.empty(shape) if a == 0 and g == width else np.full(shape, -math.inf)
    for r, s in enumerate(states):
        ln[r, first[r] : last[r] + 1] = s.ln_weights[s.n_min :]
    if a >= f and m >= g:
        return ln
    rows = np.arange(len(states))[:, None]
    jmu = np.array([s.J * mu for s in states])[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if a < f:  # the step down to level n is ln r_{n+1}
            first = np.array(first)[:, None]
            k = np.arange(n_lo + a + 1, n_lo + f + 1, dtype=float)
            below = np.arange(a, f) < first
            steps = np.where(below, np.log(k * (k + mu) / jmu), 0.0)
            down = np.add.accumulate(steps[:, ::-1], axis=1)[:, ::-1]
            np.copyto(ln[:, a:f], ln[rows, first] + down, where=below)
        if m < g:  # the step up to level n is -ln r_n
            last = np.array(last)[:, None]
            k = np.arange(n_lo + m, n_lo + g, dtype=float)
            above = np.arange(m, g) > last
            steps = np.where(above, np.log(k * (k + mu) / jmu), 0.0)
            np.copyto(ln[:, m:g], ln[rows, last] - np.add.accumulate(steps, axis=1), where=above)
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

    Partners are taken in batches whose (partner x level) block of terms
    holds at most ``_OVERLAP_LEVELS`` entries, so a sweep's memory does
    not grow with its length.  s1's terms and the row of parts are built
    once per batch, over the union of the pairwise windows; the
    partners' terms past their windows are walked as one block, down
    from n_min and up from n_max, each side a row-wise cumsum; and each
    partner's series is two 1-D dot products on slices of them, each in
    pieces of at most ``_DOT_LEVELS`` levels so that its bits do not
    depend on the BLAS thread count: every entry has the bits of the
    one-state call, a batch of one.
    Raises ValueError for partners of two angles, and when
    (mu n_up + n_up^2) |dgamma| / (2 pi mu) exceeds the phase reduction
    bound of ``_dd`` (1e20).
    """
    one = isinstance(s2, CoherentState)
    values, batch, lo, up, gamma = [], [], s1.n_min, s1.n_max, None
    for s in (s2,) if one else s2:
        if s.params != s1.params:
            raise ValueError("overlap requires both states on the same ladder parameters")
        if gamma is None:
            gamma = s.gamma
        elif s.gamma != gamma:
            raise ValueError("overlap partners must share one angle")
        lo, up = min(lo, s.n_min), max(up, s.n_max)
        # the rows of s1 and of the batch with s, over the union window
        if batch and (len(batch) + 2) * (up + 1 - lo) > _OVERLAP_LEVELS:
            values += _overlaps(s1, batch)
            batch = []
            lo, up = min(s1.n_min, s.n_min), max(s1.n_max, s.n_max)
        batch.append(s)
    if batch:
        values += _overlaps(s1, batch)
    return values[0] if one else values


def _overlaps(s1: CoherentState, batch: list) -> list:
    # <s1|s2> for each s2 of a batch of one angle.  s1's terms over the
    # union window, and each s2's over its pairwise one (-inf past it, so
    # a row's max is the pairwise one), have the bits of their terms over
    # the pairwise window, and a slice of the row of parts those of the
    # pairwise row (elementwise); each pairwise series is two 1-D dot
    # products on slices, as the one-state call takes them
    n_lo = min(s1.n_min, min(s.n_min for s in batch))
    n_up = max(s1.n_max, max(s.n_max for s in batch))
    mu = s1.params.mu
    t = (batch[0].gamma - s1.gamma) / (_TWO_PI * mu)
    _check_cycles(n_up, mu, abs(t))
    re, im = phase_parts(*quadratic_in_n(np.arange(n_lo, n_up + 1, dtype=float), mu), t)
    ln2 = _extended_terms(batch, n_lo, n_up, s1.n_min, s1.n_max)
    ln_a = 0.5 * (_extended_terms([s1], n_lo, n_up)[0] + ln2)
    c = ln_a.max(axis=1)
    a = np.exp(ln_a - c[:, None])
    values = []
    for r, (s2, c) in enumerate(zip(batch, c.tolist())):
        i, j = min(s1.n_min, s2.n_min) - n_lo, max(s1.n_max, s2.n_max) + 1 - n_lo
        w, scale = a[r, i:j], math.exp(c)
        values.append(complex(_dot(re[i:j], w) * scale, _dot(im[i:j], w) * scale))
    return values


def _dot(x: np.ndarray, w: np.ndarray):
    # x @ w in consecutive pieces of at most _DOT_LEVELS levels, added in
    # order from the first piece (not from 0.0, so a window of one piece
    # keeps the bits of x @ w, -0.0 included): BLAS splits a longer dot
    # product across its threads, which changes its bits with their number
    total = x[:_DOT_LEVELS] @ w[:_DOT_LEVELS]
    for k in range(_DOT_LEVELS, len(w), _DOT_LEVELS):
        total += x[k : k + _DOT_LEVELS] @ w[k : k + _DOT_LEVELS]
    return total
