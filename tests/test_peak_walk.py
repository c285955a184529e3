"""The peak-outward walk of the I_mu series terms: ln_bessel_i against
the blockwise walk that summed it before specfun._peak_block, built states
and the overlap's terms on both sides of a window against the
range-doubling build they replaced, bit for bit, a sweep's batched walk
against one-state calls, the first block's size at tiny tail_tol, and
ln N^2 against 40-digit arithmetic."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkrevival import gkstate, specfun
from gkrevival.cli import _sweep_grid
from gkrevival.gkstate import build_state, normalization_sq, overlap
from gkrevival.specfun import ConvergenceError, _first_half_width, _peak_level, ln_bessel_i
from gkrevival.spectrum import SpectrumParams, moment_rho

_CAP = 10**6


def _digest(ln):
    return hashlib.blake2b(ln.tobytes()).hexdigest()


def _ln_bessel_i_reference(nu, x):
    # ln I_nu(x) as the walk summed it before the shared block builder, and
    # a digest of each block's ln(t_k / t_peak) in walk order: a first block
    # of one cumsum per side from the peak, then per side blocks twice the
    # last, at most _WALK_BLOCK levels and none below 0, each a cumsum
    # whose first step carries the side's end; the same tail tests
    ln_half, q = math.log(0.5 * x), 0.25 * x * x
    p = _peak_level(q, nu)
    ln_peak = (nu + 2.0 * p) * ln_half - math.lgamma(p + 1.0) - math.lgamma(nu + p + 1.0)
    ln_stop = math.log(specfun._REL_TOL) - 3.0
    budget = specfun._term_budget(x)
    above = min(_first_half_width(p, nu, ln_stop), specfun._WALK_BLOCK, budget // 2)
    below = min(p, above)
    k = np.arange(p - below, p + above + 3, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = k * (k + nu)
        ln_r = np.log(d[1 : below + above + 1] / q)
    ln = np.concatenate((np.cumsum(ln_r[:below][::-1])[::-1], [0.0], -np.cumsum(ln_r[below:])))
    total, count, blocks = float(np.exp(ln).sum()), len(ln), [_digest(ln)]
    for side, edge, size, end, d_out in ((1, p + above, above, ln[-1], d[-2]),
                                         (-1, p - below, below, ln[0], d[0])):
        while side > 0 or d_out > 0:
            step = side * (2.0 * ln_half - math.log(d_out))
            r = math.exp(step)
            if r < 1.0 and end + step - math.log1p(-r) < ln_stop:
                break
            if count > budget:
                raise ConvergenceError("budget")
            size = min(2 * size, specfun._WALK_BLOCK, edge if side < 0 else specfun._WALK_BLOCK)
            a = edge + 1 if side > 0 else edge - size
            k = np.arange(a, a + size + 2, dtype=float)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                d = k * (k + nu)
                steps = -np.log(d[:size] / q) if side > 0 else np.log(d[1 : size + 1] / q)[::-1]
            steps[0] += end
            ln = np.cumsum(steps)[::side]
            end, d_out = (ln[-1], d[-2]) if side > 0 else (ln[0], d[0])
            edge += side * size
            total, count = total + float(np.exp(ln).sum()), count + size
            blocks.append(_digest(ln))
    return ln_peak + math.log(total), blocks


def _ln_bessel_i_walked(nu, x):
    # ln_bessel_i(nu, x), and a digest of each block it walked, less the
    # seed level of each block past the first
    blocks, real = [], specfun._peak_block

    def spy(q, nu, p, below, above, seed=0.0):
        ln, d = real(q, nu, p, below, above, seed)
        blocks.append(_digest(ln if not blocks else ln[1:] if below == 0 else ln[:-1]))
        return ln, d

    with mock.patch.object(specfun, "_peak_block", spy):
        return ln_bessel_i(nu, x), blocks


@pytest.mark.parametrize("nu,x,past_first", [(40.5, 1e5, 0), (80.0, 1.41e8, 1), (0.0, 1e10, 6),
                                             (80.0, 1e12, 69)])
def test_ln_bessel_i_matches_blockwise_walk_fixed(nu, x, past_first):
    # points whose walks take 0, 1, 6 and 69 blocks past the first a side
    ref, ref_blocks = _ln_bessel_i_reference(nu, x)
    value, blocks = _ln_bessel_i_walked(nu, x)
    assert len(ref_blocks) == 1 + 2 * past_first
    assert value.hex() == ref.hex() and blocks == ref_blocks


@settings(max_examples=200, deadline=None)
@given(nu=st.one_of(st.just(0.0), st.floats(0.0, 300.0),
                    st.floats(-3.0, 300.0).map(lambda e: 10.0**e)),
       log_x=st.one_of(st.floats(-300.0, 9.0), st.floats(7.5, 10.0)))
def test_ln_bessel_i_matches_blockwise_walk(nu, log_x):
    # the value and every block's bits, whatever the block count; np.log
    # bits may differ between CPUs, so the reference is recomputed here,
    # never read from a table
    x = 10.0**log_x
    try:
        ref = _ln_bessel_i_reference(nu, x)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            ln_bessel_i(nu, x)
        return
    value, blocks = _ln_bessel_i_walked(nu, x)
    assert value.hex() == ref[0].hex() and blocks == ref[1]


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
).map(lambda e: 10.0**e) | st.sampled_from([5e-324, 1.5e-323, 1e-320, 1e-310])


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
        got = gkstate._extended_terms([s], n_lo, n_up)[0]
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


def _bits(s):
    return s.J.hex(), s.n_min, s.n_max, s.ln_norm_sq.hex(), s.ln_weights.tobytes()


def _until_error(states):
    # the states an iterable yields up to its first error, and that error
    built = []
    try:
        for s in states:
            built.append(s)
    except (ValueError, ConvergenceError) as exc:
        return built, (type(exc), str(exc))
    return built, None


_CAP_JMU = _CAP * (_CAP + 1.0)


@st.composite
def _sweeps(draw):
    # a sweep's J values on one ladder: the overlap command's grid, one
    # running down to J -> 0, or a few J mu near the level cap; now and
    # then with a bad J among them
    mu = 10.0 ** draw(st.floats(-2.0, 4.0))
    kind = draw(st.sampled_from(["grid", "to_zero", "near_cap"]))
    if kind == "near_cap":
        Js = [_CAP_JMU / mu * draw(st.floats(0.995, 1.005)) for _ in range(draw(st.integers(1, 3)))]
    else:
        J = 10.0 ** draw(st.floats(-3.0, 6.0 - max(0.0, math.log10(mu))))
        if kind == "grid":
            Js = _sweep_grid(2.0 * J, draw(st.integers(2, 40)))
        else:
            Js = [J * 10.0 ** -e for e in draw(st.lists(st.floats(0.0, 300.0), min_size=1,
                                                        max_size=12))]
    if draw(st.booleans()) and draw(st.booleans()):
        Js.insert(draw(st.integers(0, len(Js))), draw(st.sampled_from([-1.0, math.nan, math.inf])))
    return mu, Js


@settings(max_examples=120, deadline=None)
@given(sweep=_sweeps(), tail_tol=_TAIL_TOL, short=st.sampled_from([None, 1, 3]),
       levels=st.sampled_from([64, 1000, gkstate._WALK_LEVELS, gkstate._OVERLAP_LEVELS]))
def test_batched_walk_matches_one_state_calls(sweep, tail_tol, short, levels):
    # a sweep walked as (partner x level) blocks, some rows of which
    # (short) start from first blocks of 1 or 3 levels a side and so need
    # blocks past the first: each state has the bits of build_state, the
    # first error comes from the same partner with the same message, and
    # every row of the overlap's extended terms has the bits of
    # _extended_terms([s], a, b) over the pairwise window, and -inf past it
    mu, Js = sweep
    p = SpectrumParams(mu)
    real = gkstate._first_widths

    def widths(J, jmu, mu, peak, tail_tol):
        if short and int(J * 1e6) % 2:
            return min(peak, short), short
        return real(J, jmu, mu, peak, tail_tol)

    with mock.patch.object(gkstate, "_first_widths", widths), \
            mock.patch.object(gkstate, "_WALK_LEVELS", levels):
        one = _until_error(build_state(J, 0.0, p, tail_tol) for J in Js)
        batched = _until_error(gkstate._build_states(Js, 0.0, p, tail_tol))
    assert [_bits(s) for s in batched[0]] == [_bits(s) for s in one[0]]
    assert batched[1] == one[1]
    states = one[0]
    if not states:
        return
    s1 = states[len(states) // 2]
    calls = []
    real_terms = gkstate._extended_terms

    def spy(states, n_lo, n_up, lo=None, up=None):
        ln = real_terms(states, n_lo, n_up, lo, up)
        calls.append((states, n_lo, n_up, lo, up, ln))
        return ln

    with mock.patch.object(gkstate, "_extended_terms", spy), \
            mock.patch.object(gkstate, "_OVERLAP_LEVELS", levels):
        values = overlap(s1, states)
    assert [v.real.hex() + v.imag.hex() for v in values] == \
        [(v := overlap(s1, s)).real.hex() + v.imag.hex() for s in states]
    for batch, n_lo, n_up, lo, up, ln in calls:
        for s, row in zip(batch, ln):
            a = n_lo if lo is None else min(lo, s.n_min)
            b = n_up if up is None else max(up, s.n_max)
            own = gkstate._extended_terms([s], a, b)[0]
            assert row[a - n_lo : b + 1 - n_lo].tobytes() == own.tobytes()
            assert np.all(row[: a - n_lo] == -math.inf) and np.all(row[b + 1 - n_lo :] == -math.inf)


@pytest.mark.parametrize("mu,tail_tol", [(28.0, 1e-300), (1e3, 1e-300), (28.0, 1e-14), (1e5, 5e-324)])
def test_tiny_tail_tol_closes_in_first_block(mu, tail_tol):
    # Every state of the 200-point sweep at J = 1e4, and its own state,
    # closes both tails in the first block of its walk, one state at a
    # time and batched.  The first block is sized from a Gaussian below
    # the peak and from a Newton step on a lower bound of the fall of the
    # log-terms above it: at (1e4, 28, 1e-300) it walks 1321 levels for
    # the window 44 .. 1232, where a Gaussian on both sides walked 1201,
    # then 1370 more above
    p = SpectrumParams(mu)
    rows, real = [], gkstate._walk_block

    def spy(block, *args):  # a row walked again, wider, comes back here
        rows.extend(block)
        return real(block, *args)

    with mock.patch.object(gkstate, "_walk_block", spy):
        states = [build_state(J, 0.0, p, tail_tol) for J in [1e4, *_sweep_grid(2e4, 200)]]
        batched = list(gkstate._build_states(_sweep_grid(2e4, 200), 0.0, p, tail_tol))
    assert len(rows) == len(states) + len(batched)
    assert [_bits(s) for s in batched] == [_bits(s) for s in states[1:]]
    if (mu, tail_tol) == (28.0, 1e-300):
        s = states[0]
        _, _, peak, _, below, above = gkstate._peak_row(1e4, 0.0, p, tail_tol)
        assert (s.n_min, s.n_max, peak) == (44, 1232, 515)
        assert (below, above) == (515, 805)
        assert below + above + 1 == 1321


@pytest.mark.parametrize("q,nu,p", [(3.9999999999999996, 0.0, 1), (613.8000000000001, 16.1, 18)])
def test_peak_level_corrects_its_estimate(q, nu, p):
    # the closed-form estimate is one level off, 2 above and 17 below
    # max{k : k (k + nu) <= q}, and the two steps after it move it there
    assert _peak_level(q, nu) == p
    assert p * (p + nu) <= q < (p + 1) * (p + 1 + nu)


def test_ground_state_in_a_batched_walk():
    # J = 0 is the ground state, walked in the same block as J = 2
    p = SpectrumParams(28.0)
    batched = list(gkstate._build_states([0.0, 2.0], 0.0, p, 1e-14))
    assert [_bits(s) for s in batched] == [_bits(build_state(J, 0.0, p, 1e-14)) for J in (0.0, 2.0)]
    ground = batched[0]
    assert (ground.n_min, ground.n_max) == (0, 0) and ground.ln_weights.tolist() == [0.0]
