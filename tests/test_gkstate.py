"""State tests: normalization, weight shape, closed-form/series duality
(the module's master property), observables, evolution, and overlaps."""

import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkrevival import gkstate
from gkrevival._dd import phase_parts, quadratic_in_n
from gkrevival.cli import RunConfig, _lines, _rows_overlap, _sweep_grid
from gkrevival.gkstate import (
    CoherentState,
    build_state,
    evolve,
    mandel_q,
    mean_energy,
    mean_n,
    normalization_sq,
    overlap,
    weight,
    weights,
)
from gkrevival.specfun import ConvergenceError, ln_bessel_i
from gkrevival.spectrum import SpectrumParams, moment_rho

J_GRID = [0.1, 1.0, 10.0]
MU_GRID = [0.5, 1.0, 28.0, 80.0]


def _state(J, mu, gamma=0.0, tail_tol=1e-14):
    return build_state(J, gamma, SpectrumParams(mu=mu), tail_tol)


def test_build_validation():
    p = SpectrumParams(mu=2.0)
    with pytest.raises(ValueError):
        build_state(-0.5, 0.0, p)
    with pytest.raises(ValueError):
        build_state(math.nan, 0.0, p)
    with pytest.raises(ValueError):
        build_state(1.0, math.inf, p)
    with pytest.raises(ValueError):
        build_state(1.0, 0.0, p, tail_tol=0.0)
    with pytest.raises(ValueError):
        build_state(1.0, 0.0, p, tail_tol=1e-3)


def test_ground_state():
    s = _state(0.0, 28.0)
    assert s.n_max == 0
    assert weight(0, s) == 1.0
    assert weight(5, s) == 0.0
    assert mean_n(s) == 0.0
    assert mean_energy(s) == 0.0
    with pytest.raises(ValueError):
        mandel_q(s)


@pytest.mark.parametrize("J", J_GRID)
@pytest.mark.parametrize("mu", MU_GRID)
def test_normalization(J, mu):
    s = _state(J, mu)
    total = float(np.exp(s.ln_weights).sum())
    assert 1.0 - 1e-10 <= total <= 1.0 + 1e-12


@pytest.mark.parametrize("J,mu", [(1e8, 1.0), (1e6, 40.5), (1e5, 80.0)])
def test_normalization_large_j(J, mu):
    # weights are normalised against the peak term, not against ln N^2
    # (~2e4 at J = 1e8), so the sum stays at 1 to rounding
    s = _state(J, mu)
    assert abs(float(np.exp(s.ln_weights).sum()) - 1.0) <= 1e-14


@pytest.mark.parametrize("J", [0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("mu", MU_GRID)
def test_action_identity(J, mu):
    s = _state(J, mu)
    assert abs(mean_energy(s) - J) < 10.0 * s.tail_tol * max(1.0, J)


@pytest.mark.parametrize("mu", [28.0, 80.0])
def test_weight_unimodal(mu):
    s = _state(10.0, mu)
    w = weights(s)
    k = int(np.argmax(w))
    assert 0 < k < s.n_max
    assert all(w[i] < w[i + 1] for i in range(k))
    assert all(w[i] > w[i + 1] for i in range(k, s.n_max))
    # peak below <n> + 1
    assert k < mean_n(s) + 1.0


@pytest.mark.parametrize("J,mu", [(10.0, 28.0), (3.3, 0.5), (40.0, 80.0)])
def test_weight_ratio(J, mu):
    s = _state(J, mu)
    w = weights(s)
    for n in range(s.n_max):
        if w[n] < 1e-280:
            continue
        assert math.isclose(
            w[n + 1] / w[n], J * mu / ((n + 1.0) * (n + 1.0 + mu)), rel_tol=1e-10
        )


def test_weight_negative_index():
    s = _state(1.0, 2.0)
    with pytest.raises(ValueError):
        weight(-1, s)


@pytest.mark.parametrize("J,mu", [(10.0, 28.0), (10.0, 80.0), (1.0, 2.0),
                                  (1e6, 40.5), (1e6, 80.0), (1e8, 1.0)])
def test_norm_closed_vs_series(J, mu):
    # series ln N^2 is cached on the state; closed form must match
    s = _state(J, mu)
    assert abs(math.exp(normalization_sq(J, SpectrumParams(mu=mu)) - s.ln_norm_sq) - 1.0) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(min_value=1.0, max_value=80.0, exclude_min=True),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_norm_closed_vs_series_large_j(mu, frac):
    # J log-uniform from 1e-3 up to J mu = 1e8, past the J mu ~ 2.1e7
    # where a fixed 5000-term series budget used to give out
    J = math.exp(math.log(1e-3) + frac * (math.log(1e8 / mu) - math.log(1e-3)))
    p = SpectrumParams(mu=mu)
    series = build_state(J, 0.0, p).ln_norm_sq
    assert abs(normalization_sq(J, p) - series) <= 1e-12 * max(1.0, abs(series))


def _two_bound_truncation_index(J, mu, tail_tol):
    # reference walk that tests both tail bounds: the plain mass tail
    # a_n r/(1-r) and the energy-weighted tail a_n e_{n+1} r/(1-s)
    ln_a = ln_peak = 0.0
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
        ln_a += math.log(r)
        ln_peak = max(ln_peak, ln_a)
        n += 1


@settings(max_examples=150, deadline=None)
@given(
    log_j=st.floats(min_value=-8.0, max_value=6.0),
    mu=st.one_of(st.integers(min_value=1, max_value=10**4).map(float),
                 st.floats(min_value=-4.0, max_value=4.0).map(lambda e: 10.0**e)),
    log_tol=st.floats(min_value=-300.0, max_value=-6.0),
)
def test_truncation_single_bound_matches_two_bounds(log_j, mu, log_tol):
    # the energy-weighted bound implies the mass bound, so testing it
    # alone gives the same n_max; and the window grown around the peak
    # ends where the walk up from n = 0 does
    J = 10.0**log_j
    assume(J * mu <= 2e7)
    tail_tol = 10.0**log_tol
    s = build_state(J, 0.0, SpectrumParams(mu=mu), tail_tol)
    assert s.n_max == _two_bound_truncation_index(J, mu, tail_tol)


@pytest.mark.parametrize("J,mu,tail_tol", [
    (0.01, 5.0, 1e-14), (2.5, 28.0, 1e-6), (1e4, 0.3, 1e-300), (3e5, 80.0, 1e-100),
    (1e6, 16.0, 1e-14),
])
def test_window_growth_matches_guessed_window(monkeypatch, J, mu, tail_tol):
    # started from p - 1 .. p + 1 only, the range is widened until both
    # tail bounds close, and gives the same state bit for bit
    p = SpectrumParams(mu=mu)
    ref = build_state(J, 0.0, p, tail_tol)
    monkeypatch.setattr(gkstate, "_first_half_width", lambda peak, nu, ln_stop: 1)
    s = build_state(J, 0.0, p, tail_tol)
    assert (s.n_min, s.n_max, s.ln_norm_sq) == (ref.n_min, ref.n_max, ref.ln_norm_sq)
    assert s.ln_weights.tobytes() == ref.ln_weights.tobytes()


def test_huge_mu_weights_are_poisson():
    # as mu -> inf the ratio k (k + mu) / (J mu) tends to k / J, so the
    # weights tend to e^-J J^n / n!; at mu = 1e200 they are that limit
    s = _state(2.0, 1e200)
    n = np.arange(s.n_min, s.n_max + 1)
    poisson = np.array([math.exp(-2.0) * 2.0**k / math.factorial(k) for k in n])
    assert np.all(np.abs(weights(s)[s.n_min :] / poisson - 1.0) <= 1e-13)
    # the window of a state whose mu dwarfs every level (p = 99 990)
    assert _state(1e5, 1e15).n_max == 103_090


@pytest.mark.parametrize("J", [10.0, 1e6, 1e9])
def test_one_lgamma_level_per_state(monkeypatch, J):
    # ln rho_n is taken at the peak only; the term ratio gives the rest
    levels = []
    real = gkstate.moment_rho

    def counted(n, p):
        levels.append(n)
        return real(n, p)

    monkeypatch.setattr(gkstate, "moment_rho", counted)
    s = build_state(J, 0.0, SpectrumParams(mu=16.0))
    assert len(levels) == 1 and s.n_min <= levels[0] <= s.n_max


@pytest.mark.parametrize("J", [1e300, 1e12, 9.99e11])
def test_levels_capped(J):
    # n_max may not pass 10^6: the peak itself lies past it (1e300, 1e12)
    # or, near p = 999 500, the upper tail does
    with pytest.raises(ConvergenceError, match="did not close within 1000000 levels"):
        build_state(J, 0.0, SpectrumParams(mu=1.0))


def test_overflowing_d_n_stops_the_walk():
    # at J = 1000, mu = 1.7e305, d_n = n (n + mu) overflows from level 1058
    # on, before the upper tail closes: the walk stops there, where it
    # warned and went on to 10^6 levels
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="overflows"):
        build_state(1000.0, 0.0, SpectrumParams(mu=1.7e305))
    assert time.perf_counter() - start < 0.05


def test_levels_just_below_cap():
    # peak near 984 900, n_max near 992 600
    s = build_state(9.7e11, 0.0, SpectrumParams(mu=1.0))
    assert 970_000 < s.n_min < s.n_max <= 10**6
    assert abs(float(np.exp(s.ln_weights).sum()) - 1.0) <= 1e-13


def test_underflowing_j_mu():
    # J mu below the smallest double: level 1 has weight J mu / (1 + mu)
    # relative to level 0, far below tail_tol, and ln N^2 ~ J mu / (1 + mu)
    # rounds to 0 in closed form and series alike
    for J, mu in ((1e-200, 1e-200), (1e-320, 1e-10)):
        s = build_state(J, 0.0, SpectrumParams(mu=mu))
        assert (s.n_min, s.n_max, s.ln_norm_sq) == (0, 0, 0.0)
        assert normalization_sq(J, SpectrumParams(mu=mu)) == s.ln_norm_sq == 0.0
        assert weight(0, s) == 1.0


def test_norm_small_series_oracle():
    # 60-term direct series at J=1, mu=2
    p = SpectrumParams(mu=2.0)
    series = sum(1.0 ** n / math.exp(moment_rho(n, p)) for n in range(60))
    assert math.isclose(math.exp(normalization_sq(1.0, p)), series, rel_tol=1e-11)
    assert normalization_sq(0.0, p) == 0.0


@pytest.mark.parametrize("J,mu", [(10.0, 28.0), (10.0, 80.0)])
def test_mean_n_closed_vs_sum(J, mu):
    s = _state(J, mu)
    n = np.arange(s.n_max + 1, dtype=float)
    direct = float(weights(s) @ n)
    assert math.isclose(mean_n(s), direct, rel_tol=1e-9)
    assert mean_n(s) < math.sqrt(J * mu)


@pytest.mark.parametrize("J,mu", [(10.0, 28.0), (10.0, 80.0)])
def test_mandel_closed_vs_moments(J, mu):
    s = _state(J, mu)
    n = np.arange(s.n_max + 1, dtype=float)
    w = weights(s)
    m1 = float(w @ n)
    m2 = float(w @ (n * n))
    q_direct = (m2 - m1 * m1) / m1 - 1.0
    assert math.isclose(mandel_q(s), q_direct, rel_tol=1e-9)


_WINDOW_MU = st.one_of(
    st.integers(min_value=1, max_value=100).map(float),
    st.floats(min_value=0.5, max_value=100.0).filter(lambda m: not m.is_integer()),
)


def _window_j(mu, frac):
    # log-uniform in [0.5, 1e6] with J mu <= 1e7, where n_min reaches
    # thousands of levels
    hi = min(1e6, 1e7 / mu)
    return math.exp(math.log(0.5) + frac * (math.log(hi) - math.log(0.5)))


@settings(max_examples=60, deadline=None)
@given(mu=_WINDOW_MU, frac=st.floats(min_value=0.0, max_value=1.0))
def test_mean_and_mandel_closed_vs_window_sums(mu, frac):
    """<n> and Q in closed form against their sums over the window
    n_min .. n_max: <n> within 1e-9 relative, Q within 1e-8 absolute (the
    tolerances of the large-J benchmark check)."""
    s = _state(_window_j(mu, frac), mu)
    n = np.arange(s.n_min, s.n_max + 1, dtype=float)
    w = np.exp(s.ln_weights[s.n_min :])
    mean = float(w @ n) / float(w.sum())
    q = float(w @ (n - mean) ** 2) / float(w.sum()) / mean - 1.0
    assert abs(mean_n(s) - mean) <= 1e-9 * mean
    assert abs(mandel_q(s) - q) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(
    mu=_WINDOW_MU,
    frac=st.floats(min_value=0.0, max_value=1.0),
    ratio=st.floats(min_value=0.5, max_value=2.0),
)
def test_overlap_equal_gamma_closed_form_property(mu, frac, ratio):
    """Equal-angle overlap against I_mu(y12) / sqrt(I_mu(y1) I_mu(y2))
    formed in doubles from ``ln_bessel_i``, within 1e-9 absolute;
    ``test_overlap_sweep_against_mpmath`` holds the series to 1e-14
    against 40-digit arithmetic."""
    J1 = _window_j(mu, frac)
    J2 = min(J1 * ratio, 1e6, 1e7 / mu)
    v = overlap(_state(J1, mu), _state(J2, mu))
    y12 = 2.0 * math.sqrt(mu) * (J1 * J2) ** 0.25
    y1 = 2.0 * math.sqrt(J1 * mu)
    y2 = 2.0 * math.sqrt(J2 * mu)
    closed = math.exp(
        ln_bessel_i(mu, y12) - 0.5 * (ln_bessel_i(mu, y1) + ln_bessel_i(mu, y2))
    )
    assert abs(v.imag) < 1e-13
    assert abs(v.real - closed) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(
    mu=_WINDOW_MU,
    frac=st.floats(min_value=0.0, max_value=1.0),
    points=st.integers(min_value=2, max_value=10**6),
    data=st.data(),
)
def test_overlap_sweep_against_mpmath(mu, frac, points, data):
    """The ``overlap`` command's rows: <J,0|J',0> at J' = 2J k / points,
    k = 1 .. points, against I_mu(y12) / sqrt(I_mu(y1) I_mu(y2)) in
    40-digit arithmetic, within 1e-14 absolute.  Each state's terms are
    carried past its own window by the term ratio, so no cut drops the
    partner's weight; the largest gap seen over 3000 random sweep rows
    (J from 0.01 to 1e6, mu from 0.01 to 1e3, J mu <= 1e7) was 2.6e-15."""
    import mpmath

    J = _window_j(mu, frac)
    J2 = 2.0 * J * data.draw(st.integers(min_value=1, max_value=points)) / points
    v = overlap(_state(J, mu), _state(J2, mu))
    with mpmath.workdps(40):
        m, j1, j2 = mpmath.mpf(mu), mpmath.mpf(J), mpmath.mpf(J2)
        y1, y2 = 2 * mpmath.sqrt(j1 * m), 2 * mpmath.sqrt(j2 * m)
        y12 = 2 * mpmath.sqrt(m) * mpmath.root(j1 * j2, 4)
        closed = float(mpmath.besseli(m, y12)
                       / mpmath.sqrt(mpmath.besseli(m, y1) * mpmath.besseli(m, y2)))
    assert abs(v.imag) < 1e-13
    assert abs(v.real - closed) <= 1e-14


def _inline_overlap(s1, s2):
    # the series summed inline: one 1-D row of phase parts at the one
    # time, each part contracted with the weights by a dot product, both
    # scaled by e^c
    n_lo = min(s1.n_min, s2.n_min)
    n_up = max(s1.n_max, s2.n_max)
    ln_a = 0.5 * (gkstate._extended_terms([s1], n_lo, n_up)[0]
                  + gkstate._extended_terms([s2], n_lo, n_up)[0])
    c = float(ln_a.max())
    mu = s1.params.mu
    m_hi, m_lo = quadratic_in_n(np.arange(n_lo, n_up + 1, dtype=float), mu)
    re, im = phase_parts(m_hi, m_lo, (s2.gamma - s1.gamma) / (2.0 * math.pi * mu))
    a = np.exp(ln_a - c)
    return complex((re @ a) * math.exp(c), (im @ a) * math.exp(c))


def _bits(v):
    return v.real.hex(), v.imag.hex()


@settings(max_examples=150, deadline=None)
@given(
    mu=_WINDOW_MU,
    frac=st.floats(min_value=0.0, max_value=1.0),
    ratios=st.lists(st.one_of(st.just(1.0), st.floats(min_value=1e-6, max_value=2.0)),
                    min_size=1, max_size=6).map(lambda r: [1e-6, 2.0, *r]),
    gammas=st.tuples(*[st.floats(min_value=-1e3, max_value=1e3)] * 2),
    levels=st.sampled_from([1, 500, 5000, gkstate._OVERLAP_LEVELS]),
    points=st.integers(min_value=2, max_value=12),
)
def test_overlap_keeps_inline_sum_bits(mu, frac, ratios, gammas, levels, points):
    """overlap's one row of parts sums to the inline series bit for bit:
    equal J, J' <= 2J, and partners down to 1e-6 J, whose n_min lies far
    below (the other state's terms walked down to it).  Over an iterable
    of partners, in batches of at most ``levels`` levels, each entry has
    the bits of the one-state call, and the ``overlap`` command's rows
    are those of a loop over one-state calls, byte for byte."""
    J = _window_j(mu, frac)
    s1 = _state(J, mu, gammas[0])
    partners = [_state(J * r, mu, gammas[1]) for r in ratios]
    for s2 in partners:
        assert overlap(s1, s2) == _inline_overlap(s1, s2)
        assert overlap(s2, s1) == _inline_overlap(s2, s1)
    with mock.patch.object(gkstate, "_OVERLAP_LEVELS", levels):
        swept = overlap(s1, iter(partners))
        cfg = RunConfig("overlap", j=J, mu=mu, points=points)
        _, rows = _rows_overlap(cfg)
    assert [_bits(v) for v in swept] == [_bits(overlap(s1, s2)) for s2 in partners]
    s0 = _state(J, mu)
    loop = []
    for j2 in _sweep_grid(2.0 * J, points):
        v = overlap(s0, _state(j2, mu))
        loop.append((j2, v.real, v.imag, abs(v) ** 2))
    assert _lines(rows) == _lines(loop)


@pytest.mark.parametrize("mu", [1.0, 2.0, 28.0, 80.0])
def test_sub_poissonian_sweep(mu):
    for J in np.linspace(0.5, 50.0, 100):
        assert mandel_q(_state(float(J), mu)) < 0.0


def test_mandel_q_cancellation_bound():
    # served up to J mu = 1e12; past it Q's ratio difference would lose
    # more than 1e-7 to cancellation
    mu = 80.0
    assert -0.5 < gkstate._mandel_q(1e12 / mu, mu) < -0.49
    with pytest.raises(ConvergenceError, match="J\\*mu <= 1e\\+12"):
        gkstate._mandel_q(1.01e12 / mu, mu)
    assert gkstate._mean_n(1e14, mu) < math.sqrt(1e14 * mu)


def test_mandel_small_j_limit():
    # two leading series terms give Q -> -J mu / ((mu+1)(mu+2))
    for mu in (1.0, 28.0):
        J = 1e-6
        q = mandel_q(_state(J, mu))
        lead = -J * mu / ((mu + 1.0) * (mu + 2.0))
        assert math.isclose(q, lead, rel_tol=1e-5)
        assert -1e-5 < q < 0.0


def test_evolve():
    p = SpectrumParams(mu=28.0, alpha=1.7)
    s = build_state(10.0, 0.3, p)
    s0 = evolve(s, 0.0)
    assert s0.gamma == s.gamma and s0.n_max == s.n_max
    s1 = evolve(evolve(s, 0.25), 0.25)
    s2 = evolve(s, 0.5)
    assert math.isclose(s1.gamma, s2.gamma, rel_tol=1e-15)
    assert math.isclose(s2.gamma, 0.3 + 1.7 * 0.5, rel_tol=1e-15)
    assert np.array_equal(s2.ln_weights, s.ln_weights)
    with pytest.raises(ValueError):
        evolve(s, math.nan)
    with pytest.raises(ValueError, match="gamma \\+ alpha t"):
        evolve(s, 1.7e308)


def test_overlap_self_and_hermitian():
    s1 = _state(10.0, 28.0, gamma=0.0)
    s2 = _state(4.2, 28.0, gamma=1.1)
    assert abs(overlap(s1, s1) - 1.0) < 1e-12
    assert abs(overlap(s1, s2) - overlap(s2, s1).conjugate()) < 1e-14


def test_overlap_param_mismatch():
    s1 = _state(1.0, 2.0)
    s2 = _state(1.0, 3.0)
    with pytest.raises(ValueError):
        overlap(s1, s2)
    s3 = build_state(1.0, 0.0, SpectrumParams(mu=2.0, alpha=2.0))
    with pytest.raises(ValueError):
        overlap(s1, s3)
    # partners: the same ladder and one angle, and none gives no entries
    with pytest.raises(ValueError, match="same ladder"):
        overlap(s1, [s1, s2])
    with pytest.raises(ValueError, match="one angle"):
        overlap(s1, [s1, _state(2.0, 2.0, 0.5)])
    assert overlap(s1, []) == []


@pytest.mark.parametrize("J1,J2,mu", [(1.0, 4.0, 2.0), (10.0, 4.2, 28.0), (10.0, 4.2, 80.0)])
def test_overlap_equal_gamma_closed_form(J1, J2, mu):
    # same-angle overlap reduces to a single Bessel ratio expression
    s1 = _state(J1, mu)
    s2 = _state(J2, mu)
    v = overlap(s1, s2)
    y12 = 2.0 * math.sqrt(mu) * (J1 * J2) ** 0.25
    y1 = 2.0 * math.sqrt(J1 * mu)
    y2 = 2.0 * math.sqrt(J2 * mu)
    closed = math.exp(
        ln_bessel_i(mu, y12) - 0.5 * (ln_bessel_i(mu, y1) + ln_bessel_i(mu, y2))
    )
    assert abs(v.imag) < 1e-13
    assert math.isclose(v.real, closed, rel_tol=1e-9)


def test_overlap_with_ground_state():
    mu = 2.0
    s0 = _state(0.0, mu)
    s = _state(3.0, mu)
    v = overlap(s0, s)
    # only n = 0 survives: w_0(J)^(1/2)
    assert math.isclose(v.real, math.sqrt(weights(s)[0]), rel_tol=1e-12)


def test_label_continuity():
    for mu in (1.0, 28.0):
        s = _state(10.0, mu)
        s_eps = build_state(10.0 + 1e-6, 1e-6, SpectrumParams(mu=mu))
        assert 1.0 - abs(overlap(s, s_eps)) ** 2 < 1e-9


def test_state_is_frozen():
    s = _state(1.0, 2.0)
    assert isinstance(s, CoherentState)
    with pytest.raises(AttributeError):
        s.J = 5.0
