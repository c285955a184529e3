"""Revival tests: phase reduction, autocorrelation identities, channel
regrouping, diagonal/interference split, and the channels at exact
fractional times with their group-phase collapse."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkrevival.gkstate import build_state, mean_energy, weights
from gkrevival.revival import (
    FractionalDecomposition,
    TimeSeries,
    autocorrelation,
    autocorrelation_series,
    channel_amplitudes,
    fractional_decomposition,
    intensity_split,
    rational_channels,
)
from gkrevival.spectrum import SpectrumParams, phase

TWO_PI = 2.0 * math.pi


def _state(J, mu, tail_tol=1e-14):
    return build_state(J, 0.0, SpectrumParams(mu=mu), tail_tol)


def test_timeseries_validation():
    TimeSeries(t_grid=np.array([0.0, 1.0]), values=np.array([1.0, 2.0]), label="x")
    with pytest.raises(ValueError):
        TimeSeries(t_grid=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]), label="x")
    with pytest.raises(ValueError):
        TimeSeries(t_grid=np.array([1.0, 0.5]), values=np.array([1.0, 2.0]), label="x")
    with pytest.raises(ValueError):
        TimeSeries(t_grid=np.array([0.0, 1.0]), values=np.array([1.0]), label="x")


def test_phase_trivials():
    assert phase(0, 0.37, 28.0) == 0.0
    assert math.isclose(phase(1, 1.0, 28.0), TWO_PI * 29.0, rel_tol=1e-15)
    assert math.isclose(phase(3, 0.5, 2.0), TWO_PI * 7.5, rel_tol=1e-15)


# every entry point that takes a time, called with the time t
_TIME_ENTRY_POINTS = {
    "phase": lambda s, t: phase(1, t, 28.0),
    "channel_amplitudes": lambda s, t: channel_amplitudes(s, 1, [0.0, t]),
    "autocorrelation": lambda s, t: autocorrelation(s, t),
    "autocorrelation_series": lambda s, t: autocorrelation_series(s, [0.0, t]),
    "fractional_decomposition": lambda s, t: fractional_decomposition(s, 3, [t]),
    "intensity_split": lambda s, t: intensity_split(s, 2, [0.0, 0.5, t]),
}


@pytest.mark.parametrize("entry", sorted(_TIME_ENTRY_POINTS))
@pytest.mark.parametrize("J", [0.0, 10.0])
def test_non_finite_times_rejected(entry, J):
    # a NaN or infinite time raises, on the ground state too (where the
    # phase bound would see 0 * inf), and names the time
    s = _state(J, 28.0)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"times must be finite, got t = {t}"):
            _TIME_ENTRY_POINTS[entry](s, t)


def test_autocorr_at_zero_and_one():
    for mu in (1.0, 28.0, 80.0):
        s = _state(10.0, mu)
        assert abs(autocorrelation(s, 0.0) - 1.0) < 1e-12
        assert abs(abs(autocorrelation(s, 1.0)) ** 2 - 1.0) < 1e-12


def test_autocorr_bound_and_ground_state():
    s0 = _state(0.0, 28.0)
    for t in np.linspace(0.0, 1.0, 17):
        assert abs(abs(autocorrelation(s0, float(t))) ** 2 - 1.0) < 1e-14
    # bound holds off the integer-mu grid too
    s = _state(10.0, 2.5)
    for t in np.linspace(0.0, 1.0, 101):
        assert abs(autocorrelation(s, float(t))) ** 2 <= 1.0 + 1e-12


def test_full_revival_large_basis():
    # n_max beyond 1000: phase reduction must stay exact at t = 1
    s = _state(1.0e6, 1.0)
    assert s.n_max > 1000
    assert abs(abs(autocorrelation(s, 1.0)) ** 2 - 1.0) < 1e-12


def test_mirror_symmetry():
    s = _state(10.0, 28.0)
    for t in np.linspace(0.0, 1.0, 201):
        a = abs(autocorrelation(s, float(t)))
        b = abs(autocorrelation(s, float(1.0 - t)))
        assert abs(a - b) < 1e-10


def test_revival_periodicity():
    s = _state(10.0, 28.0)
    for t in np.linspace(0.0, 1.0, 101):
        a = abs(autocorrelation(s, float(t))) ** 2
        b = abs(autocorrelation(s, float(t) + 1.0)) ** 2
        assert abs(a - b) < 1e-10


def test_autocorr_series_schema():
    s = _state(10.0, 1.0)
    grid = np.linspace(0.0, 1.0, 201)
    ts = autocorrelation_series(s, grid)
    assert isinstance(ts, TimeSeries)
    assert ts.label == "|A(t)|^2"
    assert len(ts.values) == 201
    assert abs(ts.values[0] - 1.0) < 1e-12
    assert abs(ts.values[-1] - 1.0) < 1e-12
    assert np.all(ts.values <= 1.0 + 1e-12)
    with pytest.raises(ValueError):
        autocorrelation_series(s, np.zeros((2, 2)))


@pytest.mark.parametrize("q", [2, 3, 5, 16])
def test_regrouping_identity(q):
    s = _state(10.0, 28.0)
    for t in np.linspace(0.0, 1.0, 101):
        a = autocorrelation(s, float(t))
        total = sum(channel_amplitudes(s, q, [float(t)])[0].tolist())
        assert abs(total - a) < 1e-12


def test_survival_bounds_and_t0():
    s = _state(10.0, 28.0)
    w = weights(s)
    p2 = np.abs(channel_amplitudes(s, 4, np.linspace(0.0, 1.0, 51))) ** 2
    for d in range(4):
        cap = float(w[d::4].sum()) ** 2
        assert abs(p2[0, d] - cap) < 1e-13
        assert np.all(p2[:, d] <= cap + 1e-12)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_group_phase_at_revival_fraction(q):
    # P_delta(1/q) = exp(-2 pi i ((mu d + d^2) mod q)/q) * (plain weight sum)
    mu = 28.0
    s = _state(10.0, mu)
    w = weights(s)
    p = channel_amplitudes(s, q, [1.0 / q])[0].tolist()
    for d, pd in enumerate(p):
        wsum = float(w[d::q].sum())
        target = cmath.exp(-2j * math.pi * ((int(mu) * d + d * d) % q) / q) * wsum
        assert abs(pd - target) < 1e-12
    assert p[0].real > 0.0
    assert abs(p[0].imag) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    log_j=st.floats(min_value=math.log(0.5), max_value=math.log(1e3)),
    mu=st.integers(min_value=1, max_value=100),
    fraction=st.integers(min_value=2, max_value=12).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(min_value=1, max_value=s - 1))
    ),
    tau=st.floats(min_value=0.0, max_value=3.0),
)
def test_channels_at_revival_fraction_offset(log_j, mu, fraction, tau):
    # integer mu: level n = ks + Delta gains the cycle (mu Delta + Delta^2) r / s
    # mod 1 over r/s, whatever k, so channels(r/s + tau) is channels(tau)
    # times exp(-2 pi i ((mu Delta + Delta^2) r mod s) / s).  Rounding
    # r/s + tau moves t by up to 2 eps t, so level n's phase by 2 pi m_n
    # times that (m_n = mu n + n^2, sum_n w_n m_n = mu <e_n>).
    s, r = fraction
    state = _state(math.exp(log_j), float(mu))
    t = r / s + tau
    shifted = channel_amplitudes(state, s, [t])[0]
    base = channel_amplitudes(state, s, [tau])[0]
    group = np.exp(
        -2j * math.pi * np.array([(mu * d + d * d) * r % s for d in range(s)]) / s
    )
    rounding = 2.0 * math.pi * (2.0 * np.finfo(float).eps * t) * mu * mean_energy(state)
    assert np.max(np.abs(shifted - group * base)) <= 1e-12 + rounding


@pytest.mark.parametrize("delta,period", [(0, 1 / 16), (2, 1 / 16), (1, 1 / 8), (3, 1 / 8)])
def test_channel_periodicity(delta, period):
    # q=4, mu=28: even channels repeat at t_rev/16, odd at t_rev/8
    s = _state(10.0, 28.0)
    t = np.linspace(0.0, 0.5, 41)
    a = np.abs(channel_amplitudes(s, 4, t)[:, delta]) ** 2
    b = np.abs(channel_amplitudes(s, 4, t + period)[:, delta]) ** 2
    assert np.max(np.abs(a - b)) < 1e-12


def test_fractional_decomposition_container():
    s = _state(10.0, 28.0)
    grid = np.linspace(0.0, 1.0, 41)
    dec = fractional_decomposition(s, 4, grid)
    assert isinstance(dec, FractionalDecomposition)
    assert dec.q == 4 and len(dec.fractions) == 4
    total = sum(f.values for f in dec.fractions)
    for i, t in enumerate(grid):
        assert abs(total[i] - autocorrelation(s, float(t))) < 1e-12
    assert dec.fractions[2].label == "P_2(t)"


def test_survival_series():
    s = _state(10.0, 80.0)
    grid = np.linspace(0.0, 1.0, 101)
    p1 = channel_amplitudes(s, 4, grid)[:, 1]
    w = weights(s)
    assert abs(abs(p1[0]) ** 2 - float(w[1::4].sum()) ** 2) < 1e-13


@pytest.mark.parametrize("q", [2, 3, 4])
def test_intensity_split(q):
    s = _state(10.0, 28.0)
    for t in np.linspace(0.0, 1.0, 101):
        t = float(t)
        a2 = abs(autocorrelation(s, t)) ** 2
        abs2, diag, cross = intensity_split(s, q, [t])
        assert abs2[0] == a2
        assert abs(a2 - (diag[0] + cross[0])) < 1e-12
        assert diag[0] >= 0.0


def test_diagonal_at_zero_strictly_below_one():
    s = _state(10.0, 28.0)
    assert intensity_split(s, 4, [0.0])[1][0] < 1.0


def test_interference_is_real_symmetrization():
    # the full complex double sum has negligible imaginary part
    s = _state(10.0, 80.0)
    for t in (0.17, 0.25, 0.334):
        ps = channel_amplitudes(s, 4, [t])[0].tolist()
        acc = 0.0 + 0.0j
        for d in range(4):
            for g in range(4):
                if d != g:
                    acc += ps[d] * ps[g].conjugate()
        assert abs(acc.imag) < 1e-12
        assert math.isclose(acc.real, intensity_split(s, 4, [t])[2][0], rel_tol=0, abs_tol=1e-12)


# (J, mu) windows of 36 to 13014 levels
_RATIONAL_STATES = [(10.0, 28.0), (1e6, 16.0), (1e9, 80.0), (1e10, 80.0)]


@pytest.mark.parametrize("J, mu", _RATIONAL_STATES)
def test_rational_channels_match_kernel_at_dyadic_times(J, mu):
    # r / 2^m is an exact float, so the kernel evaluates the same time:
    # the two agree within the kernel's summation bound gamma_L sum w
    s = _state(J, mu)
    w = weights(s)
    size = s.n_max - s.n_min + 1
    bound = size * 2.0**-53 / (1.0 - size * 2.0**-53) * math.fsum(w) + 1e-15
    for q in (1, 4, 7):
        for r, m in ((1, 1), (3, 3), (-5, 10), (12345, 16), (2**30 + 1, 30)):
            exact = rational_channels(s, q, r, 2**m)
            assert exact.shape == (q,)
            assert np.abs(exact - channel_amplitudes(s, q, [r / 2**m])[0]).max() <= bound


def test_rational_channels_exact_at_one_third():
    # at J = 1e9, mu = 80 the float 1/3 is off the fraction by enough to
    # move A by 5.4e-6; the reader takes the fraction itself
    mpmath = pytest.importorskip("mpmath")
    s = _state(1e9, 80.0)
    w = weights(s)
    with mpmath.workdps(40):
        exact = complex(mpmath.fsum(mpmath.mpf(float(w[n])) * mpmath.expjpi(mpmath.mpf(-2 * k) / 3)
                                    for n in range(s.n_min, s.n_max + 1)
                                    for k in [n * (n + 80) % 3]))
    assert abs(rational_channels(s, 1, 1, 3)[0] - exact) <= 1e-14
    assert abs(channel_amplitudes(s, 1, [1.0 / 3.0])[0, 0] - exact) > 1e-6


@pytest.mark.parametrize("mu", [1.0, 2.0, 28.0, 80.0])
@pytest.mark.parametrize("q", [2, 3, 4, 7])
def test_rational_channels_group_phases(q, mu):
    # at t = 1/q the levels n = kq + Delta share the group phase
    # -2 pi ((Delta (Delta + mu)) mod q) / q, whatever k
    s = _state(1e4, mu)
    w = weights(s)
    p = rational_channels(s, q, 1, q)
    for d in range(q):
        group = cmath.exp(-2j * math.pi * ((d * (d + int(mu))) % q) / q)
        assert abs(p[d] - group * math.fsum(w[d::q])) <= 1e-15
    # the ground state is 1 at every time, and every channel at s = 1
    assert rational_channels(_state(0.0, mu), 1, 7, q).tolist() == [1.0]
    assert np.abs(rational_channels(s, q, 3, 1) - [math.fsum(w[d::q]) for d in range(q)]).max() <= 1e-15
    # (q, mu, Delta) = (3, 1, 1): the group phase 4 pi / 3
    if (q, mu) == (3, 1.0):
        assert math.isclose(cmath.phase(p[1]), -4.0 * math.pi / 3.0 + 2.0 * math.pi, rel_tol=1e-15)


def test_rational_channels_validation():
    s = _state(10.0, 28.0)
    with pytest.raises(ValueError, match="positive integer mu"):
        rational_channels(_state(10.0, 2.5), 1, 1, 4)
    for q, r, sd in ((0, 1, 4), (-1, 1, 4), (1.0, 1, 4), (1, 1, 0), (1, 1, -3), (1, 1, 4.0),
                     (1, 0.5, 4), (1, 1.0, 4), (1, 1, 2**31), (1, 1, 2**40)):
        with pytest.raises(ValueError):
            rational_channels(s, q, r, sd)
    # s just below 2^31, any integer r and levels near 3e5: the residues
    # are Python's, where an unreduced int64 product would wrap
    s = _state(1e9, 80.0)
    r, sd = -(10**30) - 7, 2**31 - 1
    w = weights(s)
    exact = sum(w[n] * cmath.exp(-2j * math.pi * ((n * (n + 80) * r) % sd) / sd)
                for n in range(s.n_min, s.n_max + 1))
    assert abs(rational_channels(s, 1, r, sd)[0] - exact) <= 1e-14
