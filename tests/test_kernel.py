"""Channel-amplitude kernel tests: the block-vectorised kernel against a
per-grid-point reference loop, block boundaries, the channel sum rule,
and exact agreement wherever the CSV datasets depend on it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkrevival import revival
from gkrevival._dd import mul_frac, quadratic_in_n
from gkrevival.gkstate import build_state, evolve, overlap
from gkrevival.revival import channel_amplitudes
from gkrevival.spectrum import SpectrumParams, revival_time

TWO_PI = 2.0 * math.pi
FIGURE_GRID = np.linspace(0.0, 1.0, 2001)


def _state(J, mu):
    return build_state(J, 0.0, SpectrumParams(mu=mu))


def _reference(state, q, t_grid):
    # One grid point at a time: terms w_n exp(-i phi_n(t)), channel Delta
    # summed over n = Delta, Delta + q, ...
    n = np.arange(state.n_max + 1, dtype=float)
    m_hi, m_lo = quadratic_in_n(n, state.params.mu)
    w = np.exp(state.ln_weights)
    out = np.empty((len(t_grid), q), dtype=complex)
    for i, ti in enumerate(t_grid):
        terms = w * np.exp(-1j * (TWO_PI * mul_frac(m_hi, m_lo, float(ti))))
        for d in range(q):
            out[i, d] = terms[d::q].sum()
    return out


_mu = st.one_of(
    st.integers(min_value=1, max_value=100).map(float),
    st.floats(min_value=0.5, max_value=100.0).filter(lambda m: not m.is_integer()),
)
_grid = st.lists(
    st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=24, unique=True
).map(sorted)


@settings(max_examples=40, deadline=None)
@given(
    log_j=st.floats(min_value=math.log(0.5), max_value=math.log(1e5)),
    mu=_mu,
    q=st.integers(min_value=1, max_value=6),
    grid=_grid,
)
def test_kernel_matches_reference_loop(log_j, mu, q, grid):
    s = _state(math.exp(log_j), mu)
    t = np.array(grid)
    p = channel_amplitudes(s, q, t)
    ref = _reference(s, q, t)
    assert p.shape == (len(t), q)
    if s.n_max < 128:
        assert np.array_equal(p, ref)
    assert np.max(np.abs(p - ref)) <= 1e-13
    a = channel_amplitudes(s, 1, t)[:, 0]
    assert np.max(np.abs(p.sum(axis=1) - a)) <= 1e-12
    assert np.max(np.abs(a)) <= 1.0 + 1e-12


@pytest.mark.parametrize("mu", [1.0, 28.0, 80.0])
@pytest.mark.parametrize("q", [1, 4])
def test_figure_grids_exact(mu, q):
    # The figure datasets: several blocks per grid, n_max < 128.
    s = _state(10.0, mu)
    assert len(FIGURE_GRID) * (s.n_max + 1) > revival._BLOCK_LEVEL_POINTS
    assert np.array_equal(channel_amplitudes(s, q, FIGURE_GRID), _reference(s, q, FIGURE_GRID))


def test_level_count_above_block_size():
    # More levels than one block holds: one grid row per block.
    s = _state(1e8, 1.0)
    assert s.n_max + 1 > revival._BLOCK_LEVEL_POINTS
    t = np.array([0.0, 0.125, 1.0 / 3.0, 0.5, 1.0])
    p = channel_amplitudes(s, 3, t)
    assert np.max(np.abs(p - _reference(s, 3, t))) <= 1e-13
    a = channel_amplitudes(s, 1, t)[:, 0]
    # full revival at t = 1 for integer mu: A(1) = A(0) = sum of the weights
    assert abs(a[0] - np.exp(s.ln_weights).sum()) < 1e-13
    assert abs(a[-1] - a[0]) < 1e-13


@pytest.mark.parametrize("points", [1, 2, 227, 228, 455, 1000])
def test_partial_last_block(points):
    # 36 levels fit 227 grid rows per block; cover exact multiples and
    # one-row remainders.
    s = _state(10.0, 28.0)
    assert revival._BLOCK_LEVEL_POINTS // (s.n_max + 1) == 227
    t = np.linspace(0.0, 0.9, points)
    assert np.array_equal(channel_amplitudes(s, 4, t), _reference(s, 4, t))


def test_intensity_split_matches_per_point_formulas():
    # The survival-intensity columns, row-vectorised, against the
    # one-grid-point forms they replace.
    s = _state(10.0, 80.0)
    p = channel_amplitudes(s, 4, FIGURE_GRID)
    diag = revival._diagonal(p)
    cross = revival._interference(p)
    for i in range(0, len(FIGURE_GRID), 7):
        row = p[i]
        assert diag[i] == float((np.abs(row) ** 2).sum())
        acc = 0.0
        for d in range(1, len(row)):
            acc += float(np.real(row[d] * np.conj(row[:d])).sum())
        assert cross[i] == 2.0 * acc


def test_kernel_validation():
    s = _state(10.0, 28.0)
    for q in (0, -1, 2.0):
        with pytest.raises(ValueError):
            channel_amplitudes(s, q, [0.0])
    with pytest.raises(ValueError):
        channel_amplitudes(s, 2, np.zeros((2, 2)))
    assert channel_amplitudes(s, 3, []).shape == (0, 3)


def test_ground_state_and_physical_time():
    s0 = _state(0.0, 28.0)
    assert np.array_equal(channel_amplitudes(s0, 2, [0.0, 0.3])[:, 1], [0.0, 0.0])
    # revival units against physical time through evolve/overlap
    s = _state(10.0, 2.5)
    tau = np.array([0.1, 0.37, 0.5])
    a = channel_amplitudes(s, 1, tau)[:, 0]
    t_rev = revival_time(s.params)
    for k, tk in enumerate(tau):
        assert abs(overlap(s, evolve(s, tk * t_rev)) - a[k]) < 1e-12

