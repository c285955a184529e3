"""Channel-amplitude kernel tests: the table-and-series phase factors
against 40-digit values, the kernel's BLAS contraction against exact
sums of the same phase parts and weights (within the rounding bound of
any summation order, level chunks included), near a per-grid-point
reference loop and near NumPy's complex exp, block boundaries, the
channel sum rule, the intensity split against exact rationals, empty
channels outside the level window, the single-column and channel-order
readers against the dense channel matrix, the level window against un-windowed
sums, the phase reduction bound, and the kernel's memo (hits
bit-identical to fresh evaluations, never stale, validation before
lookup, evaluations counted, the scan moduli's bits independent of the
other moduli asked) and state context (one level side per state, reused
across grids, evolved and rebuilt states, shared by threads, and kept
only for windows of one level chunk)."""

import copy
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkrevival import _dd, revival
from gkrevival._dd import mul_frac, phase_parts, quadratic_in_n, two_prod
from gkrevival.cli import RunConfig, _channel_rows, _rows_survival_intensity
from gkrevival.gkstate import build_state, evolve, mean_energy, overlap
from gkrevival.revival import (
    TimeSeries,
    autocorrelation,
    autocorrelation_series,
    channel_amplitudes,
    fractional_decomposition,
    intensity_split,
)
from gkrevival.spectrum import SpectrumParams, revival_time

TWO_PI = 2.0 * math.pi
FIGURE_GRID = np.linspace(0.0, 1.0, 2001)


@pytest.fixture(autouse=True)
def _fresh_memo(monkeypatch):
    # every test starts from an empty kernel memo and state context, so
    # the block-boundary tests exercise a fresh evaluation
    monkeypatch.setattr(revival, "_memo", None)
    monkeypatch.setattr(revival, "_context", None)


def _state(J, mu):
    return build_state(J, 0.0, SpectrumParams(mu=mu))


def _libm_parts(m_hi, m_lo, t):
    # phase_parts through NumPy's complex exp of the reduced cycle
    z = np.exp(-1j * (TWO_PI * mul_frac(m_hi, m_lo, t)))
    return z.real, z.imag


def _reference(state, q, t_grid, parts=phase_parts):
    # One grid point at a time: terms w_n exp(-i phi_n(t)) over the
    # state's window n_min .. n_max, channel Delta summed over the levels
    # n = Delta (mod q) in it; parts gives the phase factors' real and
    # imaginary parts.
    n = np.arange(state.n_min, state.n_max + 1, dtype=float)
    m_hi, m_lo = quadratic_in_n(n, state.params.mu)
    w = np.exp(state.ln_weights[state.n_min :])
    out = np.empty((len(t_grid), q), dtype=complex)
    for i, ti in enumerate(t_grid):
        re, im = parts(m_hi, m_lo, float(ti))
        terms = w * re + 1j * (w * im)
        for d in range(q):
            out[i, d] = terms[(d - state.n_min) % q :: q].sum()
    return out


def _ulps(v):
    # the float v as an exact integer multiple of 2^-1074
    n, d = v.as_integer_ratio()
    return n << (1075 - d.bit_length())


def _assert_exact_sums(p, state, q, t_grid):
    # Each channel within gamma_L sum_n |w_n x_n| + L 2^-1074 of the exact
    # sum of the same float weights w_n and phase parts x_n over its
    # levels, L the window length, gamma_L = L u / (1 - L u), u = 2^-53:
    # the bound of any summation order of the L products, chunked or not,
    # the last term for products that underflow (subnormal t).  With
    # parts at most 1 in size the bound is below gamma_L sum |w_n| at any
    # normal weight sum, and channels that hold no level are exactly 0.
    # Sums are exact integers in units of 2^-2148, where every product of
    # two doubles is a whole number; the bound is multiplied by 1 - L u.
    n = np.arange(state.n_min, state.n_max + 1, dtype=float)
    m_hi, m_lo = quadratic_in_n(n, state.params.mu)
    w = [_ulps(v) for v in np.exp(state.ln_weights[state.n_min :]).tolist()]
    size = len(w)
    tiny = size * (2**53 - size) << 1074
    assert p.shape == (len(t_grid), q)
    for i, ti in enumerate(t_grid):
        for got, x in zip((p[i].real, p[i].imag), phase_parts(m_hi, m_lo, float(ti))):
            terms = [a * _ulps(b) for a, b in zip(w, x.tolist())]
            for d in range(q):
                channel = terms[(d - state.n_min) % q :: q]
                error = abs((_ulps(float(got[d])) << 1074) - sum(channel)) * (2**53 - size)
                assert error <= (size * sum(map(abs, channel)) + tiny if channel else 0)


# m_hi = 0, m_lo = -2^-60, t = 1: the cycle -2^-60 reduces to exactly
# f = 1.0, the last table node
_CYCLE_ONE = (0.0, -(2.0**-60), 1.0)


def _cycle_points():
    # 6000 random cycles, every table node j / 1024 below 1 and its
    # neighbours 1 ulp either side inside [0, 1), and 2^-60; with
    # m_lo = 0 and t = 1 the reduced cycle is f itself
    nodes = np.arange(_dd._CYCLE_STEPS) / _dd._CYCLE_STEPS
    return np.concatenate([
        np.random.default_rng(15).random(6000),
        nodes,
        np.nextafter(nodes, 1.0),
        np.nextafter(nodes[1:], 0.0),
        [2.0**-60],
    ])


def test_phase_parts_accuracy():
    # each part within 7e-16 of exp(-2 pi i f) for the exact double f
    # (and of exp(2 pi i 2^-60) at f = 1.0), |z| within 3e-16 of 1
    import mpmath
    f = _cycle_points()
    assert np.array_equal(mul_frac(f, 0.0, 1.0), f)
    assert mul_frac(*_CYCLE_ONE) == 1.0
    re, im = (np.append(a, b) for a, b in zip(phase_parts(f, 0.0, 1.0), phase_parts(*_CYCLE_ONE)))
    part_err = mod_err = 0.0
    with mpmath.workdps(40):
        cycles = [mpmath.mpf(x) for x in f.tolist()] + [_CYCLE_ONE[1]]
        for c, x, y in zip(cycles, re.tolist(), im.tolist()):
            part_err = max(part_err, abs(x - mpmath.cospi(2 * c)), abs(y + mpmath.sinpi(2 * c)))
            mod_err = max(mod_err, abs(mpmath.sqrt(mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2) - 1))
    assert float(part_err) <= 7e-16
    assert float(mod_err) <= 3e-16


def test_phase_parts_quarter_cycles_are_libm():
    # at the quarter cycles and at f = 1.0 (table nodes) the parts are
    # NumPy's own cos(2 pi f) and -sin(2 pi f), bit for bit, signed
    # zeros included
    f = np.array([0.0, 0.25, 0.5, 0.75])
    for (re, im), cycles in ((phase_parts(f, 0.0, 1.0), f), (phase_parts(*_CYCLE_ONE), 1.0)):
        assert np.asarray(re).tobytes() == np.cos(TWO_PI * cycles).tobytes()
        assert np.asarray(im).tobytes() == (-np.sin(TWO_PI * cycles)).tobytes()


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
    _assert_exact_sums(p, s, q, t)
    assert np.max(np.abs(p - ref)) <= 1e-13
    a = channel_amplitudes(s, 1, t)[:, 0]
    assert np.max(np.abs(p.sum(axis=1) - a)) <= 1e-12
    assert np.max(np.abs(a)) <= 1.0 + 1e-12


@pytest.mark.parametrize("mu", [1.0, 28.0, 80.0])
@pytest.mark.parametrize("q", [1, 4])
def test_figure_grids_exact(mu, q):
    # The figure datasets: several blocks per grid, n_max < 128, against
    # the exact sums of the same parts.
    s = _state(10.0, mu)
    assert len(FIGURE_GRID) * (s.n_max + 1) > _dd._BLOCK_LEVEL_POINTS
    _assert_exact_sums(channel_amplitudes(s, q, FIGURE_GRID), s, q, FIGURE_GRID)


@pytest.mark.parametrize("mu", [1.0, 28.0, 80.0])
@pytest.mark.parametrize("q", [1, 4])
def test_figure_grids_near_libm_phases(mu, q):
    # the kernel against the same sums with NumPy's complex exp
    s = _state(10.0, mu)
    libm = _reference(s, q, FIGURE_GRID, parts=_libm_parts)
    assert np.max(np.abs(channel_amplitudes(s, q, FIGURE_GRID) - libm)) <= 2e-15


def test_level_count_above_block_size():
    # More levels than one block holds: the kernel contracts the window in
    # level chunks of at most 2^20 // L levels, so every block, of many grid
    # rows, fits this thread's workspace.
    s = _state(2e9, 1.0)
    assert s.n_max + 1 > _dd._BLOCK_LEVEL_POINTS
    t = np.array([0.0, 0.125, 1.0 / 3.0, 0.5, 1.0])
    p = channel_amplitudes(s, 3, t)
    assert np.max(np.abs(p - _reference(s, 3, t))) <= 1e-13
    a = channel_amplitudes(s, 1, t)[:, 0]
    # full revival at t = 1 for integer mu: A(1) = A(0) = sum of the weights = 1
    assert abs(a[0] - 1.0) <= 1e-14
    assert abs(a[-1] - a[0]) < 1e-13


@pytest.mark.parametrize("points", [1, 2, 227, 228, 455, 910, 911, 1000, 1821])
def test_partial_last_block(points):
    # 36 levels fit 910 grid rows per block; cover grids inside one
    # block, exact multiples and one-row remainders.
    s = _state(10.0, 28.0)
    assert _dd._BLOCK_LEVEL_POINTS // (s.n_max + 1) == 910
    t = np.linspace(0.0, 0.9, points)
    _assert_exact_sums(channel_amplitudes(s, 4, t), s, 4, t)


@pytest.mark.parametrize("q", [7, 2000])
def test_chunked_window_near_reference(q):
    # a window past 1024 levels, contracted in level chunks that each take
    # only the cyclic slice of columns their residues reach (wrapping
    # round at q = 2000 < L), within gamma_L sum |w| of the per-point loop
    s = _state(1e8, 20.5)
    size = s.n_max - s.n_min + 1
    assert size > 2000 and size * size > revival._MATRIX_ENTRIES
    t = np.array([0.0, 0.37, 1.0 / 3.0, -0.61, 1.0])
    p = channel_amplitudes(s, q, t)
    gamma = size * 2.0**-53 / (1.0 - size * 2.0**-53)
    bound = gamma * float(np.exp(s.ln_weights[s.n_min :]).sum())
    assert np.max(np.abs(p - _reference(s, q, t))) <= bound


@settings(max_examples=60, deadline=None)
@given(
    n_lo=st.integers(min_value=0, max_value=10**6),
    count=st.integers(min_value=1, max_value=300),
    mu=_mu,
    grid=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=30),
    rows=st.integers(min_value=1, max_value=7),
    scalar_lo=st.booleans(),
)
@example(n_lo=0, count=5, mu=28.0, grid=[0.0, -0.0, -1.5, 0.25], rows=3, scalar_lo=True)
def test_workspace_parts_bit_identical(n_lo, count, mu, grid, rows, scalar_lo):
    # mul_frac's in-place steps give the bits of two_prod and the
    # fractional part out of place; phase_parts into a used workspace
    # longer than the block equals phase_parts with new arrays, bit for
    # bit; and the blocks of _phase_terms, rows grid rows each (a partial
    # last block whenever rows does not divide the grid), concatenate to
    # one call over the grid
    m_hi, m_lo = quadratic_in_n(np.arange(n_lo, n_lo + count, dtype=float), mu)
    lo = float(m_lo[0]) if scalar_lo else m_lo
    t = np.array(grid)[:, None]
    p, e = two_prod(m_hi, t)
    f = (p - np.floor(p)) + (e + lo * t)
    assert mul_frac(m_hi, lo, t).tobytes() == (f - np.floor(f)).tobytes()
    size = t.size * count + 3
    work = [np.full(size, np.nan) for _ in range(5)] + [np.full(size, -1, np.intp)]
    for x, y in zip(phase_parts(m_hi, lo, t, work), phase_parts(m_hi, lo, t)):
        assert x.tobytes() == y.tobytes()
    _dd._buffers()  # this thread's buffers at the real block size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_dd, "_BLOCK_LEVEL_POINTS", rows * count)
        terms = _dd._phase_terms((m_hi, m_lo), t[:, 0])
        blocks = [(i, re.copy(), im.copy()) for i, re, im in terms]
    assert [i for i, _, _ in blocks] == list(range(0, len(grid), rows))
    for k, whole in enumerate(phase_parts(m_hi, m_lo, t)):
        assert np.concatenate([b[k + 1] for b in blocks]).tobytes() == whole.tobytes()


def _broadcast_mul_frac(m_hi, m_lo, t, out=None):
    # mul_frac with each level x time product taken by np.multiply's
    # broadcast, the reference of its outer products
    if out is None:
        out = [np.empty(np.broadcast(m_hi, m_lo, t).shape) for _ in range(3)]
    a, b, c = out
    (a_hi, a_lo), (b_hi, b_lo) = _dd._split(m_hi), _dd._split(t)
    np.multiply(m_hi, t, out=a)
    np.multiply(a_hi, b_hi, out=b)
    b -= a
    for x, y in ((a_hi, b_lo), (a_lo, b_hi), (a_lo, b_lo), (m_lo, t)):
        b += np.multiply(x, y, out=c)
    a -= np.floor(a, out=c)
    a += b
    a -= np.floor(a, out=c)
    return a


def _outer_parts(m_hi, m_lo, t):
    # mul_frac and phase_parts on the grid column t and at its first time,
    # and the blocks of _phase_terms, each as bytes
    parts = [mul_frac(m_hi, m_lo, t), *phase_parts(m_hi, m_lo, t)]
    parts += phase_parts(m_hi, m_lo, float(t[0, 0]))
    blocks = _dd._phase_terms((m_hi, m_lo), t[:, 0])
    parts += [x for _, *block in blocks for x in block]
    return [np.asarray(x).tobytes() for x in parts]


_times = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.5, -1.0]),
)


@settings(max_examples=40, deadline=None)
@given(
    n_lo=st.integers(min_value=0, max_value=10**6),
    count=st.integers(min_value=1, max_value=800),
    mu=_mu,
    grid=st.lists(_times, min_size=1, max_size=300),
    scalar_lo=st.booleans(),
)
@example(n_lo=0, count=1, mu=1.0, grid=[0.0], scalar_lo=True)
@example(n_lo=0, count=800, mu=16.5, grid=[-0.0, 0.0, 5e-324, -0.25, 1.0] * 60, scalar_lo=False)
@example(n_lo=10**6, count=3, mu=99.5, grid=[5e-324, -5e-324, -4.0], scalar_lo=True)
def test_outer_products_match_broadcast(n_lo, count, mu, grid, scalar_lo):
    # the level x time products by np.einsum give mul_frac, phase_parts
    # (a grid column and one time) and the blocks of _phase_terms the bits
    # of np.multiply's broadcast: each product is exact or rounded once
    # either way, and only the sign of an exact zero differs, which the
    # fractional part turns into f = +0
    m_hi, m_lo = quadratic_in_n(np.arange(n_lo, n_lo + count, dtype=float), mu)
    lo = float(m_lo[0]) if scalar_lo else m_lo
    t = np.array(grid)[:, None]
    got = _outer_parts(m_hi, lo, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_dd, "mul_frac", _broadcast_mul_frac)
        assert _outer_parts(m_hi, lo, t) == got


def test_kernel_outer_products_match_broadcast(monkeypatch):
    # channel_amplitudes at q = 1..7 on non-integer-mu windows of 273 to
    # 815 levels, on a grid clustered at t_rev / k with negative times,
    # against the same states evaluated through the broadcast products
    k = np.arange(1, 8)
    grid = np.concatenate([np.linspace(-1.0, 1.0, 101), 1.0 / k, 1.0 / k + 1e-9, 1.0 / k - 1e-9])
    states = [_state(J, mu) for J, mu in [(1e6, 16.5), (1e5, 20.3), (3e4, 7.7), (1e6, 4.7)]]
    assert min(s.n_max - s.n_min + 1 for s in states) > 267
    got = [_fresh(s, q, grid) for s in states for q in range(1, 8)]
    monkeypatch.setattr(_dd, "mul_frac", _broadcast_mul_frac)
    want = [_fresh(s, q, grid) for s in states for q in range(1, 8)]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _prefix_interference(row):
    # one grid row: 2 Re sum_Delta P_Delta conj(P_0 + ... + P_{Delta-1}),
    # the prefix sums built one channel at a time
    prefix = [row[0]]
    for z in row[1:-1]:
        prefix.append(prefix[-1] + z)
    return 2.0 * float(np.real(row[1:] * np.conj(np.array(prefix))).sum())


def _pair_interference(row):
    # one grid row: twice the real part over ordered pairs Delta > Gamma
    acc = 0.0
    for d in range(1, len(row)):
        acc += float(np.real(row[d] * np.conj(row[:d])).sum())
    return 2.0 * acc


def _exact_interference(row):
    # |sum P|^2 - sum |P|^2 of the same float channels, in exact rationals
    re = [Fraction(z.real) for z in row.tolist()]
    im = [Fraction(z.imag) for z in row.tolist()]
    return sum(re) ** 2 + sum(im) ** 2 - sum(a * a + b * b for a, b in zip(re, im))


def test_intensities_match_python_abs():
    # revival._intensities has the bits of Python's abs(z) ** 2 (hypot,
    # then libm pow), the reference loop, on a kernel series and on
    # values from subnormal to |z|^2 near 1e300, zeros included
    rng = np.random.default_rng(3)
    z = rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000)
    z *= 10.0 ** rng.uniform(-165.0, 150.0, len(z))
    kernel = channel_amplitudes(_state(1e6, 16.5), 1, np.linspace(0.0, 1.0, 2001))[:, 0]
    z = np.concatenate([z, kernel, [0.0, -0.0 - 0.0j, 5e-324, 5e-324j, 1e-170 + 1e-170j]])
    loop = np.array([abs(v) ** 2 for v in z.tolist()])
    assert revival._intensities(z).tobytes() == loop.tobytes()


def test_intensity_split_matches_per_point_formulas():
    # The survival-intensity columns, row-vectorised, against one grid
    # row at a time: the diagonal and the prefix-sum interference bit for
    # bit.  That interference and the pair loop it replaced both lie
    # within q 2^-52 (sum_Delta |P_Delta|)^2 of the exact value.  The state
    # keeps levels 0 .. 41, so at q = 64 channels 42 .. 63 are exactly 0.
    s = _state(10.0, 80.0)
    assert (s.n_min, s.n_max) == (0, 41)
    for q in (2, 3, 4, 5, 6, 7, 12, 30, 64):
        p = channel_amplitudes(s, q, FIGURE_GRID)
        assert not p[:, s.n_max + 1 :].any()
        diag = revival._diagonal(p)
        cross = revival._interference(p)
        for i in range(0, len(FIGURE_GRID), 7):
            row = p[i]
            assert diag[i] == float((np.abs(row) ** 2).sum())
            assert cross[i] == _prefix_interference(row)
            exact = _exact_interference(row)
            bound = q * 2.0**-52 * float(np.abs(row).sum()) ** 2
            assert abs(Fraction(cross[i]) - exact) <= bound
            assert abs(Fraction(_pair_interference(row)) - exact) <= bound


@pytest.mark.parametrize("q", [64, 84, 85, 200])
def test_channels_outside_window_are_zero(q):
    # levels 7 .. 90: at q = 85 level 90 wraps to channel 5 and channel 6
    # stays empty; at q = 200 every channel outside 7 .. 90 does
    s = _state(100.0, 28.0)
    assert (s.n_min, s.n_max) == (7, 90)
    t = np.linspace(0.0, 1.0, 41)
    p = channel_amplitudes(s, q, t)
    _assert_exact_sums(p, s, q, t)
    reached = sorted({n % q for n in range(s.n_min, s.n_max + 1)})
    assert len(reached) == min(q, s.n_max - s.n_min + 1)
    assert p[:, reached].all()
    assert not np.delete(p, reached, axis=1).any()


@pytest.mark.parametrize("J,mu", [(100.0, 28.0), (1e6, 16.0)])
@pytest.mark.parametrize("q", [*range(1, 8), 85, 200, 10**6])
def test_compact_readers_match_dense_matrix(J, mu, q):
    # The readers that take one column of the kernel, or its columns in
    # channel order, against the dense matrix of channel_amplitudes on
    # the same grid: the same bits where q <= L, since the same matrix
    # then has every channel in it.  Where q > L the row sums of the split
    # skip the empty channels and differ from the dense ones by at most
    # twice the gamma_L bound of a sum of L terms.  A channel no level
    # reaches is exactly 0.
    s = _state(J, mu)
    size = s.n_max - s.n_min + 1
    t = np.linspace(0.0, 0.7, 3)  # the CLI's grid at --t-max 0.7 --points 3
    cfg = dict(j=J, mu=mu, q=q, t_max=0.7, points=3)
    p = channel_amplitudes(s, q, t)
    one = [channel_amplitudes(s, q, [x])[0] for x in t]
    reached = {n % q for n in range(s.n_min, s.n_max + 1)}
    assert not np.delete(p, sorted(reached), axis=1).any()
    if q == 1:
        assert [autocorrelation(s, x) for x in t] == [z[0] for z in one]
        assert np.array_equal(autocorrelation_series(s, t).values, revival._intensities(p[:, 0]))
        return
    deltas = {0, 1, q - 1, s.n_min % q, s.n_max % q, (s.n_min - 1) % q, (s.n_max + 1) % q}
    for d in sorted(deltas):
        assert [revival._column(s, q, d, [x])[0] for x in t] == [z[d] for z in one]
        abs2 = revival._intensities(p[:, d])
        assert np.array_equal(revival._intensities(revival._column(s, q, d, t)), abs2)
        _, rows = _channel_rows(RunConfig("survival", delta=d, **cfg), q, d)
        assert rows == list(zip(t, p[:, d].real, p[:, d].imag, abs2))
        if d not in reached:
            assert not abs2.any()

    dense = [[revival._diagonal(p), revival._interference(p)]]
    dense += [[revival._diagonal(z[None]), revival._interference(z[None])] for z in one]
    _, rows = _rows_survival_intensity(RunConfig("survival-intensity", **cfg))
    assert [r[1] for r in rows] == revival._intensities(channel_amplitudes(s, 1, t)[:, 0]).tolist()
    got = [[[r[2] for r in rows], [r[3] for r in rows]]]
    got += [[a.tolist() for a in intensity_split(s, q, [x])[1:]] for x in t]
    gamma = size * 2.0**-53 / (1.0 - size * 2.0**-53)
    for (d_got, c_got), (d_ref, c_ref), z in zip(got, dense, [p, *(z[None] for z in one)]):
        if q <= size:
            assert d_got == d_ref.tolist() and c_got == c_ref.tolist()
        else:
            scale = (np.abs(z).sum(axis=1) ** 2).tolist()
            for k in range(len(z)):
                assert abs(d_got[k] - d_ref[k]) <= 2.0 * gamma * d_ref[k]
                assert abs(c_got[k] - c_ref[k]) <= 4.0 * gamma * scale[k]


@settings(max_examples=30, deadline=None)
@given(
    log_j=st.floats(min_value=math.log(100.0), max_value=math.log(2e4)),
    mu=_mu.filter(lambda m: m >= 4.0),
    q=st.integers(min_value=1, max_value=1000),
    entries=st.integers(min_value=1, max_value=2000),
    grid=_grid.map(lambda g: g[:6]),
)
def test_chunked_contraction_matches_exact_sums(log_j, mu, q, entries, grid):
    # a lowered entry budget splits every window (at least 50 levels,
    # so L^2 > budget) into several level chunks whose products add up
    s = _state(math.exp(log_j), mu)
    size = s.n_max - s.n_min + 1
    assert size * size > entries
    t = np.array(grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(revival, "_MATRIX_ENTRIES", entries)
        mp.setattr(revival, "_memo", None)
        mp.setattr(revival, "_context", None)
        p = channel_amplitudes(s, q, t)
    _assert_exact_sums(p, s, q, t)


def test_kernel_validation():
    s = _state(10.0, 28.0)
    for q in (0, -1, 2.0):
        with pytest.raises(ValueError):
            channel_amplitudes(s, q, [0.0])
    with pytest.raises(ValueError):
        channel_amplitudes(s, 2, np.zeros((2, 2)))
    assert channel_amplitudes(s, 3, []).shape == (0, 3)


@settings(max_examples=40, deadline=None)
@given(
    log_j=st.floats(min_value=math.log(0.5), max_value=math.log(1e4)),
    mu=_mu,
    tau=st.floats(min_value=0.0, max_value=3.0),
)
def test_ground_state_and_physical_time(log_j, mu, tau):
    s0 = _state(0.0, mu)
    assert np.array_equal(channel_amplitudes(s0, 2, [0.0, tau])[:, 1], [0.0, 0.0])
    # revival units against physical time through evolve/overlap.  The
    # round trip tau -> tau t_rev -> gamma / (2 pi mu) rounds tau by up
    # to 2 eps tau, which moves the phase of level n by 2 pi m_n times
    # that (m_n = mu n + n^2, sum_n w_n m_n = mu <e_n>): about 1e-10 at
    # J = 1e4, so it is added to the 1e-12.
    s = _state(math.exp(log_j), mu)
    a = channel_amplitudes(s, 1, [tau])[0, 0]
    rounding = 2.0 * math.pi * (2.0 * np.finfo(float).eps * tau) * mu * mean_energy(s)
    assert abs(overlap(s, evolve(s, tau * revival_time(s.params))) - a) <= 1e-12 + rounding


def _unwindowed_ln_weights(s, n_up=None):
    # the weights without the lower cut on levels 0 .. n_up (n_max by
    # default), normalised over every level 0 .. n_max, in 30-digit
    # arithmetic: a_0 = 1 and a_n = a_{n-1} J mu / (n (n + mu)), the
    # product J^n / rho_n itself
    import mpmath
    with mpmath.workdps(30):
        jmu = mpmath.mpf(s.J) * mpmath.mpf(s.params.mu)
        a = [mpmath.mpf(1)]
        for n in range(1, (s.n_max if n_up is None else n_up) + 1):
            a.append(a[-1] * jmu / (n * (n + mpmath.mpf(s.params.mu))))
        total = mpmath.fsum(a[: s.n_max + 1])
        return np.array([float(mpmath.log(x / total)) for x in a])


@settings(max_examples=40, deadline=None)
@given(
    mu=_mu,
    frac=st.floats(min_value=0.0, max_value=1.0),
    ratio=st.floats(min_value=0.5, max_value=2.0),
    gamma=st.floats(min_value=-3.0, max_value=3.0),
    tail_tol=st.sampled_from([1e-14, 1e-10, 1e-6]),
    q=st.integers(min_value=2, max_value=6),
    grid=_grid,
)
# overlap(s, s) at J = 1e7 once carried ~4e-13 of rounding from ln N^2
@example(mu=1.0, frac=1.0, ratio=1.0, gamma=0.0, tail_tol=1e-14, q=2, grid=[0.0])
def test_window_matches_unwindowed_sums(mu, frac, ratio, gamma, tail_tol, q, grid):
    # J log-uniform from 0.5 up to J mu = 1e7.  The window drops at most
    # tail_tol of the mass, so A(t), every channel P_Delta(t) and overlaps
    # move by at most twice that.
    J = math.exp(math.log(0.5) + frac * (math.log(1e7 / mu) - math.log(0.5)))
    p = SpectrumParams(mu=mu)
    s = build_state(J, 0.0, p, tail_tol)
    assert len(s.ln_weights) == s.n_max + 1
    assert np.all(s.ln_weights[: s.n_min] == -math.inf)
    assert np.all(np.isfinite(s.ln_weights[s.n_min :]))
    ln_full = _unwindowed_ln_weights(s)
    w_full = np.exp(ln_full)
    assert w_full[: s.n_min].sum() <= tail_tol
    tol = 2.0 * tail_tol + 1e-13

    t = np.array(grid)
    n = np.arange(s.n_max + 1, dtype=float)
    m_hi, m_lo = quadratic_in_n(n, mu)
    terms = np.exp(-1j * (TWO_PI * mul_frac(m_hi, m_lo, t[:, None]))) * w_full
    assert np.max(np.abs(channel_amplitudes(s, 1, t)[:, 0] - terms.sum(axis=1))) <= tol
    # channel Delta sums the levels n = Delta (mod q) counted from 0
    p_q = channel_amplitudes(s, q, t)
    for d in range(q):
        assert np.max(np.abs(p_q[:, d] - terms[:, d::q].sum(axis=1))) <= tol

    # <s|s2> against the same sum over both states' un-windowed weights,
    # each carried past its own n_max up to the other's by the term ratio
    s2 = build_state(min(J * ratio, 1e7 / mu), gamma, p, tail_tol)
    n_up = max(s.n_max, s2.n_max)
    ln1 = _unwindowed_ln_weights(s, n_up)
    ln2 = _unwindowed_ln_weights(s2, n_up)
    n = np.arange(n_up + 1, dtype=float)
    m_hi, m_lo = quadratic_in_n(n, mu)
    phases = np.exp(-1j * (TWO_PI * mul_frac(m_hi, m_lo, gamma / (TWO_PI * mu))))
    ov_full = (np.exp(0.5 * (ln1 + ln2)) * phases).sum()
    assert abs(overlap(s, s2) - ov_full) <= tol


@pytest.mark.parametrize("J,mu,n_min,n_max", [
    # the figure states keep every level
    (10.0, 1.0, 0, 18), (10.0, 28.0, 0, 35), (10.0, 80.0, 0, 41),
    (1e3, 28.0, 86, 242), (1e6, 16.0, 3629, 4437),
])
def test_window_bounds(J, mu, n_min, n_max):
    s = _state(J, mu)
    assert (s.n_min, s.n_max) == (n_min, n_max)


def _bound_t(s):
    # the largest |t| the reduction accepts for this state's top level
    n = float(s.n_max)
    return _dd._MAX_CYCLES / (s.params.mu * n + n * n)


@pytest.mark.parametrize("mu", [1.0, 28.0, 80.0, 16.1, 0.37, 40.5, 1e4 + 0.3])
@pytest.mark.parametrize("n", [0, 1, 17, 4437, 286811, 10**6, 2**26 - 1])
def test_cycle_bound_in_python_floats(n, mu):
    # _channels bounds the phase with mu n + n^2 in Python floats: n^2 is
    # exact below 2^26, so both round to fl(n^2 + fl(mu n)), the hi part
    # of quadratic_in_n
    n = float(n)
    assert n * n + mu * n == float(quadratic_in_n(n, mu)[0])


def test_quadratic_in_n_exact_below_2_26():
    # mu n + n^2 is exact as a hi/lo pair while n^2 is a double: at
    # n = 2^27 + 1 it is off by 1, a quarter cycle at t = 1/4
    for n in (0, 1, 4437, 2**26 - 1):
        assert sum(map(Fraction, quadratic_in_n(float(n), 28.0))) == 28 * n + n * n
    n = 2**27 + 1
    assert sum(map(Fraction, quadratic_in_n(float(n), 28.0))) == 28 * n + n * n - 1


def test_phase_bound_kernel(monkeypatch):
    s = _state(10.0, 28.3)
    t_in = _bound_t(s) * (1.0 - 1e-9)
    grid = np.linspace(0.0, t_in, 7)
    inside = channel_amplitudes(s, 3, -grid)
    with pytest.raises(ValueError, match="1e\\+20"):
        channel_amplitudes(s, 3, [0.0, 1.1 * _bound_t(s)])
    with pytest.raises(ValueError):
        channel_amplitudes(s, 1, [-1e25])
    # inside the bound the check changes nothing (evaluated afresh)
    monkeypatch.setattr(_dd, "_MAX_CYCLES", math.inf)
    monkeypatch.setattr(revival, "_memo", None)
    assert np.array_equal(channel_amplitudes(s, 3, -grid), inside)


def test_phase_bound_overlap(monkeypatch):
    # physical time: revival units times t_rev
    s = _state(10.0, 28.3)
    t = _bound_t(s) * revival_time(s.params)
    inside = overlap(s, evolve(s, -0.999 * t))
    with pytest.raises(ValueError):
        overlap(s, evolve(s, 1.001 * t))
    monkeypatch.setattr(_dd, "_MAX_CYCLES", math.inf)
    assert overlap(s, evolve(s, -0.999 * t)) == inside


def _same_bits(a, b):
    return a.shape == b.shape and bool(np.all(a.view(float) == b.view(float)))


def _fresh(state, q, t):
    revival._memo = revival._context = None
    return channel_amplitudes(state, q, t)


@settings(max_examples=40, deadline=None)
@given(
    mu=_mu,
    frac=st.floats(min_value=0.0, max_value=1.0),
    first=st.integers(min_value=1, max_value=7),
    q=st.integers(min_value=1, max_value=7),
    grid=_grid,
)
def test_memo_hit_equals_fresh_evaluation(mu, frac, first, q, grid):
    # J log-uniform from 0.5 up to J mu = 1e7
    J = math.exp(math.log(0.5) + frac * (math.log(1e7 / mu) - math.log(0.5)))
    s = _state(J, mu)
    t = np.array(grid)
    revival._memo = None
    p_first = channel_amplitudes(s, first, t)
    assert set(range(1, 7)) | {first} == set(revival._memo[1])
    p_q = channel_amplitudes(s, q, t)  # a hit, or q = 7 added to the entry
    hit = channel_amplitudes(s, q, t)
    assert _same_bits(hit, p_q)
    assert _same_bits(hit, _fresh(s, q, t))
    assert _same_bits(p_first, _fresh(s, first, t))


def test_memo_never_stale():
    s = _state(1e3, 28.3)
    t = np.linspace(0.0, 1.0, 50)
    p = channel_amplitudes(s, 3, t)
    kept = p.copy()
    p[:] = 0.0  # the caller's copy, not the memo's
    assert _same_bits(channel_amplitudes(s, 3, t), kept)

    t[5] += 0.01  # the grid changed in place
    moved = channel_amplitudes(s, 3, t)
    assert not np.array_equal(moved[5], kept[5])
    assert np.array_equal(np.delete(moved, 5, axis=0), np.delete(kept, 5, axis=0))
    assert _same_bits(moved, _fresh(s, 3, t))

    channel_amplitudes(s, 3, t)
    s.ln_weights[s.n_min + 3] -= 1.0  # the weights changed in place
    reweighted = channel_amplitudes(s, 3, t)
    assert not np.array_equal(reweighted, moved)
    assert _same_bits(reweighted, _fresh(s, 3, t))


def _count_rows(monkeypatch):
    # grid rows passed to the kernel's phase factors; one evaluation
    # covers every grid row once, whatever its block size
    rows = []
    real = _dd.phase_parts

    def counted(m_hi, m_lo, t, out=None):
        rows.append(t.shape[0])
        return real(m_hi, m_lo, t, out)

    monkeypatch.setattr(_dd, "phase_parts", counted)
    return rows


def test_revival_scan_costs_one_evaluation(monkeypatch):
    # q = 1, then the fractional-revival scan q = 2..5, as large_j asks
    s = _state(1e4, 16.1)
    t = np.linspace(0.0, 1.0, 267)
    rows = _count_rows(monkeypatch)
    autocorrelation_series(s, t)
    assert len(rows) > 1
    for q in (2, 3, 4, 5):
        fractional_decomposition(s, q, t)
    assert sum(rows) == len(t)


def test_large_modulus_fills_scan_moduli(monkeypatch):
    # a first call with q = 7 fills q = 1..7; a later q = 3 is served
    s = _state(1e3, 28.3)
    t = np.linspace(0.0, 1.0, 101)
    rows = _count_rows(monkeypatch)
    p7 = channel_amplitudes(s, 7, t)
    assert set(revival._memo[1]) == set(range(1, 8))
    assert sum(rows) == len(t)
    del rows[:]
    p3 = channel_amplitudes(s, 3, t)
    assert rows == []
    assert _same_bits(p3, _fresh(s, 3, t))
    assert _same_bits(p7, _fresh(s, 7, t))


def test_large_modulus_scan_bounds_memo():
    # a library scan over q = 7..60 on one state and grid keeps q = 1..6
    # and the latest modulus, not every modulus it asked
    s = _state(10.0, 28.0)
    for q in range(7, 61):
        p = channel_amplitudes(s, q, FIGURE_GRID)
        assert set(revival._memo[1]) == set(range(1, 7)) | {q}
    assert len(revival._memo[1]) <= 7
    assert _same_bits(p, _fresh(s, 60, FIGURE_GRID))
    # moduli asked together are all kept
    channel_amplitudes(s, 2, FIGURE_GRID)
    revival._channels(s, [8, 9], FIGURE_GRID)
    assert set(revival._memo[1]) == set(range(1, 10)) - {7}


@pytest.mark.parametrize("J,mu,t_max,points", [(1e3, 28.3, 1.0, 267), (3e5, 50.5, 1.3, 1001)])
def test_scan_moduli_bits_do_not_depend_on_larger_moduli(monkeypatch, J, mu, t_max, points):
    # q = 1..6 are served from one evaluation, and an evaluation that
    # also asked q = 60 gives them the same bits: the scan moduli are one
    # product, every other modulus its own (one product over all 81
    # columns moves q = 6 by an ulp in the second case)
    s = _state(J, mu)
    t = np.linspace(0.0, t_max, points)
    rows = _count_rows(monkeypatch)
    scan = {q: channel_amplitudes(s, q, t) for q in range(1, 7)}
    assert sum(rows) == len(t)
    _fresh(s, 60, t)
    assert set(revival._memo[1]) == set(range(1, 7)) | {60}
    assert sum(rows) == 2 * len(t)
    for q, p in scan.items():
        assert _same_bits(channel_amplitudes(s, q, t), p)
    assert sum(rows) == 2 * len(t)


def test_rebuilt_states_share_one_evaluation(monkeypatch):
    # figure 4: one identically rebuilt state per channel
    rows = _count_rows(monkeypatch)
    columns = [revival._column(_state(10.0, 28.0), 4, d, FIGURE_GRID) for d in range(4)]
    assert sum(rows) == len(FIGURE_GRID)
    p = _fresh(_state(10.0, 28.0), 4, FIGURE_GRID)
    for d, column in enumerate(columns):
        assert np.array_equal(column, p[:, d])


def test_survival_intensity_rows_one_evaluation(monkeypatch):
    rows = _count_rows(monkeypatch)
    _, table = _rows_survival_intensity(RunConfig("survival-intensity", points=301))
    assert sum(rows) == len(table) == 301


def test_validation_precedes_memo(monkeypatch):
    s = _state(10.0, 28.3)
    t = np.array([0.0, 0.5])
    channel_amplitudes(s, 2, t)
    with pytest.raises(ValueError):
        channel_amplitudes(s, 0, t)

    # a planted entry is served on its key, but a non-finite time on
    # the key still raises
    key = (s.params.mu, s.n_min, s.ln_weights[s.n_min :].tobytes())
    planted = np.full((2, 1), 7.0 + 0j)
    revival._memo = (key + (t.tobytes(),), {1: planted})
    assert _same_bits(channel_amplitudes(s, 1, t), planted)
    bad = np.array([0.0, math.nan])
    revival._memo = (key + (bad.tobytes(),), {1: planted[:2]})
    with pytest.raises(ValueError, match="finite"):
        channel_amplitudes(s, 1, bad)

    # past the phase bound: evaluated with the bound lifted, then asked
    # again on the same key with the bound back
    far = np.array([0.0, 1.1 * _bound_t(s)])
    monkeypatch.setattr(_dd, "_MAX_CYCLES", math.inf)
    channel_amplitudes(s, 3, far)
    monkeypatch.setattr(_dd, "_MAX_CYCLES", 1e20)
    with pytest.raises(ValueError, match="1e\\+20"):
        channel_amplitudes(s, 3, far)


def test_series_check_grid_once(monkeypatch):
    # a series call checks its grid once, in _series_grid, and returns
    # the fields the public constructor would set; that constructor
    # still checks the grid it is given
    s = _state(10.0, 28.3)
    grid = np.linspace(0.0, 1.0, 11)
    checks = []
    check = revival._check_increasing
    monkeypatch.setattr(revival, "_check_increasing", lambda t: checks.append(1) or check(t))
    series = [autocorrelation_series(s, grid), *fractional_decomposition(s, 4, grid).fractions]
    assert len(checks) == 2
    for ts in series:
        ref = TimeSeries(t_grid=ts.t_grid, values=ts.values, label=ts.label)
        assert ref.t_grid is ts.t_grid and ref.values is ts.values and ref.label == ts.label
        assert ts.t_grid.dtype == float and ts.values.ndim == 1 and len(ts.values) == len(grid)
    for bad in (grid[::-1], np.array([0.0, 0.5, 0.5])):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries(t_grid=bad, values=np.zeros(len(bad)), label="x")


@pytest.mark.parametrize("grid", [[0.5, 0.25, 0.0], [0.0, 0.5, 0.5, 1.0]])
def test_series_reject_unordered_grid_before_kernel(monkeypatch, grid):
    s = _state(1e6, 16.1)
    ordered = np.linspace(0.0, 1.0, 5)
    channel_amplitudes(s, 2, ordered)
    memo = revival._memo
    rows = _count_rows(monkeypatch)
    for call in (
        lambda: autocorrelation_series(s, grid),
        lambda: fractional_decomposition(s, 3, grid),
    ):
        with pytest.raises(ValueError, match="strictly increasing"):
            call()
    assert rows == [] and revival._memo is memo
    # the kernel itself takes any order
    assert channel_amplitudes(s, 2, ordered[::-1]).shape == (5, 2)


def test_memo_shared_by_threads():
    # threads racing on the one memo entry, each with its own states,
    # grids and moduli, get exactly the values of a fresh evaluation
    cases = [
        (_state(J, mu), np.linspace(0.0, t_max, 40), q)
        for J, mu, t_max in [(10.0, 28.0, 1.0), (1e3, 28.3, 0.5), (1e4, 16.1, 1.0)]
        for q in (1, 3, 5)
    ]
    expected = [_fresh(s, q, t) for s, t, q in cases]
    wrong = []

    def work(offset):
        for k in range(60):
            i = (offset + 5 * k) % len(cases)
            s, t, q = cases[i]
            if not _same_bits(channel_amplitudes(s, q, t), expected[i]):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


def _count_builds(monkeypatch):
    # weight matrices and quadratic_in_n splits the kernel builds (revival
    # calls _dd.quadratic_in_n by this name)
    built = []
    for name in ("_weight_matrix", "quadratic_in_n"):
        real = getattr(revival, name)

        def spy(*args, real=real, name=name):
            built.append(name)
            return real(*args)

        monkeypatch.setattr(revival, name, spy)
    return built


def _same_value(z, p):
    # a one-time A(t) against the one row of a fresh (1, 1) evaluation
    return _same_bits(np.array([z]), p[0])


def test_state_context_reused(monkeypatch):
    # after a grid evaluation, a one-time call, another grid, the evolved
    # state and an identically rebuilt one take the state's level side
    # from the context: each call evaluates its phase rows but builds no
    # weight matrix or split.  An in-place weight edit or another state
    # builds them again.  Every result has the bits of a fresh evaluation.
    s = _state(1e4, 16.1)
    grid, other, tau = np.linspace(0.0, 1.0, 267), np.linspace(0.1, 0.9, 31), 0.37
    built = _count_builds(monkeypatch)
    rows = _count_rows(monkeypatch)
    series, kept = autocorrelation_series(s, grid), copy.deepcopy(s)
    assert len(revival._context[2]) == 1
    assert built.count("_weight_matrix") == built.count("quadratic_in_n") == 1
    del built[:], rows[:]
    got = []
    for state in (s, evolve(s, 2.5), _state(1e4, 16.1)):
        z, p = autocorrelation(state, tau), channel_amplitudes(state, 3, other)
        got.append((copy.deepcopy(state), z, p))
    assert built == [] and sum(rows) == 3 * (1 + len(other))

    s.ln_weights[s.n_min + 3] -= 1.0  # in place
    for state in (s, _state(1e3, 28.3)):
        del built[:]
        p = channel_amplitudes(state, 3, other)
        assert "_weight_matrix" in built and "quadratic_in_n" in built
        got.append((state, autocorrelation(state, tau), p))

    assert _same_bits(series.values, revival._intensities(_fresh(kept, 1, grid)[:, 0]))
    for state, z, p in got:
        assert _same_value(z, _fresh(state, 1, [tau]))
        assert _same_bits(p, _fresh(state, 3, other))


def test_state_context_bounded(monkeypatch):
    # a window of more than one level chunk (here 247 levels in 4 chunks,
    # under a lowered entry budget) is not kept: each evaluation builds
    # each chunk's split and scan matrix again, and the context keeps the
    # last one-chunk state, with the bits of a fresh evaluation
    monkeypatch.setattr(revival, "_MATRIX_ENTRIES", 1 << 14)
    small, s = _state(10.0, 28.3), _state(1e4, 16.1)
    grid, tau = np.linspace(0.0, 1.0, 267), 0.37
    channel_amplitudes(small, 3, grid)
    context = revival._context
    built = _count_builds(monkeypatch)
    got = []
    for call in range(3):
        del built[:]
        z, p = autocorrelation(s, tau), channel_amplitudes(s, 3, grid[call:])
        assert built.count("_weight_matrix") == built.count("quadratic_in_n") == 2 * 4
        assert revival._context is context
        got.append((z, p, grid[call:]))
    for z, p, t in got:
        assert _same_value(z, _fresh(s, 1, [tau]))
        assert _same_bits(p, _fresh(s, 3, t))
        assert revival._context is None


def test_context_shared_by_threads():
    # threads interleaving one-time and grid calls on three states share
    # the one memo entry and state context, and get exactly the values of
    # a fresh evaluation
    grid = np.linspace(0.0, 1.0, 40)
    states = [_state(J, mu) for J, mu in [(10.0, 28.0), (1e3, 28.3), (1e4, 16.1)]]
    cases = [(s, tau, None) for s in states for tau in (0.25, 0.61)]
    cases += [(s, grid, q) for s in states for q in (1, 4)]
    expected = [_fresh(s, 1, [t]) if q is None else _fresh(s, q, t) for s, t, q in cases]
    wrong = []

    def work(offset):
        for k in range(60):
            i = (offset + 7 * k) % len(cases)
            s, t, q = cases[i]
            if q is None:
                ok = _same_value(autocorrelation(s, t), expected[i])
            else:
                ok = _same_bits(channel_amplitudes(s, q, t), expected[i])
            if not ok:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []
