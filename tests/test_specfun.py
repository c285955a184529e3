"""Kernel tests: frozen high-precision oracles, closed forms, and the
Wronskian cross-check that ties I and K together."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkrevival import specfun
from gkrevival.specfun import (
    ConvergenceError,
    bessel_i_ratio,
    bessel_i_scaled,
    bessel_k_scaled,
    ln_bessel_i,
    ln_bessel_k,
    ln_gamma,
    wronskian_residual,
)

# frozen oracle values (40-digit ascending series / integral-representation
# quadrature, rounded to double)
I0_1_SCALED = 0.46575960759364043650  # e^-1 I_0(1)
K0_1_SCALED = 1.14446307980689501470  # e K_0(1)
LN_SQRT_PI = 0.57236494292470008707


def test_ln_gamma_trivials():
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(2.0) == 0.0
    assert math.isclose(ln_gamma(0.5), LN_SQRT_PI, rel_tol=1e-14)
    assert math.isclose(ln_gamma(11.0), math.log(3628800.0), rel_tol=1e-14)


# nan, inf and arguments whose lgamma overflows are rejected too
@pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan, math.inf, -math.inf, 1e306, 1e308])
def test_ln_gamma_domain(x):
    with pytest.raises(ValueError):
        ln_gamma(x)


def test_frozen_oracles():
    assert math.isclose(bessel_i_scaled(0.0, 1.0), I0_1_SCALED, rel_tol=1e-13)
    assert math.isclose(bessel_k_scaled(0.0, 1.0), K0_1_SCALED, rel_tol=1e-13)
    # ten-digit spot values for the unscaled functions at x=1
    assert math.isclose(bessel_i_scaled(0.0, 1.0) * math.e, 1.2660658778, rel_tol=1e-9)
    assert math.isclose(bessel_k_scaled(0.0, 1.0) / math.e, 0.4210244382, rel_tol=1e-9)


def test_i_at_zero():
    assert bessel_i_scaled(0.0, 0.0) == 1.0
    assert bessel_i_scaled(3.7, 0.0) == 0.0


_XS = np.linspace(0.04, 30.0, 50)


@pytest.mark.parametrize("x", _XS)
def test_half_integer_i(x):
    x = float(x)
    closed = math.exp(-x) * math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
    assert math.isclose(bessel_i_scaled(0.5, x), closed, rel_tol=1e-12)


@pytest.mark.parametrize("x", _XS)
def test_half_integer_k(x):
    x = float(x)
    closed = math.sqrt(math.pi / (2.0 * x))
    assert math.isclose(bessel_k_scaled(0.5, x), closed, rel_tol=1e-12)


@pytest.mark.parametrize("x", _XS)
def test_half_integer_ratio(x):
    # I_{3/2}/I_{1/2} = coth(x) - 1/x
    x = float(x)
    closed = 1.0 / math.tanh(x) - 1.0 / x
    assert math.isclose(bessel_i_ratio(0.5, x), closed, rel_tol=1e-12)


def test_wronskian_sweep():
    rng = np.random.default_rng(42)
    nu = rng.uniform(0.0, 100.0, 200)
    x = rng.uniform(1e-3, 200.0, 200)
    worst = max(wronskian_residual(float(a), float(b)) for a, b in zip(nu, x))
    assert worst < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    frac=st.floats(min_value=0.0, max_value=1.0),
    mu=st.one_of(
        st.integers(min_value=1, max_value=100).map(float),
        st.floats(min_value=0.5, max_value=100.0).filter(lambda m: not m.is_integer()),
    ),
)
def test_wronskian_at_state_arguments(frac, mu):
    # nu = mu at the argument 2 sqrt(J mu) of a state's weights, J
    # log-uniform in [0.5, 1e6] with J mu <= 1e7
    j_max = min(1e6, 1e7 / mu)
    J = math.exp(math.log(0.5) + frac * (math.log(j_max) - math.log(0.5)))
    assert wronskian_residual(mu, 2.0 * math.sqrt(J * mu)) < 1e-10


@pytest.mark.parametrize("nu", [1.0, 2.5, 28.0, 80.0])
@pytest.mark.parametrize("x", [0.3, 5.0, 56.6, 150.0])
def test_recurrence(nu, x):
    # I_{nu-1} - I_{nu+1} = (2 nu / x) I_nu, scaled factors cancel
    lhs = bessel_i_scaled(nu - 1.0, x) - bessel_i_scaled(nu + 1.0, x)
    rhs = 2.0 * nu / x * bessel_i_scaled(nu, x)
    assert math.isclose(lhs, rhs, rel_tol=1e-9)


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.0, 28.0, 80.0])
@pytest.mark.parametrize("x", [1e-3, 1.0, 56.6, 200.0])
def test_positivity_and_ratio_range(nu, x):
    # for nu >> x the scaled I underflows double range; positivity is
    # then asserted on the (always finite) log value instead
    ln_i = ln_bessel_i(nu, x)
    assert math.isfinite(ln_i)
    if ln_i - x > -700.0:
        assert bessel_i_scaled(nu, x) > 0.0
    assert bessel_k_scaled(nu, x) > 0.0
    r = bessel_i_ratio(nu, x)
    assert 0.0 < r < 1.0


def test_ratio_at_zero_and_small_x():
    assert bessel_i_ratio(3.0, 0.0) == 0.0
    for nu in (0.0, 1.0, 28.0):
        x = 1e-5
        lead = x / (2.0 * (nu + 1.0))
        assert math.isclose(bessel_i_ratio(nu, x), lead, rel_tol=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    nu=st.sampled_from([0.0, 1.0, 28.0]),
    log_x=st.floats(min_value=math.log(1e-300), max_value=math.log(1e-5)),
)
def test_ratio_tiny_argument(nu, log_x):
    # against the first two terms of the small-x series; the third is
    # O(x^4), below 1e-20 relative at x = 1e-5.  The modified-Lentz seed
    # (1e-300) used to leak into the answer once it neared 1e-300.
    x = math.exp(log_x)
    series = x / (2.0 * (nu + 1.0)) * (1.0 - x * x / (4.0 * (nu + 1.0) * (nu + 2.0)))
    assert math.isclose(bessel_i_ratio(nu, x), series, rel_tol=1e-12)


@pytest.mark.parametrize("nu", [0.0, 1.0, 28.0])
@pytest.mark.parametrize("x", [5e-324, 1e-320, 2e-310, 2.2e-308])
def test_ratio_subnormal_argument(nu, x):
    r = bessel_i_ratio(nu, x)
    assert math.isfinite(r) and 0.0 <= r <= x


@pytest.mark.parametrize("nu,x,value", [
    # just above the small-x cut, x = 1.01 sqrt(4e-17 (nu+1)(nu+2)), and
    # further out: the continued fraction's values, pinned bit for bit
    (0.0, 9.03371462909915e-09, 4.516857314549575e-09),
    (0.0, 1e-05, 4.999999999937501e-06),
    (1.0, 1.5646852718677965e-08, 3.911713179669491e-09),
    (1.0, 1e-06, 2.499999999999896e-07),
    (28.0, 1.8841305687239407e-07, 3.248500980558518e-09),
    (28.0, 0.3, 0.005172280030476711),
])
def test_ratio_above_small_x_cut_unchanged(nu, x, value):
    assert bessel_i_ratio(nu, x) == value


@pytest.mark.parametrize("nu", [0.0, 1.0, 28.0, 80.0])
def test_ratio_monotone_in_x(nu):
    xs = np.linspace(0.1, 120.0, 240)
    vals = [bessel_i_ratio(nu, float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_ratio_against_scaled_division():
    y = 2.0 * math.sqrt(280.0)
    direct = bessel_i_scaled(29.0, y) / bessel_i_scaled(28.0, y)
    assert math.isclose(bessel_i_ratio(28.0, y), direct, rel_tol=1e-10)


def test_scipy_cross_check():
    from scipy.special import ive, kve

    rng = np.random.default_rng(3)
    for _ in range(20):
        nu = float(rng.uniform(0.0, 90.0))
        x = float(rng.uniform(0.05, 180.0))
        assert math.isclose(bessel_i_scaled(nu, x), float(ive(nu, x)), rel_tol=1e-10)
        assert math.isclose(bessel_k_scaled(nu, x), float(kve(nu, x)), rel_tol=1e-10)


def test_log_domain_extremes():
    # far outside double range in linear scale, finite in logs
    assert math.isfinite(ln_bessel_k(80.0, 1e-6))
    assert ln_bessel_k(80.0, 1e-6) > 1000.0
    assert math.isfinite(ln_bessel_i(80.0, 1e-6))
    assert ln_bessel_i(80.0, 1e-6) < -1000.0
    # ln consistency with the scaled entry points
    x = 56.6
    assert math.isclose(ln_bessel_i(80.0, x), math.log(bessel_i_scaled(80.0, x)) + x,
                        rel_tol=1e-13)
    assert math.isclose(ln_bessel_k(80.0, x), math.log(bessel_k_scaled(80.0, x)) - x,
                        rel_tol=1e-13)


def test_series_range_error():
    # past x = 1e16 the peak index nears 2^53, where levels stop being
    # exact floats; the series raises rather than sum wrong terms
    assert math.isfinite(ln_bessel_i(80.0, 1e12))
    for x in (1.01e16, 1e200):
        with pytest.raises(ConvergenceError, match="serves x <= 1e"):
            ln_bessel_i(0.0, x)


def test_series_cap_error(monkeypatch):
    # the budget is derived from the argument; shrinking it must still
    # end in a loud ConvergenceError rather than a truncated sum
    monkeypatch.setattr(specfun, "_term_budget", lambda x: 100)
    with pytest.raises(ConvergenceError):
        ln_bessel_i(0.0, 600.0)


def test_k_node_cap_error(monkeypatch):
    # at nu = 1e5, x = 1e-9 rounding in L(t) - L(t_peak) (nu * t_peak is
    # about 2.8e6) keeps sweeps from agreeing; the node cap turns what
    # would be gigabytes of nodes into a loud error, for an array too
    monkeypatch.setattr(specfun, "_MAX_NODES", 1 << 14)
    with pytest.raises(ConvergenceError, match="within 16384 nodes"):
        ln_bessel_k(1e5, 1e-9)
    with pytest.raises(ConvergenceError, match="nu=100000.0, x=1e-09"):
        ln_bessel_k(1e5, np.array([1e5, 1e-9]))


@pytest.mark.parametrize("nu,x", [(0.0, 1e40), (0.0, 1e200), (1e155, 1.0), (1e300, 1e-300)])
def test_k_past_node_step_error(nu, x):
    # a node count past 2^63, or a step 1.5 / (nu^2 + x^2)^(1/4) of 0
    # where nu^2 + x^2 overflows, is a ConvergenceError, not a NumPy cast
    # warning or a negative array size; alone or in an array
    with pytest.raises(ConvergenceError, match="K quadrature"):
        ln_bessel_k(nu, x)
    with pytest.raises(ConvergenceError, match="K quadrature"):
        ln_bessel_k(np.array([1.0, nu]), np.array([1.0, x]))


def test_k_domain_error():
    with pytest.raises(ValueError):
        bessel_k_scaled(1.0, 0.0)
    with pytest.raises(ValueError):
        ln_bessel_k(1.0, -2.0)


_KERNEL = [ln_bessel_i, bessel_i_scaled, ln_bessel_k, bessel_k_scaled, bessel_i_ratio,
           wronskian_residual]


@pytest.mark.parametrize("fn", _KERNEL, ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, -10**400],
                         ids=["nan", "inf", "-inf", "10**400", "-10**400"])
@pytest.mark.parametrize("slot", ["nu", "x"])
def test_non_finite_input_rejected(fn, bad, slot):
    nu, x = (bad, 5.0) if slot == "nu" else (1.0, bad)
    with pytest.raises(ValueError, match="must be finite"):
        fn(nu, x)


@pytest.mark.parametrize("fn", [ln_bessel_i, ln_bessel_k, bessel_i_ratio, wronskian_residual],
                         ids=lambda f: f.__name__)
def test_negative_input_messages(fn):
    with pytest.raises(ValueError, match=r"order must be >= 0, got -1\.0"):
        fn(-1.0, 5.0)
    with pytest.raises(ValueError, match=r"argument must be >=? 0, got -2\.0"):
        fn(1.0, -2.0)


def test_far_past_a_fixed_budget():
    # ~5e4 series terms and ~8e3 fraction steps, both past the 5000 that
    # used to be the fixed cap
    from scipy.special import ive

    ref = math.log(float(ive(40.5, 1e5))) + 1e5
    assert math.isclose(ln_bessel_i(40.5, 1e5), ref, rel_tol=1e-12)
    ratio = float(ive(81.0, 2e6)) / float(ive(80.0, 2e6))
    assert math.isclose(bessel_i_ratio(80.0, 2e6), ratio, rel_tol=1e-12)


@pytest.mark.parametrize("nu", [0.0, 2.0])
def test_ratio_lentz_range(nu):
    # served up to x = 1e8 (nu + 1), against 1 - (nu + 1/2)/x whose next
    # term is O(1/x^2); past about 3.6e8 (nu + 1) the first Lentz step
    # would overflow and the fraction would come back as inf
    x = 1e8 * (nu + 1.0)
    assert math.isclose(bessel_i_ratio(nu, x), 1.0 - (nu + 0.5) / x, rel_tol=1e-12)
    with pytest.raises(ConvergenceError, match="serves x <="):
        bessel_i_ratio(nu, 3.7e8 * (nu + 1.0))


def test_ratio_step_cap():
    # the Lentz steps stop at _RATIO_MAX_STEPS, not at the term budget of
    # about 1e54 steps at x = 1e105; at nu = 1e100, nu + k rounds to nu,
    # so the steps stop changing and never converge
    with pytest.raises(ConvergenceError, match=f"did not converge in {1 << 22} steps"):
        bessel_i_ratio(1e100, 1e105)


def test_huge_order_is_value_error():
    # lgamma(nu + 1) overflows past about 2.5e305: ValueError, not
    # OverflowError; and the peak level's quotient no longer doubles q
    with pytest.raises(ValueError, match="overflows"):
        ln_bessel_i(2.56e305, 0.15)
    assert specfun._peak_level(8.99e307, 8.99e306) == 10


@settings(max_examples=80, deadline=None)
@given(
    nu=st.floats(min_value=0.0, max_value=100.0),
    log_x=st.floats(min_value=math.log(1e-3), max_value=math.log(2e4)),
)
def test_kernel_matches_scipy_ive(nu, log_x):
    # wherever SciPy's scaled I stays in the normal double range
    from scipy.special import ive

    x = math.exp(log_x)
    i0, i1 = float(ive(nu, x)), float(ive(nu + 1.0, x))
    if i0 < 1e-300:
        return
    ref = math.log(i0) + x
    assert abs(ln_bessel_i(nu, x) - ref) <= 1e-12 * max(1.0, abs(ref))
    if i1 >= 1e-300:
        assert math.isclose(bessel_i_ratio(nu, x), i1 / i0, rel_tol=1e-12)


def _ln_bessel_i_from_zero(nu, x):
    # The ascending series summed from k = 0, as it was written before
    # the window around the peak term: the reference for ln_bessel_i.
    q = 0.25 * x * x
    ln_q = math.log(q)
    ln_t = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    terms = [ln_t]
    peak = ln_t
    k = 0
    while True:
        k += 1
        ln_t += ln_q - math.log(k * (nu + k))
        terms.append(ln_t)
        if ln_t > peak:
            peak = ln_t
        elif k * (nu + k) > q:
            r = q / ((k + 1.0) * (nu + k + 1.0))
            if ln_t + math.log(r) - math.log1p(-r) < peak + math.log(1e-12) - 3.0:
                return peak + math.log(np.exp(np.array(terms) - peak).sum())


@settings(max_examples=80, deadline=None)
@given(
    nu=st.one_of(st.floats(min_value=0.0, max_value=100.0),
                 st.floats(min_value=-3.0, max_value=4.0).map(lambda e: 10.0**e)),
    log_x=st.floats(min_value=math.log(1e-3), max_value=math.log(1e5)),
)
def test_ln_bessel_i_window_matches_sum_from_zero(nu, log_x):
    # each sum drops at most e^-3 1e-12 (5e-14) of the total, so the two
    # stay within 1e-13 of each other in ln I
    x = math.exp(log_x)
    ref = _ln_bessel_i_from_zero(nu, x)
    assert abs(ln_bessel_i(nu, x) - ref) <= 1e-13 * max(1.0, abs(ref))


@settings(max_examples=80, deadline=None)
@given(
    nu=st.floats(min_value=0.0, max_value=100.0),
    log_x=st.floats(min_value=math.log(1e-3), max_value=math.log(2e6)),
)
def test_ln_bessel_i_matches_scipy_ive_to_large_x(nu, log_x):
    # past the x = 2e4 of test_kernel_matches_scipy_ive, out to the x of
    # a state at J mu = 1e12, where the window sums about 8.5 sqrt(x) terms
    from scipy.special import ive

    x = math.exp(log_x)
    i = float(ive(nu, x))
    if i < 1e-300:
        return
    ref = math.log(i) + x
    assert abs(ln_bessel_i(nu, x) - ref) <= 1e-13 * max(1.0, abs(ref))


def _ln_bessel_i_hankel(nu, x):
    # the first four terms of the large-argument expansion (DLMF 10.40.1);
    # at x >= 5e7 and nu <= 80 the fifth is below 1e-18 relative
    m, term, total = 4.0 * nu * nu, 1.0, 1.0
    for k in (1, 2, 3):
        term *= -(m - (2 * k - 1) ** 2) / (8.0 * k * x)
        total += term
    return x - 0.5 * math.log(2.0 * math.pi * x) + math.log(total)


@pytest.mark.parametrize("nu", [0.0, 80.0])
def test_ln_bessel_i_past_first_block(nu):
    # near x = 2e8 a side's tail test closes only in a second, doubled
    # block (its -ln(1 - r) adds about 6.5), which once passed the term
    # budget: 60 log-spaced x over 5e7 .. 2e9, states at J mu up to 1e18,
    # against the Hankel expansion and SciPy's ive (NaN past about 1.07e9)
    from scipy.special import ive

    for x in np.geomspace(5e7, 2e9, 60).tolist():
        got = ln_bessel_i(nu, x)
        assert abs(got - _ln_bessel_i_hankel(nu, x)) <= 1e-13 * got
        if x < 1e9:
            assert abs(got - (math.log(float(ive(nu, x))) + x)) <= 1e-13 * got


@settings(max_examples=80, deadline=None)
@given(
    nu=st.floats(min_value=0.0, max_value=100.0),
    log_x=st.floats(min_value=math.log(1e-3), max_value=math.log(2e4)),
)
def test_ln_bessel_k_matches_scipy_kve(nu, log_x):
    # wherever SciPy's scaled K is finite and positive
    from scipy.special import kve

    x = math.exp(log_x)
    k = float(kve(nu, x))
    if not (math.isfinite(k) and k > 0.0):
        return
    ref = math.log(k)
    assert abs(ln_bessel_k(nu, x) + x - ref) <= 1e-12 * max(1.0, abs(ref))


def _ln_bessel_k_scalar_reference(nu, x):
    # The one-element trapezoid exactly as it was written before the array
    # form: the bit-level reference for scalar ln_bessel_k.
    def ln_f(t):
        shifted = -x * 2.0 * np.sinh(0.5 * t) ** 2
        if nu > 0.0:
            a = np.abs(nu * t)
            shifted = shifted + (a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0))
        return shifted

    t_peak = math.asinh(nu / x) if nu > 0.0 else 0.0
    ln_peak = float(ln_f(np.array(t_peak)))
    t_hi = t_peak + 1.0
    while float(ln_f(np.array(t_hi))) > ln_peak - 50.0:
        t_hi += 1.0
    h = min(0.5, 1.5 / (x * x + nu * nu) ** 0.25)
    previous = None
    for _ in range(24):
        t = np.arange(0.0, t_hi + h, h)
        vals = np.exp(ln_f(t) - ln_peak)
        vals[0] *= 0.5
        total = h * float(vals.sum())
        if previous is not None and abs(total - previous) <= 1e-12 * abs(total):
            return ln_peak + math.log(total) - x
        previous = total
        h *= 0.5
    raise AssertionError("reference did not converge")


@pytest.mark.parametrize("nu", [0.0, 1e-200, 0.5, 2.5, 28.0, 80.0, 100.0])
def test_ln_bessel_k_scalar_bit_identical(nu):
    for x in (1e-12, 1e-3, 0.3, 5.0, 56.6, 130.0, 1e3, 2e4):
        assert ln_bessel_k(nu, x) == _ln_bessel_k_scalar_reference(nu, x)


def test_ln_bessel_k_blocks_do_not_change_bits(monkeypatch):
    # with NumPy's smallest pairwise block, long elements go through the
    # split sum and arrays through many blocks; no value may move
    nu = np.repeat([0.0, 2.5, 80.0, 100.0], 4)
    x = np.tile([1e-3, 0.3, 56.6, 2e4], 4)
    ref = [_ln_bessel_k_scalar_reference(a, b) for a, b in zip(nu, x)]
    monkeypatch.setattr(specfun, "_BLOCK_NODES", 128)
    assert ln_bessel_k(nu, x).tolist() == ref
    assert [ln_bessel_k(a, b) for a, b in zip(nu, x)] == ref


_K_POINT = st.tuples(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=math.log(1e-3), max_value=math.log(2e4)),
)


@settings(max_examples=25, deadline=None)
@given(points=st.lists(_K_POINT, min_size=1, max_size=50))
def test_ln_bessel_k_array_equals_scalar(points):
    from scipy.special import kve

    nu = np.array([p[0] for p in points])
    x = np.exp(np.array([p[1] for p in points]))
    got = ln_bessel_k(nu, x)
    assert got.shape == x.shape
    for a, b, v in zip(nu.tolist(), x.tolist(), got.tolist()):
        assert v == ln_bessel_k(a, b)
        k = float(kve(a, b))
        if math.isfinite(k) and k > 0.0:
            ref = math.log(k) - b
            assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))


def test_ln_bessel_k_array_forms():
    x = np.array([[0.5, 5.0], [50.0, 500.0]])
    got = ln_bessel_k(2.5, x)
    assert isinstance(got, np.ndarray) and got.shape == (2, 2)
    assert got[1, 0] == ln_bessel_k(2.5, 50.0)
    assert isinstance(ln_bessel_k(2.5, 5.0), float)
    assert ln_bessel_k(2.5, np.array([])).shape == (0,)
    # the first element out of the domain is the one reported
    with pytest.raises(ValueError, match=r"argument must be > 0, got -2\.0"):
        ln_bessel_k(1.0, np.array([1.0, -2.0, 0.0]))
    with pytest.raises(ValueError, match="must be finite"):
        ln_bessel_k(np.array([1.0, math.nan]), 3.0)
