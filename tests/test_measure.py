"""Measure tests: density positivity and normalization, the k = N^2 rho
identity, moment quadrature against the ladder products, and the
substitution cross-check against SciPy's adaptive quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkrevival import measure
from gkrevival.cli import main
from gkrevival.gkstate import build_state
from gkrevival.measure import (
    MomentReport,
    QuadratureConfig,
    _u_window,
    density_rho,
    measure_k,
    moment_checks,
)
from gkrevival.specfun import ConvergenceError
from gkrevival.spectrum import SpectrumParams, moment_rho

# 30-digit oracle: 4 K_2(2 sqrt 2) by integral-representation quadrature
RHO_AT_1_MU2 = 0.309234570008899125943


def test_config_validation():
    QuadratureConfig()
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1.0)
    for name in ("abs_tol", "rel_tol"):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got an integer past"):
            QuadratureConfig(**{name: 10**400})


@pytest.mark.parametrize("mu", [0.5, 2.0, 28.0, 80.0])
def test_density_positive(mu):
    p = SpectrumParams(mu=mu)
    for J in (1e-6, 0.1, 1.0, 10.0, 500.0):
        assert density_rho(J, p) > 0.0


def test_density_domain():
    p = SpectrumParams(mu=2.0)
    with pytest.raises(ValueError):
        density_rho(0.0, p)
    with pytest.raises(ValueError):
        density_rho(-1.0, p)
    with pytest.raises(ValueError):
        measure_k(0.0, p)


def test_density_far_out_is_convergence_error():
    # at J = 1e100 the K quadrature's node count passes 2^63: a loud
    # ConvergenceError, not a NumPy cast error
    with pytest.raises(ConvergenceError, match="K quadrature"):
        density_rho(1e100, SpectrumParams(mu=1.0))


def test_density_at_origin():
    # rho(0+) = 1; the approach rate is O(z^2) in general but only
    # O(z^(2 mu)) below mu = 1, with z = 2 sqrt(J mu)
    for mu, tol in ((0.5, 1e-5), (2.0, 1e-9), (28.0, 1e-9)):
        assert math.isclose(density_rho(1e-12, SpectrumParams(mu=mu)), 1.0, rel_tol=tol)
    assert math.isclose(density_rho(1e-20, SpectrumParams(mu=0.5)), 1.0, rel_tol=1e-9)


def test_density_oracle_value():
    v = density_rho(1.0, SpectrumParams(mu=2.0))
    assert math.isclose(v, RHO_AT_1_MU2, rel_tol=1e-12)


@pytest.mark.parametrize("J", [0.3, 1.0, 5.0, 10.0, 40.0])
@pytest.mark.parametrize("mu", [2.0, 28.0])
def test_k_identity(J, mu):
    p = SpectrumParams(mu=mu)
    s = build_state(J, 0.0, p)
    lhs = measure_k(J, p)
    rhs = math.exp(s.ln_norm_sq) * density_rho(J, p)
    assert math.isclose(lhs, rhs, rel_tol=1e-10)
    assert lhs > 0.0


def test_k_small_j_limit():
    # I K -> 1/(2 mu) gives k -> 1; at J = 1e-163, mu = 4, I_mu underflows
    # and K_mu overflows, and their product in linear scale was nan
    for mu in (0.5, 4.0, 28.0):
        for J in (1e-163, 1e-300):
            assert math.isclose(measure_k(J, SpectrumParams(mu=mu)), 1.0, rel_tol=1e-12)


def test_k_large_j_asymptote():
    # I K -> 1/(2y) gives k -> sqrt(mu/J)/2; correction is O(mu^2/(J mu))
    p = SpectrumParams(mu=28.0)
    for J, tol in ((1e4, 4e-4), (1e6, 1e-5)):
        assert math.isclose(measure_k(J, p), 0.5 * math.sqrt(28.0 / J), rel_tol=tol)


def test_moment_check_requires_small_n():
    p = SpectrumParams(mu=2.0)
    with pytest.raises(ValueError):
        moment_checks([21], p)
    with pytest.raises(ValueError):
        moment_checks([-1], p)


def test_moment_zero_is_unity():
    rep = moment_checks([0], SpectrumParams(mu=2.0))[0]
    assert isinstance(rep, MomentReport)
    assert rep.rho_n == 1.0
    assert abs(rep.integral - 1.0) < 1e-8


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 28.0])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_resolution_of_unity(mu, n):
    rep = moment_checks([n], SpectrumParams(mu=mu))[0]
    assert rep.rel_err < 1e-6


def test_moment_examples():
    rep = moment_checks([1], SpectrumParams(mu=2.0))[0]
    assert math.isclose(rep.rho_n, 1.5, rel_tol=1e-12)
    assert rep.rel_err < 1e-6
    rep = moment_checks([3], SpectrumParams(mu=28.0))[0]
    assert rep.rel_err < 1e-6


def test_high_moment():
    rep = moment_checks([20], SpectrumParams(mu=28.0))[0]
    assert rep.rel_err < 1e-6


def _moment_integral_in_j(n, p, cfg=QuadratureConfig()):
    # Oracle: SciPy's adaptive quadrature of the same moment directly in J
    # over the window the library uses in u = 2 sqrt(J mu) (slower,
    # root-type endpoint), with the peak as a break point.
    from scipy.integrate import quad

    mu = p.mu
    ln_shift = moment_rho(n, p)
    u_max = _u_window(np.array([float(n)]), mu, np.array([ln_shift]), cfg)
    u_peak = 2.0 * n + mu + 0.5

    def f(J):
        if J <= 0.0:
            return 0.0
        ln_g = n * math.log(J) + math.log(density_rho(J, p)) - ln_shift
        return math.exp(ln_g) if ln_g > -745.0 else 0.0

    j_peak = u_peak * u_peak / (4.0 * mu)
    j_max = u_max * u_max / (4.0 * mu)
    out = quad(f, 0.0, j_max, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=200,
               points=[j_peak], full_output=1)
    assert len(out) == 3, out[3]
    return out[0] * math.exp(ln_shift)


@pytest.mark.parametrize("mu", [2.0, 28.0])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_substitution_consistency(mu, n):
    p = SpectrumParams(mu=mu)
    a = moment_checks([n], p)[0].integral
    b = _moment_integral_in_j(n, p)
    assert math.isclose(a, b, rel_tol=1e-8)


@settings(max_examples=25, deadline=None)
@given(mu=st.floats(min_value=0.5, max_value=80.0), n_max=st.integers(0, 20))
def test_moments_meet_1e12(mu, n_max):
    reps = moment_checks(range(n_max + 1), SpectrumParams(mu=mu))
    assert [r.n for r in reps] == list(range(n_max + 1))
    assert max(r.rel_err for r in reps) <= 1e-12


def test_moment_checks_match_single_rho():
    # the batch shares one window, so its integrals may differ from the
    # single-moment calls in the last digits, but rho_n is the same number
    p = SpectrumParams(mu=28.0)
    batch = moment_checks(range(6), p)
    for n, rep in enumerate(batch):
        single = moment_checks([n], p)[0]
        assert rep.rho_n == single.rho_n
        assert math.isclose(rep.integral, single.integral, rel_tol=1e-12)


def test_rho_overflow_is_value_error():
    # rho_2 = 2 Gamma(3 + mu) / (mu^2 Gamma(1 + mu)) ~ 4e400 at mu = 1e-200
    with pytest.raises(ValueError, match="overflows"):
        moment_checks(range(3), SpectrumParams(mu=1e-200))


def test_level_cap_exits_3(monkeypatch, tmp_path, capsys):
    # with one halving the two levels cannot agree: a loud failure, no rows
    monkeypatch.setattr(measure, "_MAX_LEVELS", 1)
    with pytest.raises(ConvergenceError, match="did not converge"):
        moment_checks([3], SpectrumParams(mu=28.0))
    out = tmp_path / "u.csv"
    assert main(["unity", "--mu", "28", "--n-max", "5", "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "converge" in captured.err
