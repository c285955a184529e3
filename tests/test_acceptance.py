"""Acceptance gate: thirteen criteria covering normalization, the action
identity, closed-form/series duality, statistics, revival structure,
phase grouping, the measure moment problem, the special-function kernel,
and temporal stability.  Each test prints one pass/fail line with the
measured figure of merit next to its tolerance."""

import cmath
import math

import numpy as np

from gkrevival.gkstate import (
    build_state,
    evolve,
    mandel_q,
    mean_energy,
    mean_n,
    normalization_sq,
    overlap,
    weights,
)
from gkrevival.measure import moment_checks
from gkrevival.revival import autocorrelation, channel_amplitudes, intensity_split
from gkrevival.specfun import (
    bessel_i_ratio,
    bessel_i_scaled,
    bessel_k_scaled,
    ln_bessel_i,
    wronskian_residual,
)
from gkrevival.spectrum import SpectrumParams, revival_time


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} ({detail})")
    assert ok, f"criterion {num}: {desc} ({detail})"


def _state(J, mu, gamma=0.0):
    return build_state(J, gamma, SpectrumParams(mu=mu), 1e-14)


J_GRID = (0.1, 1.0, 10.0)
MU_GRID = (0.5, 1.0, 28.0, 80.0)


def test_criterion_01_normalization():
    lo, hi = 1.0, 1.0
    for J in J_GRID:
        for mu in MU_GRID:
            total = float(weights(_state(J, mu)).sum())
            lo, hi = min(lo, total), max(hi, total)
    ok = lo >= 1.0 - 1e-10 and hi <= 1.0 + 1e-12
    _report(1, "weight sums stay in [1-1e-10, 1+1e-12]", ok,
            f"min={lo:.15f} max={hi:.15f}")


def test_criterion_02_action_identity():
    worst = 0.0
    for J in J_GRID:
        for mu in MU_GRID:
            dev = abs(mean_energy(_state(J, mu)) - J) / max(1.0, J)
            worst = max(worst, dev)
    _report(2, "mean energy reproduces the action J", worst < 1e-8,
            f"worst={worst:.3e} tol=1e-8")


def test_criterion_03_closed_form_series_duality():
    worst = 0.0
    for J, mu in ((10.0, 28.0), (10.0, 80.0)):
        p = SpectrumParams(mu=mu)
        s = _state(J, mu)
        n = np.arange(s.n_max + 1, dtype=float)
        w = weights(s)
        # N^2: closed form vs cached series sum
        worst = max(worst, abs(math.exp(normalization_sq(J, p) - s.ln_norm_sq) - 1.0))
        # <n>: closed form vs direct sum
        mn_sum = float(w @ n)
        worst = max(worst, abs(mean_n(s) / mn_sum - 1.0))
        # Q: closed form vs moment sums
        m2 = float(w @ (n * n))
        q_sum = (m2 - mn_sum * mn_sum) / mn_sum - 1.0
        worst = max(worst, abs(mandel_q(s) / q_sum - 1.0))
        # equal-angle overlap: series vs single-Bessel form at J' = 4.2
        s2 = _state(4.2, mu)
        v = overlap(s, s2)
        y12 = 2.0 * math.sqrt(mu) * (J * 4.2) ** 0.25
        closed = math.exp(
            ln_bessel_i(mu, y12)
            - 0.5 * (ln_bessel_i(mu, 2.0 * math.sqrt(J * mu))
                     + ln_bessel_i(mu, 2.0 * math.sqrt(4.2 * mu)))
        )
        worst = max(worst, abs(v.real / closed - 1.0), abs(v.imag))
    _report(3, "N^2, <n>, Q, overlap: closed forms match series", worst < 1e-9,
            f"worst={worst:.3e} tol=1e-9")


def test_criterion_04_sub_poissonian():
    worst = -1.0
    for mu in (1.0, 28.0, 80.0):
        worst = max(worst, mandel_q(_state(10.0, mu)))
        for J in np.linspace(0.5, 50.0, 100):
            worst = max(worst, mandel_q(_state(float(J), mu)))
    _report(4, "Mandel Q < 0 at J=10 and across J in (0, 50]", worst < 0.0,
            f"max Q={worst:.3e}")


def test_criterion_05_full_revival():
    worst = 0.0
    for mu in (1.0, 28.0, 80.0):
        s = _state(10.0, mu)
        worst = max(worst, abs(abs(autocorrelation(s, 1.0)) ** 2 - 1.0))
    _report(5, "|A(t_rev)|^2 returns to 1 for integer mu", worst < 1e-8,
            f"worst={worst:.3e} tol=1e-8")


def test_criterion_06_mirror_symmetry():
    s = _state(10.0, 28.0)
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 2001):
        worst = max(worst, abs(abs(autocorrelation(s, float(t)))
                               - abs(autocorrelation(s, float(1.0 - t)))))
    _report(6, "|A(t)| symmetric about t_rev/2", worst < 1e-8,
            f"worst={worst:.3e} tol=1e-8")


def test_criterion_07_fractional_revival_peaks():
    s = _state(10.0, 80.0)
    ts = np.linspace(0.0, 1.0, 2001)
    vals = np.array([abs(autocorrelation(s, float(t))) ** 2 for t in ts])
    interior = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
    peak_idx = np.nonzero(interior)[0] + 1
    ok = True
    details = []
    for target in (0.5, 1.0 / 3.0, 0.25):
        near = peak_idx[np.abs(ts[peak_idx] - target) <= 0.005 + 1e-12]
        if len(near) == 0:
            ok = False
            details.append(f"t={target:.3f}: no local max in window")
            continue
        best = near[np.argmax(vals[near])]
        ann = ((np.abs(ts - target) > 0.01) & (np.abs(ts - target) <= 0.05))
        background = float(np.median(vals[ann]))
        strong = vals[best] > 2.0 * background
        ok = ok and strong
        details.append(
            f"t={target:.3f}: peak {vals[best]:.3f}@{ts[best]:.4f} bg {background:.3f}"
        )
    _report(7, "fractional revivals near t_rev/2, /3, /4 for mu=80", ok,
            "; ".join(details))


def test_criterion_08_regrouping():
    s = _state(10.0, 28.0)
    worst = 0.0
    for q in (2, 3, 4):
        for t in np.linspace(0.0, 1.0, 401):
            a = autocorrelation(s, float(t))
            total = sum(channel_amplitudes(s, q, [float(t)])[0].tolist())
            worst = max(worst, abs(total - a))
    _report(8, "channel sums regroup A(t) exactly", worst < 1e-12,
            f"worst={worst:.3e} tol=1e-12")


def test_criterion_09_survival_intensity():
    s = _state(10.0, 28.0)
    worst = 0.0
    for q in (2, 3, 4):
        for t in np.linspace(0.0, 1.0, 401):
            a2 = abs(autocorrelation(s, float(t))) ** 2
            _, diag, cross = intensity_split(s, q, [float(t)])
            split = float(diag[0]) + float(cross[0])
            worst = max(worst, abs(a2 - split))
    _report(9, "|A|^2 equals diagonal + interference", worst < 1e-12,
            f"worst={worst:.3e} tol=1e-12")


def test_criterion_10_phase_grouping():
    from gkrevival._dd import mul_frac, quadratic_in_n

    worst_spread = 0.0
    worst_dev = 0.0
    q = 4
    for mu in (28.0, 80.0):
        for d in range(q):
            n = np.arange(51, dtype=float) * q + d
            m_hi, m_lo = quadratic_in_n(n, mu)
            ph = 2.0 * math.pi * mul_frac(m_hi, m_lo, 1.0 / q)
            spread = float(ph.max() - ph.min())
            spread = min(spread, 2.0 * math.pi - spread)
            worst_spread = max(worst_spread, spread)
            target = 2.0 * math.pi * ((int(mu) * d + d * d) % q) / q
            dev = np.abs(ph - target)
            dev = np.minimum(dev, 2.0 * math.pi - dev)
            worst_dev = max(worst_dev, float(dev.max()))
    ok = worst_spread < 1e-9 and worst_dev < 1e-9
    _report(10, "phases at t_rev/4 collapse to the group values", ok,
            f"spread={worst_spread:.3e} dev={worst_dev:.3e} tol=1e-9")


def test_criterion_11_resolution_of_unity():
    worst = 0.0
    for mu in (0.5, 1.0, 2.0, 28.0):
        for n in range(6):
            worst = max(worst, moment_checks([n], SpectrumParams(mu=mu))[0].rel_err)
    _report(11, "measure moments reproduce the ladder products", worst < 1e-6,
            f"worst rel={worst:.3e} tol=1e-6")


def test_criterion_12_kernel():
    worst_closed = 0.0
    for x in np.linspace(0.04, 30.0, 50):
        x = float(x)
        i_closed = math.exp(-x) * math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        k_closed = math.sqrt(math.pi / (2.0 * x))
        worst_closed = max(
            worst_closed,
            abs(bessel_i_scaled(0.5, x) / i_closed - 1.0),
            abs(bessel_k_scaled(0.5, x) / k_closed - 1.0),
        )
    rng = np.random.default_rng(42)
    worst_wron = max(
        wronskian_residual(float(nu), float(x))
        for nu, x in zip(rng.uniform(0.0, 100.0, 200), rng.uniform(1e-3, 200.0, 200))
    )
    ok = worst_closed < 1e-12 and worst_wron < 1e-10
    _report(12, "kernel: half-integer closed forms and Wronskian", ok,
            f"closed={worst_closed:.3e} wronskian={worst_wron:.3e}")


def test_criterion_13_temporal_stability():
    rng = np.random.default_rng(7)
    worst = 0.0
    for mu in (1.0, 28.0):
        p = SpectrumParams(mu=mu, alpha=1.0)
        s = build_state(10.0, 0.0, p, 1e-14)
        t_rev = revival_time(p)
        for t in rng.uniform(0.0, t_rev, 20):
            t = float(t)
            ov = overlap(s, evolve(s, t))
            ac = autocorrelation(s, t * p.alpha / t_rev)
            worst = max(worst, abs(ov - ac))
    _report(13, "evolved-state overlap equals A(t)", worst < 1e-12,
            f"worst={worst:.3e} tol=1e-12")
