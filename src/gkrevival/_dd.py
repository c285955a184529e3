"""Double-double helpers for phase-accurate argument reduction.

Stationary-state phases of the form 2*pi*(mu*n + n**2)*t reach ~1e7 radians
on the grids used here, so reducing the cycle count modulo 1 in plain
doubles would lose up to ~1e-9 of a cycle.  The error-free transformations
below (Knuth two-sum, Dekker split/product) keep the fractional cycle
accurate to a few ulp without an arbitrary-precision dependency.

``phase_factors`` turns the reduced cycle into exp(-2 pi i frac) for
both the overlap series and the revival kernel.  All functions accept
floats or ndarrays (broadcasting like NumPy) and are branch-free, so they
vectorize.  Fractional-part extraction assumes |hi| < 2**52, which holds
for every phase argument formed in this package (n below ~1e5, t below
~1e3 revival periods).
"""

import math

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1
_TWO_PI = 2.0 * math.pi


def two_sum(a, b):
    """a + b as (sum, exact roundoff)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    """a * b as (product, exact roundoff)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def quadratic_in_n(n, mu):
    """mu*n + n**2 as a double-double pair.

    Exact whenever n < 2**26 (n*n representable) and mu*n fits a double,
    which covers every quantum number this package touches.
    """
    p, e = two_prod(np.asarray(mu, dtype=float), np.asarray(n, dtype=float))
    hi, lo = two_sum(n * n, p)
    return hi, lo + e


def frac(hi, lo):
    """Fractional part of hi + lo.  Requires |hi| < 2**52."""
    f = hi - np.floor(hi)  # exact: the low bits of hi are representable
    f = f + lo
    return f - np.floor(f)


def mul_frac(m_hi, m_lo, t):
    """frac((m_hi + m_lo) * t) to a few ulp of a cycle."""
    p, e = two_prod(m_hi, t)
    return frac(p, e + m_lo * t)


def phase_factors(m_hi, m_lo, t):
    """exp(-2 pi i (m_hi + m_lo) t), reduced mod 1 before the 2 pi multiply."""
    return np.exp(-1j * (_TWO_PI * mul_frac(m_hi, m_lo, t)))
