"""Double-double helpers for phase-accurate argument reduction.

Stationary-state phases of the form 2*pi*(mu*n + n**2)*t reach ~1e7 radians
on the grids used here, so reducing the cycle count modulo 1 in plain
doubles would lose up to ~1e-9 of a cycle.  The error-free transformations
below (Knuth two-sum, Dekker split/product) keep the fractional cycle
accurate to a few ulp without an arbitrary-precision dependency.

``phase_parts`` turns the reduced cycle f into the real and imaginary
parts of exp(-2 pi i f), for both the overlap series and the revival
kernel, without a trigonometric call per term: f * 1024 splits exactly
into a table node j and a remainder, the table holds NumPy's cos and sin
of 2 pi j / 1024 (j = 0 .. 1024; frac can return exactly 1.0), and the
remainder angle theta < 2 pi / 1024 enters through its Taylor series, cos
to theta^6 and sin to theta^5.  Each part is within 6.9e-16 of
exp(-2 pi i f) for the exact double f.  At the table nodes the parts are
NumPy's cos(2 pi f) and -sin(2 pi f) bit for bit.  All functions accept
floats or ndarrays (broadcasting like NumPy) and are branch-free, so
they vectorize.

``_phase_terms`` builds the terms w_n exp(-2 pi i (mu n + n^2) t) for both
the revival kernel and ``gkstate.overlap`` (evolving only shifts gamma, so
A(t) and an overlap are one series), in blocks of at most
_BLOCK_LEVEL_POINTS, the weights multiplying the two parts as real arrays.

``_check_cycles`` holds every reduction to
(mu*n_max + n_max**2)*max|t| <= 1e20, where the reduced cycle is off by
about 1e-12 of a cycle, and raises ValueError past it.
"""

import math

_SPLITTER = 134217729.0  # 2**27 + 1
_TWO_PI = 2.0 * math.pi
_MAX_CYCLES = 1e20
# Grid-point x level terms per block of _phase_terms: bounds the
# temporaries at any level count (at least one grid row per block).
_BLOCK_LEVEL_POINTS = 8192
# Table nodes per cycle: a power of two, so f * _CYCLE_STEPS and its split
# into node and remainder are exact.
_CYCLE_STEPS = 1024
_STEP = _TWO_PI / _CYCLE_STEPS
# Horner coefficients, highest power first, of cos(_STEP r) and
# sin(_STEP r) / r in u = r**2, for the remainder r in [0, 1).
_COS = (-_STEP**6 / 720.0, _STEP**4 / 24.0, -_STEP**2 / 2.0, 1.0)
_SIN = (_STEP**5 / 120.0, -_STEP**3 / 6.0, _STEP)
# (cos, -sin) of j * _STEP for j = 0 .. _CYCLE_STEPS, built on first use
# so that importing this module loads no NumPy.
_cycle_table = None


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


def _check_cycles(n_top: int, mu: float, t_max: float) -> None:
    """Raise ValueError if (mu*n_top + n_top**2) * t_max, rounded as the hi
    part of ``quadratic_in_n`` rounds it, exceeds the reduction bound:
    n_top is the top level and t_max the largest |t| of one set of phases.
    """
    m_top = n_top * n_top + mu * n_top
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


def _horner(u, coeffs):
    # the polynomial in u, in place on one new array
    p = u * coeffs[0]
    for a in coeffs[1:-1]:
        p += a
        p *= u
    p += coeffs[-1]
    return p


def phase_parts(m_hi, m_lo, t):
    """The real and imaginary parts of exp(-2 pi i (m_hi + m_lo) t) as two
    arrays: cos 2 pi f and -sin 2 pi f of the cycle f in [0, 1] that
    ``mul_frac`` returns, by the table and series above."""
    global _cycle_table
    import numpy as np
    if _cycle_table is None:
        a = _STEP * np.arange(_CYCLE_STEPS + 1)
        _cycle_table = (np.cos(a), -np.sin(a))
    # in place where a temporary is not read again: each pass then
    # writes one array, not two
    r = mul_frac(m_hi, m_lo, t) * _CYCLE_STEPS
    j = np.floor(r)
    r -= j
    u = r * r
    c = _horner(u, _COS)
    s = _horner(u, _SIN)
    s *= r
    j = j.astype(np.intp)
    cos_j = _cycle_table[0][j]
    nsin_j = _cycle_table[1][j]
    # exp(-i (a_j + theta)) = (cos a_j - i sin a_j)(cos theta - i sin theta)
    re = cos_j * c
    re += nsin_j * s
    nsin_j *= c
    cos_j *= s
    nsin_j -= cos_j
    return re, nsin_j


def _phase_terms(n_lo: int, ln_w, mu: float, t):
    """Yield (i, terms) over the 1-D grid t: terms[k, j] is
    exp(ln_w[j] - 2 pi i (mu n + n^2) t[i + k]) for level n = n_lo + j,
    each block at most _BLOCK_LEVEL_POINTS terms (at least one grid row)."""
    import numpy as np
    m_hi, m_lo = quadratic_in_n(np.arange(n_lo, n_lo + len(ln_w), dtype=float), mu)
    w = np.exp(ln_w)
    rows = max(1, _BLOCK_LEVEL_POINTS // len(w))
    for i in range(0, len(t), rows):
        re, im = phase_parts(m_hi, m_lo, t[i : i + rows, None])
        terms = np.empty(re.shape, dtype=complex)
        np.multiply(re, w, out=terms.real)
        np.multiply(im, w, out=terms.imag)
        yield i, terms
