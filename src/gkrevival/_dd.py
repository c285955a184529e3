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
of 2 pi j / 1024 (j = 0 .. 1024; mul_frac can return exactly 1.0), and the
remainder angle theta < 2 pi / 1024 enters through its Taylor series, cos
to theta^6 and sin to theta^5.  Each part is within 6.9e-16 of
exp(-2 pi i f) for the exact double f.  At the table nodes the parts are
NumPy's cos(2 pi f) and -sin(2 pi f) bit for bit.  All functions accept
floats or ndarrays (broadcasting like NumPy) and are branch-free, so
they vectorize.

``_phase_terms`` yields the unweighted parts of exp(-2 pi i (mu n + n^2) t)
for the revival kernel, in blocks of grid rows x levels of at most
_BLOCK_LEVEL_POINTS, computed in place in a workspace each thread makes
once and keeps (``_buffers``, which also keeps the kernel's BLAS product
buffer): a block's parts are valid until the next block.  The six level x
time products of ``mul_frac`` in a block are outer products formed by
np.einsum (``_product``): one contiguous loop where np.multiply's
broadcast runs one strided loop per grid row, with the same rounded
products.  The weights enter by contraction, re @ M and im @ M: the
kernel's M is a weight matrix that also groups the levels into channels,
and ``gkstate.overlap`` (evolving only shifts gamma, so A(t) and an
overlap are one series) contracts slices of one row of parts, at its one
time, with the weight vector of each partner.

``_check_cycles`` holds every reduction to
(mu*n_max + n_max**2)*max|t| <= 1e20, where the reduced cycle is off by
about 1e-12 of a cycle, and each of its factors to the split's range,
and raises ValueError past either.

NumPy is imported, and the table built, when the module executes: ``import
gkrevival`` leaves it a lazy module, which executes on first use.
"""

import math
import threading

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1
_TWO_PI = 2.0 * math.pi
_MAX_CYCLES = 1e20
# Grid-point x level terms per block of _phase_terms and per thread's
# workspace (so at most this many levels per block); of 8192 to 65536
# terms, 32768 ran fastest.
_BLOCK_LEVEL_POINTS = 32768
# Table nodes per cycle: a power of two, so f * _CYCLE_STEPS and its split
# into node and remainder are exact.
_CYCLE_STEPS = 1024
_STEP = _TWO_PI / _CYCLE_STEPS
# Horner coefficients, highest power first, of cos(_STEP r) and
# sin(_STEP r) / r in u = r**2, for the remainder r in [0, 1).
_COS = (-_STEP**6 / 720.0, _STEP**4 / 24.0, -_STEP**2 / 2.0, 1.0)
_SIN = (_STEP**5 / 120.0, -_STEP**3 / 6.0, _STEP)
# (cos, -sin) of the nodes j * _STEP, j = 0 .. _CYCLE_STEPS
_NODES = _STEP * np.arange(_CYCLE_STEPS + 1)
_cycle_table = (np.cos(_NODES), -np.sin(_NODES))
_local = threading.local()  # holds this thread's _buffers


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


def _check_cycles(n_top: int, mu: float, t_max: float) -> None:
    """Raise ValueError if (mu*n_top + n_top**2) * t_max, rounded as the hi
    part of ``quadratic_in_n`` rounds it, exceeds the reduction bound, or
    ``_split`` overflows on one of its factors (past about 1.3e300): n_top
    is the top level and t_max the largest |t| of one set of phases.
    """
    # in Python floats, which overflow to inf without a warning
    m = n_top * n_top + float(mu) * n_top
    cycles = m * float(t_max)
    if cycles > _MAX_CYCLES:
        raise ValueError(
            f"phase argument (mu*n_max + n_max**2)*max|t| = {cycles:.3g} is past "
            f"{_MAX_CYCLES:g}, where its reduction mod 1 loses over 1e-12 of a cycle"
        )
    for name, x in (("mu", mu), ("mu*n_max + n_max**2", m), ("max|t|", t_max)):
        if not _SPLITTER * float(x) < math.inf:
            raise ValueError(f"phase factor {name} = {x:.3g} overflows the split x * (2**27 + 1)")


def _product(x, y, out):
    """x * y in out, each product rounded as np.multiply rounds it.  einsum
    adds each product into +0, so an exact zero comes out +0 where
    np.multiply can give -0; ``mul_frac`` turns every zero into f = +0
    either way.  A 0-d operand keeps np.multiply: einsum refuses two 0-d
    operands against a 1-d out."""
    if getattr(x, "ndim", 0) == 0 or getattr(y, "ndim", 0) == 0:
        return np.multiply(x, y, out=out)
    return np.einsum("...,...->...", x, y, out=out)


def mul_frac(m_hi, m_lo, t, out=None):
    """frac((m_hi + m_lo) * t) to a few ulp of a cycle: ``two_prod`` of m_hi
    and t, then the fractional part of p + (e + m_lo t), each step in place
    in ``out``, three float arrays of the broadcast shape (new ones if
    None), of which the first is returned."""
    if out is None:
        out = [np.empty(np.broadcast(m_hi, m_lo, t).shape) for _ in range(3)]
    a, b, c = out
    (a_hi, a_lo), (b_hi, b_lo) = _split(m_hi), _split(t)
    _product(m_hi, t, a)
    _product(a_hi, b_hi, b)
    b -= a
    for x, y in ((a_hi, b_lo), (a_lo, b_hi), (a_lo, b_lo), (m_lo, t)):
        b += _product(x, y, c)
    a -= np.floor(a, out=c)  # exact: the low bits of a are representable
    a += b
    a -= np.floor(a, out=c)
    return a


def phase_parts(m_hi, m_lo, t, out=None):
    """The real and imaginary parts of exp(-2 pi i (m_hi + m_lo) t) as two
    arrays: cos 2 pi f and -sin 2 pi f of the cycle f in [0, 1] that
    ``mul_frac`` returns, by the table and series above, each step in place
    in ``out``, five float arrays and one intp array of at least the
    broadcast size (new ones if None).  The parts are two of those arrays."""
    terms = np.broadcast(m_hi, m_lo, t)
    if out is None:
        out = [np.empty(terms.size) for _ in range(5)] + [np.empty(terms.size, np.intp)]
    a, b, c, d, e, j = (x[: terms.size].reshape(terms.shape) for x in out)
    mul_frac(m_hi, m_lo, t, (a, b, c))
    # the table node j and the remainder r of f * _CYCLE_STEPS
    a *= _CYCLE_STEPS
    a -= np.floor(a, out=b)
    j[...] = b
    np.multiply(a, a, out=b)
    for coeffs, p in ((_COS, c), (_SIN, d)):  # Horner in u = r**2
        np.multiply(b, coeffs[0], out=p)
        for x in coeffs[1:-1]:
            p += x
            p *= b
        p += coeffs[-1]
    d *= a
    cos_j = _cycle_table[0].take(j, out=a, mode="clip")
    nsin_j = _cycle_table[1].take(j, out=b, mode="clip")
    # exp(-i (a_j + theta)) = (cos a_j - i sin a_j)(cos theta - i sin theta)
    np.multiply(cos_j, c, out=e)
    cos_j *= d
    d *= nsin_j
    e += d
    nsin_j *= c
    nsin_j -= cos_j
    return e, nsin_j


def _buffers():
    """This thread's (work, product), made on first use and kept: the
    ``phase_parts`` workspace for blocks of _BLOCK_LEVEL_POINTS terms, and
    twice that many floats for the kernel's BLAS products."""
    if not hasattr(_local, "buffers"):
        n = _BLOCK_LEVEL_POINTS
        work = [*(np.empty(n) for _ in range(5)), np.empty(n, np.intp)]
        _local.buffers = work, np.empty(2 * n)
    return _local.buffers


def _phase_terms(split: tuple, t):
    """Yield (i, re, im) over the 1-D grid t: re[k, j] + i im[k, j] is
    exp(-2 pi i (m_hi[j] + m_lo[j]) t[i + k]), where split = (m_hi, m_lo)
    is ``quadratic_in_n`` of count consecutive levels n (count at most
    _BLOCK_LEVEL_POINTS; the kernel builds it once per level chunk of a
    state), in blocks of _BLOCK_LEVEL_POINTS // count grid rows, in this
    thread's workspace: a block's parts hold until the next."""
    m_hi, m_lo = split
    rows, work = _BLOCK_LEVEL_POINTS // len(m_hi), _buffers()[0]
    for i in range(0, len(t), rows):
        yield (i, *phase_parts(m_hi, m_lo, t[i : i + rows, None], work))
