"""Time-domain revival analysis on the quadratic ladder.

All times here are dimensionless, in units of the revival time
t_rev = 2 pi mu / alpha, so the phase of level n is

    phi_n(t) = 2 pi (mu n + n^2) t.

Phases are reduced mod 2 pi in double length arithmetic before they
become phase factors (``_dd.phase_parts``, each part within 7e-16), so at
t = 1 with integer mu the packet revives to |A|^2 = 1 at machine precision.

The autocorrelation A(t) = sum_n w_n exp(-i phi_n(t)) regroups exactly
into q residue channels P_Delta(t) (fractional revival channels), channel
Delta summing the levels n = Delta (mod q).  |A(t)|^2 splits into the
diagonal sum |P_Delta|^2 and the interference part
2 Re sum_Delta P_Delta conj(P_0 + ... + P_{Delta-1}), one prefix sum.

Each float-time value comes from one kernel, ``_channels``, over the state's
window of L = n_max - n_min + 1 levels.  Modulus q has min(q, L) columns:
column c holds the window offsets j = c (mod q), so its channel is
(n_min + c) mod q, and a channel no column holds is exactly 0.  Blocks of
unweighted phase parts (``_dd._phase_terms``) meet a real weight matrix
that places offset j in column j mod q, one BLAS product per part, in
level chunks of at most 2^20 / L levels, each with only the cyclic slice
of min(q, chunk) columns its residues reach.  Each channel is within
gamma_L sum_n |w_n| (gamma_L = L u / (1 - L u), u = 2^-53) of the exact
sum of the same float parts and weights.  The scan moduli q = 1 .. 6
share one weight matrix and every other modulus has its own, so a
modulus's bits do not depend on what else was asked.  The two readers
return arrays: ``channel_amplitudes`` the dense (T, q) form, and
``intensity_split`` the columns in channel order, reduced row by row.

The kernel keeps one cache entry for the last state and grid it
evaluated: the level key (mu, n_min, ln_weights[n_min:] as bytes), the
state's level side, the grid's bytes and its read-only column blocks.
Validation runs before the lookup.  A call asking a modulus the blocks of
its key and grid lack evaluates its moduli plus q = 1 .. 6 in one pass and
replaces the entry.  The level side is the window weights and, for a
window of one level chunk (L <= 1024), the ``quadratic_in_n`` split that
``_dd._phase_terms`` takes and the scan moduli's weight matrix with its
column map, at most 24 L floats.  So the same state on another grid (a
one-time A(tau) after a grid, an evolved or identically rebuilt state)
builds only its phase rows and products, with the same bits; any other
modulus builds its own matrix per call, and a longer window builds each
chunk's split and matrices per evaluation, one chunk at a time.

At an exact fraction t = r/s of the revival time (Averbukh and Perelman,
Phys. Lett. A 139, 449 (1989)) and integer mu, ``rational_channels``
takes no float time: each phase is whole cycles plus k_n / s, with the
residue k_n = n (n + mu) r mod s computed in integers.
"""

from __future__ import annotations

import numbers

import numpy as np

from ._dd import _buffers, _check_cycles, _phase_terms, quadratic_in_n
from .gkstate import CoherentState
from .spectrum import _Record

__all__ = [
    "channel_amplitudes",
    "intensity_split",
    "rational_channels",
    # kept only while benchmarks/large_j.py calls them
    "TimeSeries",
    "FractionalDecomposition",
    "autocorrelation",
    "autocorrelation_series",
    "fractional_decomposition",
]

class TimeSeries(_Record):
    """Samples of one observable on a strictly increasing time grid."""

    _fields = ("t_grid", "values", "label")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, t_grid, values, label: str):
        t = np.asarray(t_grid, dtype=float)
        v = np.asarray(values)
        if t.ndim != 1 or v.ndim != 1 or len(t) != len(v):
            raise ValueError("t_grid and values must be 1-d arrays of equal length")
        _check_increasing(t)
        self.__dict__.update(t_grid=t, values=v, label=label)


def _series(t: np.ndarray, values: np.ndarray, label: str) -> TimeSeries:
    # A TimeSeries on a grid that _series_grid has checked, with 1-d
    # values of its length: the fields are set as __init__ would set
    # them, without checking the grid again.
    ts = object.__new__(TimeSeries)
    ts.__dict__.update(t_grid=t, values=values, label=label)
    return ts


class FractionalDecomposition(_Record):
    """The q complex channels P_Delta(t), Delta = 0 .. q-1, whose sum
    reproduces A(t) exactly at every grid point."""

    _fields = ("q", "fractions")
    fractions = ()
    __eq__, __hash__ = object.__eq__, object.__hash__


def _grid(t_grid) -> np.ndarray:
    try:
        t = np.asarray(t_grid, dtype=float)
    except OverflowError:
        raise ValueError("times must be finite, got an integer past the float range") from None
    if t.ndim != 1:
        raise ValueError("t_grid must be one dimensional")
    bad = ~np.isfinite(t)
    if bad.any():
        raise ValueError(f"times must be finite, got t = {t[bad][0]}")
    return t


def _check_increasing(t: np.ndarray) -> None:
    if not (t[1:] > t[:-1]).all():
        raise ValueError("t_grid must be strictly increasing")


def _series_grid(t_grid) -> np.ndarray:
    # a TimeSeries grid, checked before any kernel work
    t = _grid(t_grid)
    _check_increasing(t)
    return t


# Moduli every evaluation fills besides those asked, so a scan over q <= 6
# costs one pass.
_SCAN_Q = range(1, 7)
# The cache entry (level key, w, chunks, grid bytes, {q: read-only (T,
# min(q, L)) column block}), or None; see the module docstring.  w and
# chunks are None where the window is longer than one level chunk.
_entry = None
# Entries of one chunk's weight matrix per modulus: the window's L levels
# are contracted in chunks of at most _MATRIX_ENTRIES // L of them.
_MATRIX_ENTRIES = 1 << 20


def _channels(state: CoherentState, qs, t_grid) -> dict:
    """{q: read-only (T, min(q, L)) column block} for every q in qs:
    column c holds P_{(n_min + c) mod q}(t_k)."""
    global _entry
    for q in qs:
        _check_residue(q, least=1)
    t = _grid(t_grid)
    mu = state.params.mu
    _check_cycles(state.n_max, mu, abs(t).max(initial=0.0))
    key, grid = (mu, state.n_min, state.ln_weights[state.n_min :].tobytes()), t.tobytes()
    entry = _entry
    if entry is None or entry[0] != key:
        entry = (key, None, None, None, {})
    _, w, chunks, seen, have = entry
    if seen != grid:
        have = {}
    if not have.keys() >= set(qs):
        if chunks is None:
            w, chunks = _level_side(state)
        have = _evaluate(w, chunks, [q for q in sorted(set(qs)) if q not in _SCAN_Q], t)
        kept = isinstance(chunks, list)
        _entry = (key, w if kept else None, chunks if kept else None, grid, have)
    return {q: have[q] for q in qs}


def _level_side(state: CoherentState) -> tuple:
    # (w, chunks): the window weights and one (a, split, matrix, cols) per
    # level chunk from offset a, split its quadratic_in_n pair and (matrix,
    # cols) the scan moduli's _weight_matrix; a list for a window of one
    # chunk, and for a longer one a generator that builds each chunk as the
    # kernel walks it
    lo, mu = state.n_min, state.params.mu
    w = np.exp(state.ln_weights[lo:])
    size = len(w)
    step = min(size, max(1, _MATRIX_ENTRIES // size))
    chunks = (
        (a, quadratic_in_n(np.arange(lo + a, lo + min(a + step, size), dtype=float), mu),
         *_weight_matrix(a, w[a : a + step], _SCAN_Q, size))
        for a in range(0, size, step)
    )
    return w, chunks if step < size else list(chunks)


def _evaluate(w: np.ndarray, chunks, others: list, t: np.ndarray) -> dict:
    # the scan moduli and the moduli others, from the level side (w, chunks)
    size = len(w)
    # one product per group, the scan moduli together and every other
    # modulus alone, so that a modulus's bits do not depend on what else
    # was asked
    groups = [_SCAN_Q, *([q] for q in others)]
    sums = [np.zeros((len(t), sum(min(q, size) for q in g)), dtype=complex) for g in groups]
    _, buf = _buffers()
    for a, split, *scan in chunks:
        c = len(split[0])
        chunk = [scan, *(_weight_matrix(a, w[a : a + c], [q], size) for q in others)]
        for i, re, im in _phase_terms(split, t):
            r = len(re)
            for (m, cols), p in zip(chunk, sums):
                k = r * m.shape[1]
                out = buf[:k].reshape(r, -1) if k <= len(buf) else None
                p.real[i : i + r, cols] += np.matmul(re, m, out=out)
                p.imag[i : i + r, cols] += np.matmul(im, m, out=out)
    out = {}
    for g, p in zip(groups, sums):
        p.flags.writeable = False
        k = 0
        for q in g:
            out[q] = p[:, k : k + min(q, size)]
            k += min(q, size)
    return out


def _weight_matrix(a: int, w, qs, size: int) -> tuple:
    # The weights w of the c window offsets from a in min(q, c) columns
    # per modulus q, offset j in column (j - a) mod q, 0 elsewhere, and
    # the sums' columns these reach, (a + column) mod q in q's min(q, size)
    # columns: a cyclic slice, or all in order for the whole window.
    c = len(w)
    m = np.zeros((c, sum(min(q, c) for q in qs)))
    cols, k = [], 0
    for q in qs:
        m[np.arange(c), len(cols) + np.arange(c) % q] = w
        cols += [k + (a + j) % q for j in range(min(q, c))]
        k += min(q, size)
    return m, slice(None) if c == size else np.array(cols)


def _column(state: CoherentState, q: int, delta: int, t_grid) -> np.ndarray:
    # P_delta(t_k): column (delta - n_min) mod q of the kernel's block, or
    # exactly 0 where no window level falls in channel delta
    p = _channels(state, [q], t_grid)[q]
    c = (delta - state.n_min) % q
    return p[:, c] if c < p.shape[1] else np.zeros(len(p), dtype=complex)


def channel_amplitudes(state: CoherentState, q: int, t_grid) -> np.ndarray:
    """(T, q) complex matrix: column Delta holds P_Delta(t_k).

    q = 1 gives A(t_k) in the single column.  The sums run over the
    state's levels n_min .. n_max, and a channel none of them falls in is
    exactly 0.  Raises ValueError when (mu n_max + n_max^2) max|t| exceeds
    the phase reduction bound of ``_dd`` (1e20).  The grid may be in any
    order, and the result is a new array, expanded from the kernel's
    min(q, n_max - n_min + 1) columns.
    """
    p = _channels(state, [q], t_grid)[q]
    out = np.zeros((len(p), q), dtype=complex)
    out[:, (state.n_min + np.arange(p.shape[1])) % q] = p
    return out


def intensity_split(state: CoherentState, q: int, t_grid) -> tuple:
    """|A(t_k)|^2, the diagonal sum_Delta |P_Delta|^2 and the interference
    2 Re sum_Delta P_Delta conj(P_0 + ... + P_{Delta-1}) of modulus q, three
    float arrays from one kernel pass: the interference is one prefix sum
    over the reached channels in channel order, exactly real, in
    O(min(q, n_max - n_min + 1)) per row, and adds to the diagonal to give
    |A|^2 to rounding."""
    # C-ordered channels, so that the row sums are the dense matrix's
    ch = _channels(state, [1, q], t_grid)
    p = ch[q]
    p = p.take(np.argsort((state.n_min + np.arange(p.shape[1])) % q), axis=1)
    return _intensities(ch[1][:, 0]), _diagonal(p), _interference(p)


def _intensities(amplitudes: np.ndarray) -> np.ndarray:
    # |z|^2 with the bits of Python's abs(z) ** 2: hypot, then libm pow,
    # which np.float_power calls; np.abs can miss hypot by an ulp, and
    # NumPy's ** 2 squares by multiplication, which can miss pow by one.
    return np.float_power(np.hypot(amplitudes.real, amplitudes.imag), 2.0)


def autocorrelation(state: CoherentState, t: float) -> complex:
    """A(t) = sum_n w_n exp(-i phi_n(t)); |A| <= 1, A(0) = 1."""
    return complex(_column(state, 1, 0, [t])[0])


def autocorrelation_series(state: CoherentState, t_grid) -> TimeSeries:
    """|A(t)|^2 sampled on the grid (grid in t_rev units)."""
    t = _series_grid(t_grid)
    vals = _intensities(_column(state, 1, 0, t))
    return _series(t, vals, "|A(t)|^2")


def _check_residue(q: int, least: int = 2):
    if not (isinstance(q, numbers.Integral) and q >= least):
        raise ValueError(f"q must be an integer >= {least}, got {q}")


def fractional_decomposition(state: CoherentState, q: int, t_grid) -> FractionalDecomposition:
    """All q complex channels P_Delta on a common grid."""
    _check_residue(q)
    t = _series_grid(t_grid)
    chans = channel_amplitudes(state, q, t)
    # the fields set as __init__ would set them, as _series does
    fd = object.__new__(FractionalDecomposition)
    fd.__dict__.update(q=q, fractions=[_series(t, chans[:, d], f"P_{d}(t)") for d in range(q)])
    return fd


def _diagonal(p: np.ndarray) -> np.ndarray:
    # sum_Delta |P_Delta|^2 for each row of channels in channel order
    return (np.abs(p) ** 2).sum(axis=1)


def _interference(p: np.ndarray) -> np.ndarray:
    # 2 Re sum_Delta P_Delta conj(P_0 + ... + P_{Delta-1}), row by row
    below = np.cumsum(p[:, :-1], axis=1)
    return 2.0 * np.real(p[:, 1:] * np.conj(below)).sum(axis=1)


def rational_channels(state: CoherentState, q: int, r: int, s: int) -> np.ndarray:
    """P_Delta at the exact time t = r/s for Delta = 0 .. q-1, a new (q,)
    complex array; q = 1 gives A(r/s).

    k_n = n (n + mu) r mod s is exact in int64 once n, mu and r are
    reduced mod s < 2^31, one table holds cos and -sin of 2 pi k/s over
    the distinct k_n, and each channel sums its window levels in level
    order, within gamma_L sum_n w_n of the exact sum of those factors; a
    channel no level reaches is exactly 0.  Raises ValueError for a
    non-integer mu or r, q or s below 1, and s >= 2^31.
    """
    mu = state.params.mu
    if not float(mu).is_integer():
        raise ValueError(f"phase grouping requires a positive integer mu, got {mu}")
    _check_residue(q, least=1)
    if not isinstance(r, numbers.Integral):
        raise ValueError(f"r must be an integer, got {r}")
    if not (isinstance(s, numbers.Integral) and 1 <= s < 1 << 31):
        raise ValueError(f"s must be an integer in [1, 2^31), got {s}")
    n = np.arange(state.n_min, state.n_max + 1, dtype=np.int64)
    m = n % s
    k = m * ((m + int(mu) % s) % s) % s * (int(r) % s) % s
    ks, at = np.unique(k, return_inverse=True)
    angle = (2.0 * np.pi) * (ks / s)
    w = np.exp(state.ln_weights[state.n_min :])
    out = np.empty(q, dtype=complex)
    out.real = np.bincount(n % q, w * np.cos(angle)[at], minlength=q)
    out.imag = np.bincount(n % q, w * -np.sin(angle)[at], minlength=q)
    return out
