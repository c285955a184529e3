"""Time-domain revival analysis on the quadratic ladder.

All times here are dimensionless, in units of the revival time
t_rev = 2 pi mu / alpha, so the phase of level n is

    phi_n(t) = 2 pi (mu n + n^2) t.

Products (mu n + n^2) t reach 1e7 and beyond, so phases are reduced mod
2 pi with double length arithmetic first: the quadratic mu n + n^2 is
formed exactly as a hi/lo pair, and only the fractional cycle f of its
multiple of t becomes a phase factor, cos 2 pi f - i sin 2 pi f from a
table of 1025 cycle nodes and a short series (``_dd.phase_parts``, each
part within 7e-16).  At t = 1 with integer mu every f is 0, so the
packet revives to |A|^2 = 1 at machine precision.

The autocorrelation A(t) = sum_n w_n exp(-i phi_n(t)) regroups exactly
into q residue classes P_Delta(t) (fractional revival channels); |A(t)|^2
splits into the diagonal sum |P_Delta|^2 and the interference part
2 Re sum_Delta P_Delta conj(P_0 + ... + P_{Delta-1}), one prefix sum, O(q).

Every time series and every single-time value here comes from one
kernel, ``_channels``, which returns the (T, q) matrix of P_Delta(t_k)
for each modulus q asked (q = 1 gives A); ``channel_amplitudes`` is its
one-modulus form.  It sums over the state's window of L = n_max - n_min + 1
levels only.  ``_dd._phase_terms`` yields the unweighted parts of
exp(-i phi_n(t_k)) in blocks of grid rows x levels (at most
``_dd._BLOCK_LEVEL_POINTS`` terms, so the temporaries stay at a few
hundred kB whatever the window is), and each block meets a real weight
matrix M in one BLAS product per part, re @ M and im @ M.  M holds the
weights w_n and zeros, and its columns do the regrouping: modulus q has
min(q, L) of them, column Delta taking the levels n = Delta (mod q) when
q <= L, each level a column of its own when q > L, so the channels the
window does not reach stay exactly 0.  The scan moduli q = 1 .. 6 share
one M and every other modulus has its own, so that a modulus's bits do
not depend on what else was asked.  M is built once per evaluation,
chunk by chunk: level chunks of at most ``_MATRIX_ENTRIES`` // L levels,
so that no modulus's part of M holds more than 2^20 entries, whose
products add up (windows of up to 1024 levels are one chunk).  Whatever
order BLAS sums in, each channel is within
gamma_L sum_n |w_n| (gamma_L = L u / (1 - L u), u = 2^-53) of the exact
sum of the same float parts and weights.  ``gkstate.overlap`` contracts
one row of parts with its weights the same way.  A single time is a
1-point grid.

The kernel keeps one memo entry: the matrices of the last (state, grid)
it evaluated, keyed on exactly what the sums read, (mu, n_min,
ln_weights[n_min:] as bytes, grid as bytes).  The key is content, not
object identity, so an array changed in place is never served stale
values and a state rebuilt identically hits.  A call asking a modulus
the entry lacks evaluates its moduli plus q = 1 .. 6 in one pass and
replaces the entry, so a fractional-revival scan over q <= 6 costs one
evaluation per (state, grid).  An entry holds 21 complex values per grid
point (90 kB at 267 points, 0.67 MB at 2001), plus q per point for each
larger modulus of the call that made it.  Validation runs before the
lookup, every result is a copy, and an entry is never changed in place.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from ._dd import _TWO_PI, _check_cycles, _phase_terms, mul_frac, quadratic_in_n
from .gkstate import CoherentState

__all__ = [
    "TimeSeries",
    "FractionalDecomposition",
    "PhaseGroupReport",
    "phase",
    "channel_amplitudes",
    "autocorrelation",
    "autocorrelation_series",
    "survival_fraction",
    "survival_fraction_series",
    "fractional_decomposition",
    "diagonal_term",
    "interference_term",
    "phase_group_check",
]

@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Samples of one observable on a strictly increasing time grid."""

    t_grid: np.ndarray
    values: np.ndarray
    label: str

    def __post_init__(self):
        import numpy as np
        t = np.asarray(self.t_grid, dtype=float)
        v = np.asarray(self.values)
        if t.ndim != 1 or v.ndim != 1 or len(t) != len(v):
            raise ValueError("t_grid and values must be 1-d arrays of equal length")
        _check_increasing(t)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)


def _series(t: np.ndarray, values: np.ndarray, label: str) -> TimeSeries:
    # A TimeSeries on a grid that _series_grid has checked, with 1-d
    # values of its length: the fields are set as __post_init__ would set
    # them, without checking the grid again.
    ts = object.__new__(TimeSeries)
    for name, value in (("t_grid", t), ("values", values), ("label", label)):
        object.__setattr__(ts, name, value)
    return ts


@dataclass(frozen=True, eq=False)
class FractionalDecomposition:
    """The q complex channels P_Delta(t), Delta = 0 .. q-1, whose sum
    reproduces A(t) exactly at every grid point."""

    q: int
    fractions: list = field(default_factory=list)


@dataclass(frozen=True)
class PhaseGroupReport:
    """Result of checking that phi_{kq+Delta}(1/q) mod 2 pi does not
    depend on k and matches the closed-form group phase."""

    q: int
    mu: float
    k_max: int
    group_phases: np.ndarray
    max_deviation: float


def phase(n: int, t: float, mu: float) -> float:
    """Raw (unreduced) phase phi_n(t) = 2 pi (mu n + n^2) t."""
    if not math.isfinite(t):
        raise ValueError(f"times must be finite, got t = {t}")
    return _TWO_PI * (mu * n + n * n) * t


def _grid(t_grid) -> np.ndarray:
    import numpy as np
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1:
        raise ValueError("t_grid must be one dimensional")
    bad = ~np.isfinite(t)
    if bad.any():
        raise ValueError(f"times must be finite, got t = {t[bad][0]}")
    return t


def _check_increasing(t: np.ndarray) -> None:
    import numpy as np
    if len(t) > 1 and not np.all(np.diff(t) > 0.0):
        raise ValueError("t_grid must be strictly increasing")


def _series_grid(t_grid) -> np.ndarray:
    # a TimeSeries grid, checked before any kernel work
    t = _grid(t_grid)
    _check_increasing(t)
    return t


# Moduli every evaluation fills besides those asked: 21 complex values per
# grid point, so a scan over q <= 6 costs one pass (module docstring).
_SCAN_Q = range(1, 7)
# The memo entry (key, {q: (T, q) matrix}), or None.
_memo = None
# Entries of one chunk's weight matrix per modulus: the window's L levels
# are contracted in chunks of at most _MATRIX_ENTRIES // L of them.
_MATRIX_ENTRIES = 1 << 20


def _channels(state: CoherentState, qs, t_grid) -> dict:
    """{q: (T, q) complex matrix of P_Delta(t_k)} for every q in qs."""
    global _memo
    for q in qs:
        _check_residue(q, least=1)
    t = _grid(t_grid)
    mu = state.params.mu
    _check_cycles(state.n_max, mu, abs(t).max(initial=0.0))
    key = (mu, state.n_min, state.ln_weights[state.n_min :].tobytes(), t.tobytes())
    memo = _memo
    have = memo[1] if memo is not None and memo[0] == key else {}
    if not have.keys() >= set(qs):
        have = _evaluate(state, sorted(set(qs).union(_SCAN_Q)), t)
        _memo = (key, have)
    return {q: have[q].copy() for q in qs}


def _evaluate(state: CoherentState, qs, t: np.ndarray) -> dict:
    import numpy as np
    lo = state.n_min
    w = np.exp(state.ln_weights[lo:])
    size = len(w)
    # one product per group, the scan moduli together and every other
    # modulus alone, so that a modulus's bits do not depend on what else
    # was asked
    groups = [[q for q in qs if q in _SCAN_Q], *([q] for q in qs if q not in _SCAN_Q)]
    sums = [np.zeros((len(t), sum(min(q, size) for q in g)), dtype=complex) for g in groups]
    step = min(size, max(1, _MATRIX_ENTRIES // size))
    for a in range(0, size, step):
        n = np.arange(a, min(size, a + step))
        mats = [_weight_matrix(lo, n, w[n], g, size) for g in groups]
        for i, re, im in _phase_terms(lo + a, len(n), state.params.mu, t):
            for m, p in zip(mats, sums):
                p.real[i : i + len(re)] += re @ m
                p.imag[i : i + len(im)] += im @ m
    out = {}
    for g, p in zip(groups, sums):
        k = 0
        for q in g:
            if q <= size:
                out[q] = p[:, k : k + q]
            else:
                out[q] = np.zeros((len(t), q), dtype=complex)
                out[q][:, (lo + np.arange(size)) % q] = p[:, k : k + size]
            k += min(q, size)
    return out


def _weight_matrix(lo: int, n, w, qs, size: int) -> np.ndarray:
    # The weights w of window offsets n (levels lo + n) in one block of
    # min(q, size) columns per modulus q, 0 elsewhere.  For q <= size the
    # columns are the channels, column Delta holding the levels
    # n = Delta (mod q); for q > size each level is a channel of its own,
    # and column j holds offset j.
    import numpy as np
    m = np.zeros((len(n), sum(min(q, size) for q in qs)))
    k = 0
    for q in qs:
        m[np.arange(len(n)), k + ((lo + n) % q if q <= size else n)] = w
        k += min(q, size)
    return m


def channel_amplitudes(state: CoherentState, q: int, t_grid) -> np.ndarray:
    """(T, q) complex matrix: column Delta holds P_Delta(t_k).

    q = 1 gives A(t_k) in the single column.  The sums run over the
    state's levels n_min .. n_max: blocks of ``_dd._BLOCK_LEVEL_POINTS``
    grid-point x level phase parts, each contracted with a weight matrix
    that maps levels to channels (one BLAS product per part), in level
    chunks that keep that matrix within 2^20 entries.  Raises
    ValueError when (mu n_max + n_max^2) max|t| exceeds the phase
    reduction bound of ``_dd`` (1e20).  The grid may be in any order.

    Served from the kernel's one memo entry, keyed on (mu, n_min,
    ln_weights[n_min:], grid) by content: a miss evaluates q plus
    q = 1 .. 6 in one pass, so a scan over q <= 6 on one state and grid
    costs one evaluation.  The result is a copy, safe to modify.
    """
    return _channels(state, [q], t_grid)[q]


def _intensities(amplitudes: np.ndarray) -> np.ndarray:
    # |z|^2 through Python's abs (hypot), which np.abs can miss by an ulp.
    import numpy as np
    return np.array([abs(z) ** 2 for z in amplitudes.tolist()])


def autocorrelation(state: CoherentState, t: float) -> complex:
    """A(t) = sum_n w_n exp(-i phi_n(t)); |A| <= 1, A(0) = 1."""
    return complex(channel_amplitudes(state, 1, [t])[0, 0])


def autocorrelation_series(state: CoherentState, t_grid) -> TimeSeries:
    """|A(t)|^2 sampled on the grid (grid in t_rev units)."""
    t = _series_grid(t_grid)
    vals = _intensities(channel_amplitudes(state, 1, t)[:, 0])
    return _series(t, vals, "|A(t)|^2")


def _check_residue(q: int, delta: int = 0, least: int = 2):
    if not (isinstance(q, numbers.Integral) and q >= least):
        raise ValueError(f"q must be an integer >= {least}, got {q}")
    if not (isinstance(delta, numbers.Integral) and 0 <= delta < q):
        raise ValueError(f"delta must lie in [0, {q}), got {delta}")


def survival_fraction(state: CoherentState, q: int, delta: int, t: float) -> complex:
    """Channel amplitude P_Delta(t) = sum_k w_{kq+Delta} exp(-i phi(t))."""
    _check_residue(q, delta)
    return complex(channel_amplitudes(state, q, [t])[0, delta])


def survival_fraction_series(state: CoherentState, q: int, delta: int, t_grid) -> TimeSeries:
    """|P_Delta(t)|^2 sampled on the grid."""
    _check_residue(q, delta)
    t = _series_grid(t_grid)
    vals = _intensities(channel_amplitudes(state, q, t)[:, delta])
    return _series(t, vals, f"|P_{delta}(t)|^2")


def fractional_decomposition(state: CoherentState, q: int, t_grid) -> FractionalDecomposition:
    """All q complex channels P_Delta on a common grid."""
    _check_residue(q)
    t = _series_grid(t_grid)
    chans = channel_amplitudes(state, q, t)
    fractions = [_series(t, chans[:, d], f"P_{d}(t)") for d in range(q)]
    return FractionalDecomposition(q=q, fractions=fractions)


def _diagonal(p: np.ndarray) -> np.ndarray:
    # sum_Delta |P_Delta|^2 for each row of a (T, q) channel matrix
    import numpy as np
    return (np.abs(p) ** 2).sum(axis=1)


def _interference(p: np.ndarray) -> np.ndarray:
    # 2 Re sum_Delta P_Delta conj(P_0 + ... + P_{Delta-1}), row by row
    import numpy as np
    below = np.cumsum(p[:, :-1], axis=1)
    return 2.0 * np.real(p[:, 1:] * np.conj(below)).sum(axis=1)


def diagonal_term(state: CoherentState, q: int, t: float) -> float:
    """Sum of channel intensities sum_Delta |P_Delta(t)|^2."""
    return float(_diagonal(channel_amplitudes(state, q, [t]))[0])


def interference_term(state: CoherentState, q: int, t: float) -> float:
    """Cross-channel term sum_{Delta != Gamma} P_Delta conj(P_Gamma).

    Computed as 2 Re sum_Delta P_Delta conj(P_0 + ... + P_{Delta-1}), one
    prefix sum over the channels, so the result is exactly real and costs
    O(q); equals |A(t)|^2 - diagonal_term to rounding.
    """
    return float(_interference(channel_amplitudes(state, q, [t]))[0])


def phase_group_check(q: int, mu: float, k_max: int) -> PhaseGroupReport:
    """Verify the residue-class phase collapse at t = 1/q.

    For integer mu the phase of level n = kq + Delta at t = 1/q reduces,
    mod 2 pi, to the k-independent group phase 2 pi ((mu Delta + Delta^2)
    mod q) / q.  Returns the q group phases and the largest circular
    distance between the numerically reduced phases and those targets
    over all k <= k_max.  Non-integer mu breaks the collapse and is
    rejected.
    """
    import numpy as np
    _check_residue(q)
    if not (math.isfinite(mu) and mu > 0.0 and float(mu).is_integer()):
        raise ValueError(f"phase grouping requires a positive integer mu, got {mu}")
    if not (isinstance(k_max, numbers.Integral) and k_max >= 1):
        raise ValueError(f"k_max must be an integer >= 1, got {k_max}")

    mu_i = int(mu)
    targets = np.array(
        [_TWO_PI * ((mu_i * d + d * d) % q) / q for d in range(q)]
    )
    worst = 0.0
    t = 1.0 / q
    for d in range(q):
        n = np.arange(k_max + 1, dtype=float) * q + d
        m_hi, m_lo = quadratic_in_n(n, float(mu_i))
        reduced = _TWO_PI * mul_frac(m_hi, m_lo, t)
        dev = np.abs(reduced - targets[d])
        dev = np.minimum(dev, _TWO_PI - dev)
        worst = max(worst, float(dev.max()))
    return PhaseGroupReport(
        q=q, mu=float(mu_i), k_max=int(k_max), group_phases=targets, max_deviation=worst
    )
