r"""Real-order modified Bessel kernel: log-gamma, scaled :math:`I_\nu`,
scaled :math:`K_\nu`, and stable consecutive-order ratios.

Every observable built on the quadratic oscillator ladder reduces to
modified Bessel functions of real (generally non-integer) order.  The
three primitives here are deliberately self-contained so the whole
parameter range actually needed (order up to ~300, argument
``x = 2 sqrt(J mu)`` into the millions) is covered by algorithms that are
easy to audit.  The series and the continued fraction run on a term
budget derived from the argument (``_term_budget``), so no caller sets
an accuracy knob:

* ``ln_bessel_i`` (and ``bessel_i_scaled`` through it) sums the ascending
  series (DLMF 10.25.2) in the log domain from its largest term outward,
  in blocks from ``_peak_block``, the builder ``gkstate`` walks its
  weights (the same series' terms) with, a sweep's states as one block.
  All terms are positive, so there is no cancellation; the terms peak
  near k = x/2 but carry weight over only about 8.5 sqrt(x) of them, and
  on each side of the peak a geometric bound controls the tail, so the
  cost grows like sqrt(x), not x.
* ``bessel_k_scaled`` integrates the representation (DLMF 10.32.9)

  .. math::
      K_\nu(x) = \int_0^\infty e^{-x\cosh t}\cosh(\nu t)\,dt

  with the trapezoidal rule.  The integrand is even, entire, and decays
  double-exponentially in ``t`` -- the textbook setting in which the
  trapezoidal rule converges geometrically in ``1/h`` -- so the step is
  simply halved until two sweeps agree.  ``ln_bessel_k`` takes arrays
  and sweeps all their elements together; a scalar is a one-element
  array.
* ``bessel_i_ratio`` evaluates :math:`I_{\nu+1}(x)/I_\nu(x)` with the
  Gauss continued fraction (modified Lentz), never by dividing two
  separately computed, possibly huge, values.

Scaled values :math:`e^{-x}I_\nu(x)` and :math:`e^{x}K_\nu(x)` are the
public currency; ``ln_bessel_i``/``ln_bessel_k`` expose unscaled
logarithms for quantities (normalizations, weight tails) that overflow
any linear representation.
"""

from __future__ import annotations

import math

__all__ = [
    "ConvergenceError",
    "ln_gamma",
    "ln_bessel_i",
    "ln_bessel_k",
    "bessel_i_scaled",
    "bessel_k_scaled",
    "bessel_i_ratio",
    "wronskian_residual",
]

# relative tolerance of every returned value
_REL_TOL = 1e-12
# trapezoid nodes evaluated at once by the array K path (bounds its
# memory; at least 128, NumPy's pairwise block, so that _long_sum splits a
# sum only where NumPy does), and the most one element's sweep may take before it counts as
# not converging: rounding in L(t) - L(t_peak) grows like nu*t_peak, and
# past about 1e5 two sweeps agree to _REL_TOL only after millions of nodes
_BLOCK_NODES = 1 << 16
_MAX_NODES = 1 << 24
# levels per side in one _peak_block of ln_bessel_i's walk (bounds its
# memory however wide its window grows), and the largest argument the
# series serves: past it the peak index x/2 nears 2^53, where float
# levels stop being exact, and the window's 8.5e8 terms take seconds
_WALK_BLOCK = 1 << 16
_SERIES_X_MAX = 1e16


class ConvergenceError(RuntimeError):
    """A series, continued fraction, or quadrature refinement failed to
    reach the requested tolerance within its term budget."""


def _term_budget(x: float) -> int:
    """Series terms / continued-fraction steps allowed at argument x.

    The I series walk takes a first block of about 8.6 sqrt(x) terms, and
    one twice as wide per side whose tail test it leaves open (near x = 2e8,
    where -ln(1 - r) adds about 6.5): about 26 sqrt(x) in all.  The ratio
    continued fraction needs at most 5.8 sqrt(x) steps.  Reaching the budget
    (never below 5000) means the input is outside what the algorithms serve.
    """
    return 5000 + int(30.0 * math.sqrt(x))


_PAST_FLOAT_RANGE = "order and argument must be finite, got an integer past the float range"


def _check_domain(nu: float, x: float, x_positive: bool = False) -> None:
    # A NaN or infinite input would otherwise run a loop to its budget or
    # come back as a meaningless number.
    try:
        finite = math.isfinite(nu) and math.isfinite(x)
    except OverflowError:
        raise ValueError(_PAST_FLOAT_RANGE) from None
    if not finite:
        raise ValueError(f"order and argument must be finite, got nu={nu}, x={x}")
    if nu < 0.0:
        raise ValueError(f"order must be >= 0, got {nu}")
    if x_positive and x <= 0.0:
        raise ValueError(f"argument must be > 0, got {x}")
    if x < 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0.

    Thin wrapper over the platform ``lgamma`` (correct to ~1 ulp, well
    inside the 1e-12 tolerance) with the domain restricted to positive
    arguments: orders and quantum numbers never make it negative here.
    Raises ValueError where the result overflows (x above about 2.5e305).
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"ln_gamma requires finite x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise ValueError(f"ln_gamma({x}) overflows") from None


def _first_half_width(peak: int, nu: float, ln_stop: float) -> int:
    # first levels per side of the peak k* of terms with t_{k-1} / t_k ~ k (nu + k):
    # 1.1 times the Gaussian half-width where they fall to e^ln_stop of t_k*, plus 16
    var = peak * (nu + peak) / (2.0 * peak + nu) if peak else 0.0
    if var == math.inf:  # peak (nu + peak) overflows, near nu = 1e305
        var = peak * ((nu + peak) / (2.0 * peak + nu))
    return 16 + int(1.1 * math.sqrt(-2.0 * ln_stop * var))


def _peak_level(q: float, nu: float) -> int:
    # p = max{k : k (k + nu) <= q}: the terms of a series with ratio
    # t_{k-1} / t_k = k (k + nu) / q rise up to t_p and fall after it
    # q / (D / 2), not 2 q / D: the same quotient, without 2 q overflowing
    p = int(q / (0.5 * (nu + math.hypot(nu, 2.0 * math.sqrt(q))))) if q >= 1.0 + nu else 0
    while p * (p + nu) > q:
        p -= 1
    while (p + 1) * (p + 1 + nu) <= q:
        p += 1
    return p


def _peak_block(q, nu, p, below, above, seed=0.0):
    """(ln, d) of one block of a peak walk over levels p - below .. p + above,
    for a series with term ratio t_{k-1} / t_k = d_k / q, d_k = k (k + nu).

    ln holds seed + ln(t_k / t_p), ascending; d holds d_k on
    p - below .. p + above + 2 for the callers' tail tests.  q and p are
    floats for one block, or (rows, 1) columns for one block per row.
    Each side is one cumulative sum of ln(d_k / q) outward from p whose
    first step carries the seed, so a block seeded with the end of the
    last continues its sum: every level has the bits of one cumsum from
    the peak, however the walk is split.  Callers hold ``np.errstate``
    with divide, over and invalid ignored (ln(d_k / q) is inf where q
    underflows, and d_k where it overflows).
    """
    import numpy as np
    k = np.arange(-below, above + 3, dtype=float) + p
    d = k * (k + nu)
    ln_r = np.log(d / q)
    ln = np.empty_like(ln_r[..., 2:])
    # down: seed + ln r_p, then + ln r_{p-1}, ...; up: seed - ln r_{p+1}, - ln r_{p+2}, ...
    if seed:
        ln_r[..., below] += seed
    np.add.accumulate(ln_r[..., below:0:-1], axis=-1, out=ln[..., :below][..., ::-1])
    ln_r[..., below] = seed
    np.subtract.accumulate(ln_r[..., below:-2], axis=-1, out=ln[..., below:])
    return ln, d


def ln_bessel_i(nu: float, x: float) -> float:
    r"""ln :math:`I_\nu(x)` for ``nu >= 0``, ``x >= 0``.

    Ascending series, DLMF 10.25.2:

    .. math::
        I_\nu(x) = (x/2)^\nu \sum_{k\ge 0}
                   \frac{(x^2/4)^k}{k!\,\Gamma(\nu+k+1)}

    summed in the log domain (every term positive) from its largest term
    outward in blocks from ``_peak_block`` (q = x^2/4): one ``lgamma``
    pair gives the peak term, and each side stops once its geometric tail
    bound is below ``_REL_TOL`` e^-3 of it (``_term_budget`` gives the
    walk's length).
    Returns ``-inf`` at ``x = 0`` for ``nu > 0``; raises ConvergenceError
    where the walk would pass ``_term_budget`` terms, and past x = 1e16.
    """
    _check_domain(nu, x)
    if x == 0.0:
        return 0.0 if nu == 0.0 else -math.inf
    if x > _SERIES_X_MAX:
        raise ConvergenceError(f"I series serves x <= {_SERIES_X_MAX:g}, got x={x}")
    import numpy as np

    ln_half = math.log(0.5 * x)
    q = 0.25 * x * x
    peak = _peak_level(q, nu)
    ln_peak = (nu + 2.0 * peak) * ln_half - ln_gamma(peak + 1.0) - ln_gamma(nu + peak + 1.0)
    ln_stop = math.log(_REL_TOL) - 3.0
    first = min(_first_half_width(peak, nu, ln_stop), _WALK_BLOCK, _term_budget(x) // 2)
    below = min(peak, first)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ln, d = _peak_block(q, nu, peak, below, first)
        total, count = float(np.exp(ln).sum()), len(ln)  # sum of t_k / t_peak
        # per side: its end level, its block's width, ln(t_end / t_peak), and
        # the d of the ratio t_next / t_end = q / d (up) or d / q (down)
        for side, end, n, ln_end, d_end in ((1, peak + first, first, ln[-1], d[-2]),
                                            (-1, peak - below, below, ln[0], d[0])):
            # the next term beyond the side's end is t_end r, and once r < 1
            # the rest of the side is below t_end r / (1 - r), since the ratio
            # falls further outward; the walk down ends at level 0 (d = 0)
            while side > 0 or d_end > 0:
                ln_r = side * (2.0 * ln_half - math.log(d_end))
                r = math.exp(ln_r)
                if r < 1.0 and ln_end + ln_r - math.log1p(-r) < ln_stop:
                    break
                if count > _term_budget(x):
                    raise ConvergenceError(f"I series for nu={nu}, x={x} did not converge in "
                                           f"{_term_budget(x)} terms")
                # the side's next block, twice its last and none below level 0,
                # seeded with its end (the end level itself is dropped)
                up, n = side > 0, min(2 * n, _WALK_BLOCK, end if side < 0 else _WALK_BLOCK)
                ln, d = _peak_block(q, nu, end, 0 if up else n, n if up else 0, ln_end)
                ln, ln_end, d_end = (ln[1:], ln[-1], d[-2]) if up else (ln[:-1], ln[0], d[0])
                end += side * n
                total, count = total + float(np.exp(ln).sum()), count + len(ln)
    return ln_peak + math.log(total)


def bessel_i_scaled(nu: float, x: float) -> float:
    r"""Exponentially scaled :math:`e^{-x} I_\nu(x)`.

    The scaling keeps the result representable past ``x ~ 700``, where
    :math:`I_\nu` itself overflows; use ``ln_bessel_i`` when even the
    scaled value would underflow (order far above the argument).
    """
    return math.exp(ln_bessel_i(nu, x) - x)


def _ln_cosh(a: np.ndarray) -> np.ndarray:
    import numpy as np
    a = np.abs(a)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _ln_k_integrand(t: np.ndarray, x: np.ndarray, nu: np.ndarray) -> np.ndarray:
    # L(t) = -x (cosh t - 1) + ln cosh(nu t), element by element;
    # cosh t - 1 = 2 sinh^2(t/2), exact near 0
    import numpy as np
    shifted = -x * 2.0 * np.sinh(0.5 * t) ** 2
    return np.where(nu > 0.0, shifted + _ln_cosh(nu * t), shifted)


def ln_bessel_k(nu, x):
    r"""ln :math:`K_\nu(x)` for ``nu >= 0``, ``x > 0``; ``nu`` and ``x``
    may be arrays (broadcast together), and a scalar pair gives a float.

    Trapezoidal refinement of DLMF 10.32.9.  Working with the shifted
    log-integrand ``L(t) = -x(cosh t - 1) + ln cosh(nu t)`` and factoring
    out its maximum keeps the node values in range even where
    :math:`e^{x}K_\nu(x)` itself would overflow (large order, small
    argument).

    Every element keeps its own step and domain and is summed on its own,
    so an element of an array call equals the scalar call bit for bit;
    what the elements share is one pass per refinement sweep: the nodes
    of all unconverged elements are evaluated together, and an element
    leaves the sweep once two of its sweeps agree.
    """
    import numpy as np
    try:
        nu_a, x_a = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(x, dtype=float))
    except OverflowError:
        raise ValueError(_PAST_FLOAT_RANGE) from None
    shape = nu_a.shape
    nu_a, x_a = nu_a.ravel(), x_a.ravel()
    ok = np.isfinite(nu_a) & np.isfinite(x_a) & (nu_a >= 0.0) & (x_a > 0.0)
    if not ok.all():
        i = int(np.argmin(ok))
        _check_domain(float(nu_a[i]), float(x_a[i]), x_positive=True)
    out = _ln_k_trapezoid(nu_a, x_a).reshape(shape)
    return float(out) if out.ndim == 0 else out


def _long_sum(x, nu, ln_peak, h, lo: int, n: int) -> float:
    # One element's node values lo..lo+n-1, summed as ndarray.sum() sums
    # them (NumPy's pairwise summation halves a run at n//2 rounded down
    # to a multiple of 8), but built _BLOCK_NODES at a time.
    import numpy as np
    if n > _BLOCK_NODES:
        half = n // 2
        half -= half % 8
        return (_long_sum(x, nu, ln_peak, h, lo, half)
                + _long_sum(x, nu, ln_peak, h, lo + half, n - half))
    vals = np.exp(_ln_k_integrand(np.arange(lo, lo + n) * h, x, nu) - ln_peak)
    if lo == 0:
        vals[0] *= 0.5
    return vals.sum()


def _node_sums(x, nu, ln_peak, h, counts) -> np.ndarray:
    # Per element, the trapezoid sum of exp(L - ln_peak) over its nodes
    # i*h, i < counts, the first node halved.  Elements are laid end to
    # end in blocks of about _BLOCK_NODES nodes, and each is summed on its
    # own, with the pairwise sum a one-element call makes; an element
    # longer than a block is summed by _long_sum.
    import numpy as np
    ends = np.cumsum(counts)
    sums = np.empty(x.size)
    first = 0
    while first < x.size:
        if counts[first] > _BLOCK_NODES:
            sums[first] = _long_sum(x[first], nu[first], ln_peak[first], h[first],
                                    0, int(counts[first]))
            first += 1
            continue
        stop = ends[first] - counts[first] + _BLOCK_NODES
        last = int(np.searchsorted(ends, stop, side="right"))
        c = counts[first:last]
        starts = np.cumsum(c) - c
        seg = np.repeat(np.arange(first, last), c)
        t = (np.arange(seg.size) - starts[seg - first]) * h[seg]
        vals = np.exp(_ln_k_integrand(t, x[seg], nu[seg]) - ln_peak[seg])
        vals[starts] *= 0.5
        sums[first:last] = [vals[i:i + n].sum() for i, n in zip(starts.tolist(), c.tolist())]
        first = last
    return sums


def _ln_k_trapezoid(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Scalar steps (asinh, the power, log) run in Python per element, so
    # each element does the IEEE operations of a one-element call.
    import numpy as np
    nu_l, x_l = nu.tolist(), x.tolist()
    h = np.array([min(0.5, 1.5 / (b * b + a * a) ** 0.25) for a, b in zip(nu_l, x_l)])
    if not h.all():  # nu^2 + x^2 overflows to inf, so the step is 0
        i = int(np.argmin(h))
        raise ConvergenceError(f"K quadrature for nu={nu_l[i]}, x={x_l[i]} has no node step")
    t_peak = np.array([math.asinh(a / b) if a > 0.0 else 0.0 for a, b in zip(nu_l, x_l)])
    ln_peak = _ln_k_integrand(t_peak, x, nu)

    # extend each domain until its integrand is ~e^-50 below its peak
    t_hi = t_peak + 1.0
    rising = np.arange(x.size)
    while rising.size:
        more = _ln_k_integrand(t_hi[rising], x[rising], nu[rising]) > ln_peak[rising] - 50.0
        rising = rising[more]
        t_hi[rising] += 1.0

    out = np.empty(x.size)
    idx = np.arange(x.size)  # elements still refining; the arrays below follow it
    previous = np.full(x.size, np.nan)  # the first sweep never converges
    # h starts at <= 0.5 and halves per sweep, and t_hi >= 1, so by the
    # 24th sweep every element left exceeds the node cap below
    while True:
        # len(np.arange(0, t_hi + h, h)), the node count of a one-element call
        counts = np.ceil((t_hi + h) / h)
        if counts.max(initial=0) > _MAX_NODES:  # compared before the cast can wrap
            i = int(np.argmax(counts))
            raise ConvergenceError(
                f"K quadrature for nu={float(nu[i])}, x={float(x[i])} did not converge "
                f"within {_MAX_NODES} nodes"
            )
        total = h * _node_sums(x, nu, ln_peak, h, counts.astype(np.intp))
        done = np.abs(total - previous) <= _REL_TOL * np.abs(total)
        # K_nu(x) = e^{-x} * exp(ln_peak) * total
        ln_total = np.array([math.log(v) for v in total[done].tolist()])
        out[idx[done]] = ln_peak[done] + ln_total - x[done]
        keep = ~done
        idx, x, nu, ln_peak, t_hi, previous, h = (
            a[keep] for a in (idx, x, nu, ln_peak, t_hi, total, 0.5 * h))
        if not idx.size:
            return out


def bessel_k_scaled(nu: float, x: float) -> float:
    r"""Exponentially scaled :math:`e^{x} K_\nu(x)` for ``x > 0``.

    Overflows (returns ``inf``) only in the extreme corner of large order
    with tiny argument; ``ln_bessel_k`` is the safe form there.
    """
    ln_scaled = ln_bessel_k(nu, x) + x
    if ln_scaled > 709.7:
        return math.inf
    return math.exp(ln_scaled)


# The modified-Lentz start below (tiny = 1e-300) overflows to inf once
# 2(nu+1)/x falls under about 5.6e-9, past x = 3.6e8 (nu+1); the ratio is
# served up to x = 1e8 (nu+1), at most about 5e5 steps for nu <= 80.
_RATIO_X_PER_ORDER = 1e8
# Below x^2 / (4 (nu+1)(nu+2)) = 1e-17 the ratio is x / (2(nu+1)) to
# below one rounding (its next term has that relative size), while the
# Lentz seed is no longer negligible once the ratio nears 1e-300.
_RATIO_SERIES_X2 = 4e-17
# a Lentz step converges once its factor is within this of 1
_RATIO_STEP_TOL = 0.01 * _REL_TOL
# Lentz steps allowed, whatever the term budget: about a second of them.
# The served nu <= 80 need at most about 5.2e5; past about nu = 1e16 the
# steps stop changing, as nu + k rounds to nu, and never converge.
_RATIO_MAX_STEPS = 1 << 22


def bessel_i_ratio(nu: float, x: float) -> float:
    r"""The consecutive-order ratio :math:`I_{\nu+1}(x)/I_\nu(x)`.

    Gauss continued fraction derived from the three-term recurrence,

    .. math::
        \frac{I_{\nu+1}(x)}{I_\nu(x)} =
        \cfrac{1}{2(\nu+1)/x + \cfrac{1}{2(\nu+2)/x + \dotsb}}

    evaluated with the modified Lentz algorithm.  The ratio lies in
    ``(0, 1)`` for every ``x > 0`` and tends to ``x / (2(nu+1))`` as
    ``x -> 0``; that limit is returned wherever the next term,
    ``x^2 / (4(nu+1)(nu+2))``, is below 1e-17.  Raises ConvergenceError
    past ``x = 1e8 (nu + 1)``, where the first Lentz step would overflow,
    and where the fraction has not converged in ``_RATIO_MAX_STEPS`` steps.
    """
    _check_domain(nu, x)
    # ratios, not a product, so a huge order cannot overflow the test
    if (x / (nu + 1.0)) * (x / (nu + 2.0)) < _RATIO_SERIES_X2:
        return 0.5 * x / (nu + 1.0)
    if x > _RATIO_X_PER_ORDER * (nu + 1.0):
        raise ConvergenceError(
            f"ratio continued fraction for nu={nu} serves x <= "
            f"{_RATIO_X_PER_ORDER * (nu + 1.0):.3g}, got x={x}"
        )

    # every b = 2(nu+k)/x is at least 2e-8 under the guard above, so c
    # and d stay positive and no Lentz step divides by zero
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    steps = min(_term_budget(x), _RATIO_MAX_STEPS)
    for k in range(1, steps + 1):
        b = 2.0 * (nu + k) / x
        d = b + d
        c = b + 1.0 / c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _RATIO_STEP_TOL:
            return f
    raise ConvergenceError(
        f"ratio continued fraction for nu={nu}, x={x} did not converge in {steps} steps"
    )


def wronskian_residual(nu: float, x: float) -> float:
    r"""Residual of the Wronskian identity
    :math:`x\,[I_\nu K_{\nu+1} + I_{\nu+1} K_\nu] = 1` (DLMF 10.28.2).

    Both cross products are assembled in the log domain, where the grossly
    imbalanced magnitudes of I and K at high order cancel before a single
    exp; a cheap independent consistency check on the I and K paths.
    """
    _check_domain(nu, x, x_positive=True)
    ln_x = math.log(x)
    t0 = math.exp(ln_x + ln_bessel_i(nu, x) + ln_bessel_k(nu + 1.0, x))
    t1 = math.exp(ln_x + ln_bessel_i(nu + 1.0, x) + ln_bessel_k(nu, x))
    return abs(t0 + t1 - 1.0)
