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

* ``bessel_i_scaled`` sums the ascending series (DLMF 10.25.2) in the log
  domain.  All terms are positive, so there is no cancellation, and once
  the term ratio drops below one a geometric bound controls the tail.
* ``bessel_k_scaled`` integrates the representation (DLMF 10.32.9)

  .. math::
      K_\nu(x) = \int_0^\infty e^{-x\cosh t}\cosh(\nu t)\,dt

  with the trapezoidal rule.  The integrand is even, entire, and decays
  double-exponentially in ``t`` -- the textbook setting in which the
  trapezoidal rule converges geometrically in ``1/h`` -- so the step is
  simply halved until two sweeps agree.
* ``bessel_i_ratio`` evaluates :math:`I_{\nu+1}(x)/I_\nu(x)` with the
  Gauss continued fraction (modified Lentz), never by dividing two
  separately computed, possibly huge, values.

Scaled values :math:`e^{-x}I_\nu(x)` and :math:`e^{x}K_\nu(x)` are the
public currency; ``ln_bessel_i``/``ln_bessel_k`` expose unscaled
logarithms for quantities (normalizations, weight tails) that overflow
any linear representation.
"""

import math

import numpy as np

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


class ConvergenceError(RuntimeError):
    """A series, continued fraction, or quadrature refinement failed to
    reach the requested tolerance within its term budget."""


def _term_budget(x: float) -> int:
    """Series terms / continued-fraction steps allowed at argument x.

    The ascending I series peaks near k = x/2 and closes about 4.1 sqrt(x)
    terms later; the ratio continued fraction needs about 5.8 sqrt(x)
    steps.  The budget covers both with room to spare and is never below
    5000, so reaching it means the input is outside what the algorithms
    can serve, not that the cap was too tight.
    """
    return 5000 + int(0.5 * x + 12.0 * math.sqrt(x))


def _check_domain(nu: float, x: float, x_positive: bool = False) -> None:
    # A NaN or infinite input would otherwise run a loop to its budget or
    # come back as a meaningless number.
    if not (math.isfinite(nu) and math.isfinite(x)):
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


def ln_bessel_i(nu: float, x: float) -> float:
    r"""ln :math:`I_\nu(x)` for ``nu >= 0``, ``x >= 0``.

    Ascending series, DLMF 10.25.2:

    .. math::
        I_\nu(x) = (x/2)^\nu \sum_{k\ge 0}
                   \frac{(x^2/4)^k}{k!\,\Gamma(\nu+k+1)}

    summed in the log domain (every term positive).  Returns ``-inf`` at
    ``x = 0`` for ``nu > 0``.  The cost grows like ``x/2`` terms.
    """
    _check_domain(nu, x)
    if x == 0.0:
        return 0.0 if nu == 0.0 else -math.inf

    q = 0.25 * x * x
    ln_q = math.log(q)
    ln_t = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    terms = [ln_t]
    peak = ln_t
    budget = _term_budget(x)
    for k in range(1, budget + 1):
        ln_t += ln_q - math.log(k * (nu + k))
        terms.append(ln_t)
        if ln_t > peak:
            peak = ln_t
        elif k * (nu + k) > q:
            # past the maximum: ratios r_j < r < 1, so the tail is
            # bounded by t_k * r / (1 - r)
            r = q / ((k + 1.0) * (nu + k + 1.0))
            if ln_t + math.log(r) - math.log1p(-r) < peak + math.log(_REL_TOL) - 3.0:
                arr = np.array(terms)
                return peak + math.log(np.exp(arr - peak).sum())
    raise ConvergenceError(
        f"I series for nu={nu}, x={x} did not converge in {budget} terms"
    )


def bessel_i_scaled(nu: float, x: float) -> float:
    r"""Exponentially scaled :math:`e^{-x} I_\nu(x)`.

    The scaling keeps the result representable past ``x ~ 700``, where
    :math:`I_\nu` itself overflows; use ``ln_bessel_i`` when even the
    scaled value would underflow (order far above the argument).
    """
    return math.exp(ln_bessel_i(nu, x) - x)


def _ln_cosh(a: np.ndarray) -> np.ndarray:
    a = np.abs(a)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def ln_bessel_k(nu: float, x: float) -> float:
    r"""ln :math:`K_\nu(x)` for ``nu >= 0``, ``x > 0``.

    Trapezoidal refinement of DLMF 10.32.9.  Working with the shifted
    log-integrand ``L(t) = -x(cosh t - 1) + ln cosh(nu t)`` and factoring
    out its maximum keeps the node values in range even where
    :math:`e^{x}K_\nu(x)` itself would overflow (large order, small
    argument).
    """
    _check_domain(nu, x, x_positive=True)

    def ln_f(t: np.ndarray) -> np.ndarray:
        # cosh t - 1 = 2 sinh^2(t/2), exact near 0
        shifted = -x * 2.0 * np.sinh(0.5 * t) ** 2
        if nu > 0.0:
            shifted = shifted + _ln_cosh(nu * t)
        return shifted

    t_peak = math.asinh(nu / x) if nu > 0.0 else 0.0
    ln_peak = float(ln_f(np.array(t_peak)))

    # extend the domain until the integrand is ~e^-50 below its peak
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
        if previous is not None and abs(total - previous) <= _REL_TOL * abs(total):
            # K_nu(x) = e^{-x} * exp(ln_peak) * total
            return ln_peak + math.log(total) - x
        previous = total
        h *= 0.5
    raise ConvergenceError(
        f"K quadrature for nu={nu}, x={x} did not converge"
    )


def bessel_k_scaled(nu: float, x: float) -> float:
    r"""Exponentially scaled :math:`e^{x} K_\nu(x)` for ``x > 0``.

    Overflows (returns ``inf``) only in the extreme corner of large order
    with tiny argument; ``ln_bessel_k`` is the safe form there.
    """
    ln_scaled = ln_bessel_k(nu, x) + x
    if ln_scaled > 709.7:
        return math.inf
    return math.exp(ln_scaled)


def bessel_i_ratio(nu: float, x: float) -> float:
    r"""The consecutive-order ratio :math:`I_{\nu+1}(x)/I_\nu(x)`.

    Gauss continued fraction derived from the three-term recurrence,

    .. math::
        \frac{I_{\nu+1}(x)}{I_\nu(x)} =
        \cfrac{1}{2(\nu+1)/x + \cfrac{1}{2(\nu+2)/x + \dotsb}}

    evaluated with the modified Lentz algorithm.  The ratio lies in
    ``(0, 1)`` for every ``x > 0`` and tends to ``x / (2(nu+1))`` as
    ``x -> 0``.
    """
    _check_domain(nu, x)
    if x == 0.0:
        return 0.0

    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    for k in range(1, _term_budget(x) + 1):
        b = 2.0 * (nu + k) / x
        d = b + d
        if d == 0.0:
            d = tiny
        c = b + 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 0.01 * _REL_TOL:
            return f
    raise ConvergenceError(
        f"ratio continued fraction for nu={nu}, x={x} did not converge"
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
