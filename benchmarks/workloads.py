"""Seeded op lists for the three benchmark workloads.

Every list is a pure function of the seed (``random.Random``, no NumPy),
so the parent process, the large_j worker and the self-test all build the
same ops and can compare digests.

Parameters are drawn by stratified sampling with antithetic pairs: each
stratum gets one draw ``u`` and its mirror ``1 - u``.  Op cost grows
steeply with J (the level count is about sqrt(J mu)), so a plain random
draw would make the work per pass swing by 10-20 % from seed to seed;
stratification keeps the work per pass nearly fixed while the inputs
still change with every seed.
"""

import hashlib
import json
import random
from time import perf_counter

WORKLOADS = ("figures", "queries", "large_j")

FIGURE_IDS = tuple(range(1, 8))

QUERY_KINDS = ("timescales", "weights", "unity", "overlap", "mandel")
QUERY_J = (0.5, 1e3)          # log-uniform
QUERY_MU = (1.0, 80.0)        # uniform
QUERY_N_MAX = (5, 20)         # unity moments 0..n_max
QUERY_POINTS = (100, 200)     # sweep size is twice this, so always even

LARGE_J_J = (1.0, 1e6)        # log-uniform
LARGE_J_MU = (1.0, 80.0)      # uniform, so non-integer with probability 1
# J mu above about 2.1e7 makes normalization_sq raise ConvergenceError on
# the parent commit (DESIGN.md, "Known failure"); the op list stays below
# this cap so that no op fails, and large_j.py probes the failure apart.
LARGE_J_JMU_MAX = 1.6e7
LARGE_J_STRATA = (10, 3)      # J strata x mu strata, two antithetic ops per cell
LARGE_J_Q = (2, 3, 4, 5)


def _log_uniform(lo, hi, u):
    return lo * (hi / lo) ** u


def _uniform(lo, hi, u):
    return lo + (hi - lo) * u


def figures_ops(seed):
    """The seven paper figures, in a seeded order."""
    ids = list(FIGURE_IDS)
    random.Random(seed).shuffle(ids)
    return [{"kind": "figure", "id": i} for i in ids]


def queries_ops(seed):
    """Two short CLI invocations of each kind, antithetic in every parameter."""
    rng = random.Random(seed)
    ops = []
    for kind in QUERY_KINDS:
        draw = (rng.random(), rng.random(), rng.random())
        for a, b, c in (draw, tuple(1.0 - x for x in draw)):
            op = {
                "kind": kind,
                "j": _log_uniform(*QUERY_J, a),
                "mu": _uniform(*QUERY_MU, b),
            }
            if kind == "unity":
                lo, hi = QUERY_N_MAX
                op["n_max"] = min(hi, lo + int(c * (hi - lo + 1)))
            elif kind in ("overlap", "mandel"):
                lo, hi = QUERY_POINTS
                op["points"] = 2 * min(hi, lo + int(c * (hi - lo + 1)))
            ops.append(op)
    rng.shuffle(ops)
    return ops


def large_j_ops(seed):
    """One state per op: J log-uniform, non-integer mu (uniform up to
    LARGE_J_JMU_MAX / J where that is below 80), and a revival fraction
    tau for the overlap-versus-A(tau) check."""
    rng = random.Random(seed)
    n_j, n_mu = LARGE_J_STRATA
    mu_lo, mu_hi = LARGE_J_MU
    ops = []
    for i in range(n_j):
        for k in range(n_mu):
            draw = (rng.random(), rng.random(), rng.random())
            for a, b, c in (draw, tuple(1.0 - x for x in draw)):
                j = _log_uniform(*LARGE_J_J, (i + a) / n_j)
                ops.append({
                    "j": j,
                    "mu": _uniform(mu_lo, min(mu_hi, LARGE_J_JMU_MAX / j), (k + b) / n_mu),
                    "tau": c,
                })
    rng.shuffle(ops)
    return ops


def ops_for(workload, seed):
    return {"figures": figures_ops, "queries": queries_ops, "large_j": large_j_ops}[workload](seed)


def revival_grid():
    """Fixed non-uniform grid in revival-time units: t = 0, a coarse
    uniform background, and dense clusters around t_rev/k for k = 1..6,
    where the fractional revivals sit.  Not uniform, so an FFT path for
    uniform grids does not apply to it."""
    pts = {0.0}
    pts.update(i / 19 for i in range(20))
    for k in range(1, 7):
        half = 0.02 / k
        pts.update(1.0 / k + half * (i / 22 - 1.0) for i in range(45))
    return sorted(t for t in pts if 0.0 <= t <= 1.0)


def timed_passes(one_pass, seconds):
    """Call `one_pass` (which returns its elapsed time) until the next
    pass would end after `seconds`; always at least one pass."""
    start = perf_counter()
    while True:
        elapsed = one_pass()
        if perf_counter() - start + elapsed > seconds:
            return


def digest(ops):
    """Short content hash of an op list, recorded with every result."""
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
