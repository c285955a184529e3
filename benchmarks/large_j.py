"""Worker for the large_j workload: an in-process library loop over seeded
states, run in a fresh interpreter.

    python3 benchmarks/large_j.py SEED [LIMIT]

The worker imports gkrevival, builds the op list and the revival grid,
prints one JSON line with the op-list digest, and reads one JSON job from
standard input:

    {"mode": "timed", "seconds": S}   passes over the op list for S seconds
    {"mode": "trace", "spans": PATH}  one untraced pass, then one traced pass

An empty line (end of input) ends the worker without work; the
benchmark uses that to time set-up alone.  The result is one JSON line:
one [pass, start, end, failure kind, detail] record per op, the
host-speed reference bursts (see hostspeed.py), taken at the start and
end of each pass and every REFERENCE_EVERY_S between ops, and the
outcome of the known-failure probe (probe_known_failure).
"""

import json
import math
import resource
import sys
from time import perf_counter

import numpy as np

from gkrevival import gkstate, revival, specfun, spectrum

import tracer as tr
import workloads
from hostspeed import Speedometer

_EPS = 2.0 ** -52
REFERENCE_EVERY_S = 0.25
PROBE_J, PROBE_MU = 1e6, 40.5       # J mu = 4.05e7


def _check(op, s, grid, ac, fds, ov, a_tau, mean, q, ln_norm):
    """Names of the invariants this op's outputs break (empty when correct)."""
    bad = []
    w = np.exp(s.ln_weights)
    n = np.arange(s.n_max + 1, dtype=float)
    # exp() of a log-domain weight carries |ln w| ulp of relative error
    ln_scale = max(1.0, abs(s.ln_norm_sq))
    tol_w = 1e-12 + 8.0 * _EPS * ln_scale
    if abs(w.sum() - 1.0) > tol_w:
        bad.append("weight_sum")
    # A(0) is the weight sum
    if grid[0] == 0.0 and abs(ac.values[0] - 1.0) > 2.0 * tol_w:
        bad.append("A0")
    for fd in fds:
        total = np.sum([f.values for f in fd.fractions], axis=0)
        if np.max(np.abs(np.abs(total) ** 2 - ac.values)) > 1e-12:
            bad.append(f"channel_sum_q{fd.q}")
    # evolve() takes physical time: tau * t_rev is rounded, which moves
    # the phase of level n by up to a few ulp of (mu n + n^2) cycles
    m_max = s.n_max * (s.n_max + op["mu"])
    if abs(ov - a_tau) > 1e-12 + 8.0 * math.pi * _EPS * m_max:
        bad.append("overlap_vs_A")
    mean_series = float(w @ n) / float(w.sum())
    q_series = float(w @ (n - mean_series) ** 2) / float(w.sum()) / mean_series - 1.0
    if not q < 0.0:
        bad.append("Q_negative")
    if abs(mean - mean_series) > 1e-9 * mean_series:
        bad.append("mean_n")
    if abs(q - q_series) > 1e-8:
        bad.append("mandel_q")
    if abs(ln_norm - s.ln_norm_sq) > 1e-13 * ln_scale + 1e-14:
        bad.append("normalization_sq")
    return bad


def run_op(op, grid):
    """One full state analysis.  Returns (start, end, failure kind or
    None, detail).  The closed forms run last, normalization_sq last of
    all, so an op that fails there has already done all its other work."""
    p = spectrum.SpectrumParams(op["mu"])
    t0 = perf_counter()
    try:
        s = gkstate.build_state(op["j"], 0.0, p)
        ac = revival.autocorrelation_series(s, grid)
        fds = [revival.fractional_decomposition(s, q, grid) for q in workloads.LARGE_J_Q]
        tau = op["tau"]
        ov = gkstate.overlap(s, gkstate.evolve(s, tau * spectrum.revival_time(p)))
        a_tau = revival.autocorrelation(s, tau)
        mean = gkstate.mean_n(s)
        q = gkstate.mandel_q(s)
        ln_norm = gkstate.normalization_sq(op["j"], p)
    except specfun.ConvergenceError as exc:
        return t0, perf_counter(), "ConvergenceError", str(exc)
    except (ValueError, ArithmeticError) as exc:
        return t0, perf_counter(), type(exc).__name__, str(exc)
    t1 = perf_counter()
    bad = _check(op, s, grid, ac, fds, ov, a_tau, mean, q, ln_norm)
    if bad:
        return t0, t1, "check:" + ",".join(bad), f"J={op['j']!r} mu={op['mu']!r}"
    return t0, t1, None, None


def probe_known_failure():
    """normalization_sq at one fixed J mu above the cap of the op list,
    where the parent commit raises ConvergenceError (DESIGN.md).  Run
    once per job after the passes; its outcome is reported beside the
    ops, not counted among them, so `failed` does not depend on how many
    passes fit into a run."""
    j, mu = PROBE_J, PROBE_MU
    try:
        value = gkstate.normalization_sq(j, spectrum.SpectrumParams(mu))
    except specfun.ConvergenceError as exc:
        return {"j": j, "mu": mu, "outcome": "ConvergenceError", "detail": str(exc)}
    return {"j": j, "mu": mu, "outcome": "ok", "detail": repr(value)}


def run_pass(ops, grid, speed, records, tracer=None):
    """One pass; appends [pass, start, end, kind, detail] per op and
    returns the elapsed time, reference bursts included."""
    pass_no = records[-1][0] + 1 if records else 0
    begin = perf_counter()
    speed.sample()
    for k, op in enumerate(ops):
        speed.sample_every(REFERENCE_EVERY_S)
        if tracer is not None:
            tracer.op_id = k + 1
        records.append([pass_no, *run_op(op, grid)])
    speed.sample()
    return perf_counter() - begin


def main(argv):
    seed = int(argv[1])
    ops = workloads.large_j_ops(seed)
    if len(argv) > 2:
        ops = ops[: int(argv[2])]
    grid = np.array(workloads.revival_grid())
    print(json.dumps({"digest": workloads.digest(ops), "ops": len(ops),
                      "grid_points": len(grid)}), flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    job = json.loads(line)
    speed = Speedometer()
    records = []
    out = {}
    if job["mode"] == "timed":
        workloads.timed_passes(lambda: run_pass(ops, grid, speed, records), job["seconds"])
        out["known_failure"] = probe_known_failure()
    else:
        run_pass(ops, grid, speed, records)
        tracer = tr.Tracer()
        tracer.install()
        run_pass(ops, grid, speed, records, tracer)
        tracer.op_id = len(ops) + 1
        out["known_failure"] = probe_known_failure()
        tracer.dump(job["spans"])
        out["trace"] = tracer.aggregates()
    out.update(
        records=records,
        speed=[speed.ends, speed.refs],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
