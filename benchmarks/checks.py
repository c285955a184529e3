"""Correctness checks on the CSV datasets the gkrevival CLI writes.

Pure Python (no NumPy, no gkrevival import), so checking adds nothing to
the processes being measured.  Every check returns a list of problem
names; an empty list means the output is correct.

The invariants are the acceptance-gate ones: weights sum to 1, |A|^2 = 1
at t = 0 and t = 1 for integer mu, the q channels sum to A, |A|^2 equals
diagonal + interference, Q < 0, unity rel_err <= 1e-6.  The pinned values
come from `gkrevival figure --id 1..7` at commit 4b11692.
"""

import math
import os

TOL = 1e-12
UNITY_REL_ERR = 1e-6
_EPS = 2.0 ** -52

# (file, data row, column) -> value, from `gkrevival figure --id 1..7`.
PINS = {
    ("fig1_weights_mu28.csv", 7, "weight"): 0.15715798764315619,
    ("fig1_weights_mu80.csv", 10, "weight"): 0.12278458629024101,
    ("fig2_mandel_mu28.csv", 999, "mandel_q"): -0.1714841386687477,
    ("fig2_mandel_mu80.csv", 1500, "mandel_q"): -0.11952792274495251,
    ("fig3_autocorr_mu1.csv", 1000, "abs2"): 1.0,
    ("fig3_autocorr_mu28.csv", 500, "abs2"): 0.50000000000000022,
    ("fig3_autocorr_mu80.csv", 667, "re"): 0.52619109538851072,
    ("fig4_survival_mu28_delta1.csv", 400, "abs2"): 0.0081484532635634193,
    ("fig5_survival_mu80_delta2.csv", 667, "im"): -0.1261220048060249,
    ("fig6_survival_intensity_mu28.csv", 500, "diagonal"): 0.25000026574510437,
    ("fig7_survival_intensity_mu80.csv", 667, "interference"): 0.20544573035691732,
}

# `gkrevival timescales --j 10 --mu 28`, the set-up invocation.
WARMUP_ARGS = ("timescales", "--j", "10", "--mu", "28")
WARMUP_ROW = (10.0, 28.0, 1.0, 7.6712847229035415, 4.0590392044246375,
              175.92918860102841, 43.342569445807094)


class Dataset:
    """One parsed CSV dataset: params (strings), header, float rows."""

    def __init__(self, text):
        lines = text.splitlines()
        if len(lines) < 2 or not lines[0].startswith("# "):
            raise ValueError("missing parameter line or header")
        self.params = dict(item.partition("=")[::2] for item in lines[0][2:].split())
        self.header = lines[1].split(",")
        self.rows = [[float(c) for c in line.split(",")] for line in lines[2:] if line]
        if any(len(r) != len(self.header) for r in self.rows):
            raise ValueError("ragged rows")

    def col(self, name):
        i = self.header.index(name)
        return [r[i] for r in self.rows]


def _close(a, b, tol=TOL):
    return abs(a - b) <= tol


def _rel_close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def parse(text):
    """Dataset, or None when the text is not a dataset."""
    try:
        return Dataset(text)
    except ValueError:
        return None


def check_warmup(text):
    ds = parse(text)
    if ds is None or len(ds.rows) != 1:
        return ["format"]
    return [] if all(_close(a, b) for a, b in zip(ds.rows[0], WARMUP_ROW)) else ["pinned"]


# ---------------------------------------------------------------- queries

def check_query(op, text):
    ds = parse(text)
    if ds is None:
        return ["format"]
    return _QUERY_CHECKS[op["kind"]](op, ds)


def _check_timescales(op, ds):
    if ds.header != ["j", "mu", "alpha", "n_bar", "t_classical", "t_revival", "ratio"] \
            or len(ds.rows) != 1:
        return ["format"]
    j, mu, alpha, n_bar, t_cl, t_rev, ratio = ds.rows[0]
    bad = []
    if (j, mu, alpha) != (op["j"], op["mu"], 1.0):
        bad.append("echo")
    if not 0.0 < n_bar < math.sqrt(j * mu):
        bad.append("n_bar_range")
    if not _rel_close(t_rev, 2.0 * math.pi * mu, 1e-14):
        bad.append("t_revival")
    if not _rel_close(t_cl, 2.0 * math.pi * mu / (2.0 * n_bar + mu), TOL):
        bad.append("t_classical")
    if not _rel_close(ratio, t_rev / t_cl, TOL):
        bad.append("ratio")
    return bad


def _check_weights(op, ds):
    if ds.header != ["n", "weight"]:
        return ["format"]
    n, w = ds.col("n"), ds.col("weight")
    mu, j = op["mu"], op["j"]
    bad = []
    if n != [float(k) for k in range(len(n))]:
        bad.append("levels")
    if min(w) < 0.0:
        bad.append("weight_negative")
    # exp() of a log-domain weight carries |ln w| ulp of relative error;
    # ln N^2 is below 2 sqrt(J mu) + 1
    if abs(math.fsum(w) - 1.0) > TOL + 8.0 * _EPS * (2.0 * math.sqrt(j * mu) + 1.0):
        bad.append("weight_sum")
    energy = math.fsum(wk * k * (k + mu) / mu for k, wk in zip(n, w))
    if abs(energy - j) > 1e-9 * max(1.0, j):
        bad.append("action_identity")
    return bad


def _check_unity(op, ds):
    if ds.header != ["n", "integral", "rho_n", "rel_err"] \
            or [r[0] for r in ds.rows] != [float(k) for k in range(op["n_max"] + 1)]:
        return ["format"]
    mu = op["mu"]
    bad = []
    for n, integral, rho_n, rel_err in ds.rows:
        ln_rho = (math.lgamma(n + 1.0) + math.lgamma(n + 1.0 + mu) - n * math.log(mu)
                  - math.lgamma(1.0 + mu))
        if not _rel_close(rho_n, math.exp(ln_rho), 1e-10):
            bad.append("rho_n")
        if not rel_err <= UNITY_REL_ERR:
            bad.append("rel_err")
        if abs(abs(integral - rho_n) / rho_n - rel_err) > 1e-12:
            bad.append("rel_err_consistent")
    return sorted(set(bad))


def _check_overlap(op, ds):
    if ds.header != ["j2", "re", "im", "abs2"] or len(ds.rows) != op["points"]:
        return ["format"]
    j = op["j"]
    bad = []
    for j2, re, im, abs2 in ds.rows:
        if not (re > 0.0 and abs(im) <= TOL and abs2 <= 1.0 + TOL):
            bad.append("overlap_range")
        if not _close(abs2, re * re + im * im):
            bad.append("abs2")
    # the sweep (0, 2J] with an even point count passes through J itself
    j2, _, _, abs2 = min(ds.rows, key=lambda r: abs(r[0] - j))
    if abs(j2 - j) <= TOL * j and abs(abs2 - 1.0) > 1e-9:
        bad.append("self_overlap")
    return sorted(set(bad))


def _check_mandel(op, ds):
    if ds.header != ["j", "mandel_q"] or len(ds.rows) != op["points"]:
        return ["format"]
    if not all(-1.0 < q < 0.0 for q in ds.col("mandel_q")):
        return ["Q_negative"]
    return []


_QUERY_CHECKS = {
    "timescales": _check_timescales,
    "weights": _check_weights,
    "unity": _check_unity,
    "overlap": _check_overlap,
    "mandel": _check_mandel,
}


# ---------------------------------------------------------------- figures

FIGURE_FILES = {
    1: ["fig1_weights_mu28.csv", "fig1_weights_mu80.csv"],
    2: ["fig2_mandel_mu28.csv", "fig2_mandel_mu80.csv"],
    3: ["fig3_autocorr_mu1.csv", "fig3_autocorr_mu28.csv", "fig3_autocorr_mu80.csv"],
    4: [f"fig4_survival_mu28_delta{d}.csv" for d in range(4)],
    5: [f"fig5_survival_mu80_delta{d}.csv" for d in range(4)],
    6: ["fig6_survival_intensity_mu28.csv", "fig6_survival_intensity_mu80.csv"],
    7: ["fig7_survival_intensity_mu28.csv", "fig7_survival_intensity_mu80.csv"],
}
_FIGURE_POINTS = 2001


def check_figures(out_dir, figure_ids):
    """Problems per figure id for the files of one pass; the cross-file
    checks compare figures 4-7 with the figure 3 autocorrelation."""
    data = {}
    for fid in figure_ids:
        for name in FIGURE_FILES[fid]:
            try:
                with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                    data[name] = parse(fh.read())
            except OSError:
                data[name] = None
    problems = {}
    for fid in figure_ids:
        bad = []
        names = FIGURE_FILES[fid]
        if any(data[n] is None for n in names):
            problems[fid] = ["missing_or_malformed"]
            continue
        bad += _FIGURE_CHECKS[fid](data, names)
        for (name, row, col), value in PINS.items():
            if name in names:
                ds = data[name]
                if row >= len(ds.rows) or not _close(ds.col(col)[row], value):
                    bad.append("pinned")
        problems[fid] = sorted(set(bad))
    return problems


def _autocorr(data, mu):
    return data.get(f"fig3_autocorr_mu{mu}.csv")


def _fig_weights(data, names):
    bad = []
    for name in names:
        w = data[name].col("weight")
        if min(w) < 0.0 or abs(math.fsum(w) - 1.0) > TOL:
            bad.append("weight_sum")
    return bad


def _fig_mandel(data, names):
    bad = []
    for name in names:
        ds = data[name]
        if len(ds.rows) != _FIGURE_POINTS or not all(q < 0.0 for q in ds.col("mandel_q")):
            bad.append("Q_negative")
    return bad


def _fig_autocorr(data, names):
    bad = []
    for name in names:
        ds = data[name]
        if len(ds.rows) != _FIGURE_POINTS:
            bad.append("points")
            continue
        abs2 = ds.col("abs2")
        # every figure uses integer mu, so the packet revives fully at t = 1
        if not (_close(abs2[0], 1.0) and _close(abs2[-1], 1.0)):
            bad.append("revival_A0_A1")
        if any(a > 1.0 + TOL for a in abs2):
            bad.append("abs2_above_1")
        if any(not _close(r[1] * r[1] + r[2] * r[2], r[3]) for r in ds.rows):
            bad.append("abs2")
    return bad


def _fig_survival(data, names):
    ref = _autocorr(data, 28 if "mu28" in names[0] else 80)
    chans = [data[n] for n in names]
    if any(len(c.rows) != _FIGURE_POINTS for c in chans):
        return ["points"]
    if ref is None:
        return []
    for i, r in enumerate(ref.rows):
        re = math.fsum(c.rows[i][1] for c in chans)
        im = math.fsum(c.rows[i][2] for c in chans)
        if not (_close(re, r[1]) and _close(im, r[2])):
            return ["channel_sum"]
    return []


def _fig_intensity(data, names):
    bad = []
    for name in names:
        ds = data[name]
        if len(ds.rows) != _FIGURE_POINTS:
            bad.append("points")
            continue
        abs2 = ds.col("abs2")
        if not (_close(abs2[0], 1.0) and _close(abs2[-1], 1.0)):
            bad.append("revival_A0_A1")
        if any(not _close(a, d + i) or d < 0.0
               for a, d, i in zip(abs2, ds.col("diagonal"), ds.col("interference"))):
            bad.append("diagonal_plus_interference")
        ref = _autocorr(data, 28 if "mu28" in name else 80)
        if ref is not None and any(not _close(a, b) for a, b in zip(abs2, ref.col("abs2"))):
            bad.append("abs2_vs_autocorr")
    return bad


_FIGURE_CHECKS = {
    1: _fig_weights,
    2: _fig_mandel,
    3: _fig_autocorr,
    4: _fig_survival,
    5: _fig_survival,
    6: _fig_intensity,
    7: _fig_intensity,
}
