"""Command-line surface: every analysis as a reproducible CSV dataset.

Output format, identical for every command:

    # key=value key=value ...        (all parameters, keys sorted)
    col1,col2,...                    (header row)
    <data rows>

Floating values are printed with 17 significant digits so that datasets
round-trip losslessly and identical flag sets produce byte-identical
files.  Diagnostics go to stderr, never into the CSV.  Exit codes:
0 success, 2 flag validation failure, 3 numerical non-convergence.

Commands: weights, mandel, autocorr, survival, survival-intensity,
unity, overlap, timescales, figure.  The `_COMMANDS` table is the one
place a dataset command's flags are declared; the parser and the
preamble are read from it, and `_FIGURES` lists each figure's datasets.
Times are given and reported in revival-time units; `timescales`
reports the physical conversion.

`mandel` and `timescales` evaluate their closed forms in (J, mu)
directly and build no state: `--tail-tol` is still validated and
recorded in their preamble, but it does not change their rows.

`timescales`, `mandel` and `figure --id 2` (two `mandel` sweeps) run on
the standard library alone and never load NumPy.  No module of the
package imports NumPy when it is imported; each function that builds or
reads an array imports it itself, and the time and sweep grids come from
`_linspace`, which reproduces np.linspace bit for bit.  Every other
command loads NumPy at its first array.
"""

import argparse
import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .gkstate import _TAIL_TOL, _TAIL_TOL_MAX, _mandel_q, _mean_n, build_state, overlap
from .measure import _MAX_N, QuadratureConfig, moment_checks
from .revival import _channels, _diagonal, _intensities, _interference, channel_amplitudes
from .specfun import ConvergenceError
from .spectrum import SpectrumParams, time_scales

__all__ = [
    "RunConfig",
    "run",
    "figure_bundle",
    "write_dataset",
    "read_dataset",
    "build_parser",
    "main",
]

@dataclass(frozen=True)
class RunConfig:
    """One fully validated invocation."""

    command: str
    j: float = 10.0
    mu: float = 28.0
    alpha: float = 1.0
    q: int = 4
    delta: int = 0
    t_max: float = 1.0
    points: int = 2001
    n_max: int = 5
    j_max: float = 20.0
    tail_tol: float = _TAIL_TOL
    abs_tol: float = QuadratureConfig.abs_tol
    rel_tol: float = QuadratureConfig.rel_tol
    out_path: str = "-"
    figure: Optional[int] = None


def _fmt(v) -> str:
    if isinstance(v, (bool, str)):
        return str(v)
    if isinstance(v, numbers.Integral):
        return str(int(v))
    return format(float(v), ".17g")


def _lines(rows: list) -> list:
    # A table of equal-length rows is formatted a column at a time: an
    # all-float column becomes one "%.17g" field of a per-row template,
    # which prints what _fmt prints without its per-cell type dispatch
    # (np.float64 is a float); any other column goes through _fmt cell by
    # cell.
    if len({len(r) for r in rows}) != 1 or len(rows[0]) == 0:
        return [",".join(map(_fmt, r)) + "\n" for r in rows]
    cols, fields = [], []
    for cells in zip(*rows):
        if all(isinstance(v, float) for v in cells):
            cols.append(cells)
            fields.append("%.17g")
        else:
            cols.append([_fmt(v) for v in cells])
            fields.append("%s")
    line = ",".join(fields) + "\n"
    return [line % cells for cells in zip(*cols)]


def write_dataset(stream, params: dict, header: list, rows) -> None:
    """Comment preamble, header, rows; keys sorted for determinism."""
    stream.write("# " + " ".join(f"{k}={_fmt(params[k])}" for k in sorted(params)) + "\n")
    stream.write(",".join(header) + "\n")
    stream.write("".join(_lines(list(rows))))


def read_dataset(path: str):
    """Parse a dataset written by write_dataset.

    Returns (params, header, rows); parameter and cell values are
    floats where they parse as such, otherwise strings.
    """

    def _val(s: str):
        try:
            return float(s)
        except ValueError:
            return s

    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith("# "):
            raise ValueError(f"{path}: missing parameter comment line")
        params = {}
        for item in first[2:].split():
            k, _, v = item.partition("=")
            params[k] = _val(v)
        header = fh.readline().rstrip("\n").split(",")
        rows = [tuple(_val(c) for c in line.rstrip("\n").split(",")) for line in fh if line.strip()]
    return params, header, rows


def _params(cfg: RunConfig) -> SpectrumParams:
    return SpectrumParams(mu=cfg.mu, alpha=cfg.alpha)


def _linspace(start: float, stop: float, num: int) -> list:
    """np.linspace(start, stop, num) for num >= 2, bit for bit, as floats:
    point i is i * step + start, or (i / div) * delta + start where the
    step underflows to 0, and the last point is stop."""
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        grid = [i / div * delta + start for i in range(num)]
    else:
        grid = [i * step + start for i in range(num)]
    grid[-1] = stop
    return grid


def _t_grid(cfg: RunConfig) -> list:
    return _linspace(0.0, cfg.t_max, cfg.points)


def _sweep_grid(upper: float, points: int) -> list:
    # points samples on (0, upper], excluding the singular origin
    return _linspace(upper / points, upper, points)


def _rows_weights(cfg: RunConfig):
    import numpy as np
    s = build_state(cfg.j, 0.0, _params(cfg), cfg.tail_tol)
    return ["n", "weight"], list(enumerate(np.exp(s.ln_weights).tolist()))


def _rows_mandel(cfg: RunConfig):
    # the closed form in (J, mu): no state per sweep point
    rows = [(j, _mandel_q(j, cfg.mu)) for j in _sweep_grid(cfg.j_max, cfg.points)]
    return ["j", "mandel_q"], rows


def _channel_rows(cfg: RunConfig, q: int, delta: int):
    # P_delta(t) of modulus q on the time grid: A(t) for q = 1, delta = 0
    s = build_state(cfg.j, 0.0, _params(cfg), cfg.tail_tol)
    t = _t_grid(cfg)
    p = channel_amplitudes(s, q, t)[:, delta]
    return ["t", "re", "im", "abs2"], list(zip(t, p.real.tolist(), p.imag.tolist(),
                                               _intensities(p).tolist()))


def _rows_survival_intensity(cfg: RunConfig):
    s = build_state(cfg.j, 0.0, _params(cfg), cfg.tail_tol)
    t = _t_grid(cfg)
    ch = _channels(s, [1, cfg.q], t)  # one kernel pass for both moduli
    abs2 = _intensities(ch[1][:, 0])
    p = ch[cfg.q]
    rows = list(zip(t, abs2.tolist(), _diagonal(p).tolist(), _interference(p).tolist()))
    return ["t", "abs2", "diagonal", "interference"], rows


def _rows_unity(cfg: RunConfig):
    p = _params(cfg)
    qc = QuadratureConfig(abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol)
    reps = moment_checks(range(cfg.n_max + 1), p, qc)
    rows = [(r.n, r.integral, r.rho_n, r.rel_err) for r in reps]
    return ["n", "integral", "rho_n", "rel_err"], rows


def _rows_overlap(cfg: RunConfig):
    # non-orthogonality profile: <J,0|J',0> as J' sweeps (0, 2J]
    p = _params(cfg)
    s1 = build_state(cfg.j, 0.0, p, cfg.tail_tol)
    rows = []
    for j2 in _sweep_grid(2.0 * cfg.j, cfg.points):
        s2 = build_state(j2, 0.0, p, cfg.tail_tol)
        v = overlap(s1, s2)
        rows.append((j2, v.real, v.imag, abs(v) ** 2))
    return ["j2", "re", "im", "abs2"], rows


def _rows_timescales(cfg: RunConfig):
    p = _params(cfg)
    n_bar = _mean_n(cfg.j, cfg.mu)
    ts = time_scales(n_bar, p)
    ratio = ts.t_revival / ts.t_classical
    return (
        ["j", "mu", "alpha", "n_bar", "t_classical", "t_revival", "ratio"],
        [(cfg.j, cfg.mu, cfg.alpha, n_bar, ts.t_classical, ts.t_revival, ratio)],
    )


# The one place a command's flags are declared: its row builder, its help
# line and the RunConfig fields it takes beyond _COMMON and --out.  The
# parser's flags and the dataset preamble's keys are both read from it.
_COMMANDS = {
    "weights": (_rows_weights, "number distribution w_n", ()),
    "mandel": (_rows_mandel, "Mandel Q over a J sweep", ("j_max", "points")),
    "autocorr": (lambda cfg: _channel_rows(cfg, 1, 0), "|A(t)|^2 series", ("t_max", "points")),
    "survival": (lambda cfg: _channel_rows(cfg, cfg.q, cfg.delta), "one channel P_delta(t)",
                 ("t_max", "points", "q", "delta")),
    "survival-intensity": (_rows_survival_intensity,
                           "|A|^2 split into diagonal + interference", ("t_max", "points", "q")),
    "unity": (_rows_unity, "moment checks of the measure density",
              ("n_max", "abs_tol", "rel_tol")),
    "overlap": (_rows_overlap, "<J,0|J',0> as J' sweeps (0, 2J]", ("points",)),
    "timescales": (_rows_timescales, "classical period and revival time", ()),
}
# taken by every dataset command and recorded in every preamble
_COMMON = ("j", "mu", "alpha", "tail_tol")

_HELP = {
    "j": "action label J",
    "mu": "deformation parameter mu",
    "alpha": "angular frequency",
    "tail_tol": "weight tail cutoff, in (0, 1e-6]",
    "out_path": "output path, '-' for stdout",
    "t_max": "grid end in revival-time units",
    "points": "grid or sweep size",
    "q": "revival order",
    "delta": "residue class in [0, q)",
    "j_max": "sweep end (0, j_max]",
    "n_max": "check moments 0..n_max",
    "abs_tol": "quadrature absolute tolerance",
    "rel_tol": "quadrature relative tolerance",
}


def _validate(cfg: RunConfig) -> None:
    """Raise ValueError naming the first flag out of range."""
    if cfg.command not in _COMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    if not (math.isfinite(cfg.j) and cfg.j >= 0.0):
        raise ValueError(f"--j must be finite and >= 0, got {cfg.j}")
    if not (math.isfinite(cfg.mu) and cfg.mu > 0.0):
        raise ValueError(f"--mu must be > 0, got {cfg.mu}")
    if not (math.isfinite(cfg.alpha) and cfg.alpha > 0.0):
        raise ValueError(f"--alpha must be > 0, got {cfg.alpha}")
    if cfg.points < 2:
        raise ValueError(f"--points must be >= 2, got {cfg.points}")
    if not 0.0 < cfg.t_max < math.inf:
        raise ValueError(f"--t-max must be finite and > 0, got {cfg.t_max}")
    if cfg.q < 2:
        raise ValueError(f"--q must be >= 2, got {cfg.q}")
    if not 0 <= cfg.delta < cfg.q:
        raise ValueError(f"--delta must lie in [0, q), got {cfg.delta}")
    if not 0 <= cfg.n_max <= _MAX_N:
        raise ValueError(f"--n-max must lie in [0, {_MAX_N}], got {cfg.n_max}")
    if not 0.0 < cfg.j_max < math.inf:
        raise ValueError(f"--j-max must be finite and > 0, got {cfg.j_max}")
    if not 0.0 < cfg.tail_tol <= _TAIL_TOL_MAX:
        raise ValueError(f"--tail-tol must lie in (0, 1e-6], got {cfg.tail_tol}")
    if not (0.0 < cfg.abs_tol < math.inf and 0.0 < cfg.rel_tol < math.inf):
        raise ValueError("--abs-tol and --rel-tol must be finite and > 0")
    if cfg.command == "overlap" and cfg.j == 0.0:
        raise ValueError("--j must be > 0 for overlap sweeps")


def _exit_code(action, *args) -> int:
    """Call action(*args) and return the process exit code: 0, or 2 for a
    ValueError and 3 for a ConvergenceError, whose message goes to stderr."""
    try:
        action(*args)
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ConvergenceError) else 2
    return 0


def _write(cfg: RunConfig) -> None:
    """run() without the exit-code mapping: failures raise."""
    _validate(cfg)
    build, _, fields = _COMMANDS[cfg.command]
    params = {k: getattr(cfg, k) for k in ("command",) + _COMMON + fields}
    if cfg.figure is not None:
        params.update(figure=cfg.figure)
    # rows first, so a failed computation leaves no partial file behind
    header, rows = build(cfg)
    if cfg.out_path == "-":
        write_dataset(sys.stdout, params, header, rows)
    else:
        with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
            write_dataset(fh, params, header, rows)


def run(cfg: RunConfig) -> int:
    """Execute one command, writing the dataset to cfg.out_path ('-' for
    standard output).  Returns the process exit code."""
    return _exit_code(_write, cfg)


def _mu_tag(mu: float) -> str:
    return str(int(mu)) if float(mu).is_integer() else str(mu).replace(".", "p")


# figure id -> (command, mu values, delta values); an empty delta tuple
# leaves delta at its default and out of the file name.  Every other
# field takes its RunConfig default.
_FIGURES = {
    1: ("weights", (28.0, 80.0), ()),
    2: ("mandel", (28.0, 80.0), ()),
    3: ("autocorr", (1.0, 28.0, 80.0), ()),
    4: ("survival", (28.0,), (0, 1, 2, 3)),
    5: ("survival", (80.0,), (0, 1, 2, 3)),
    6: ("survival-intensity", (28.0, 80.0), ()),
    7: ("survival-intensity", (28.0, 80.0), ()),
}


def figure_bundle(figure_id: int, out_dir: str, tail_tol: float = RunConfig.tail_tol,
                  points: int = RunConfig.points) -> list:
    """Write the CSV datasets behind one figure (1..7) into out_dir.

    Returns the list of file paths written.  Raises ValueError for an
    unknown figure id or an out-of-range flag, before out_dir is created;
    numerical failures propagate as ConvergenceError.
    """
    if figure_id not in _FIGURES:
        raise ValueError(f"figure id must lie in 1..7, got {figure_id}")
    command, mus, deltas = _FIGURES[figure_id]
    jobs = []
    for mu in mus:
        for delta in deltas or (RunConfig.delta,):
            name = f"fig{figure_id}_{command.replace('-', '_')}_mu{_mu_tag(mu)}"
            name += f"_delta{delta}.csv" if deltas else ".csv"
            jobs.append(RunConfig(command=command, mu=mu, delta=delta, tail_tol=tail_tol,
                                  points=points, out_path=os.path.join(out_dir, name),
                                  figure=figure_id))
    for cfg in jobs:
        _validate(cfg)
    os.makedirs(out_dir, exist_ok=True)
    for cfg in jobs:
        _write(cfg)
        print(f"wrote {cfg.out_path}", file=sys.stderr)
    return [cfg.out_path for cfg in jobs]


def _add_flag(sp, field: str) -> None:
    # type and default come from RunConfig, so each is written once
    default = getattr(RunConfig, field)
    flag = "--out" if field == "out_path" else "--" + field.replace("_", "-")
    sp.add_argument(flag, type=type(default), default=default, help=_HELP[field])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gkrevival",
        description="Coherent-state revival datasets for the quadratic ladder "
        "e_n = n(n+mu)/mu, as CSV.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_line, fields) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_line)
        for field in _COMMON + ("out_path",) + fields:
            _add_flag(sp, field)

    sp = sub.add_parser("figure", help="write every dataset behind one figure")
    sp.add_argument("--id", type=int, required=True, help="figure number, 1..7")
    sp.add_argument("--out-dir", required=True, help="target directory")
    _add_flag(sp, "tail_tol")
    _add_flag(sp, "points")
    return ap


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.command == "figure":
        return _exit_code(figure_bundle, ns.id, ns.out_dir, ns.tail_tol, ns.points)
    kw = vars(ns)
    kw["out_path"] = kw.pop("out")
    return run(RunConfig(**kw))


if __name__ == "__main__":
    sys.exit(main())
