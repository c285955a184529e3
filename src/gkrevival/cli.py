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
unity, overlap, timescales, figure.  Times are given and reported in
revival-time units; `timescales` reports the physical conversion.
"""

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gkstate import build_state, mandel_q, mean_n, overlap
from .measure import QuadratureConfig, moment_check
from .revival import _diagonal, _intensities, _interference, channel_amplitudes
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
    tail_tol: float = 1e-14
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    out_path: str = "-"
    figure: Optional[int] = None


def _fmt(v) -> str:
    if isinstance(v, (bool, str)):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_dataset(stream, params: dict, header: list, rows) -> None:
    """Comment preamble, header, rows; keys sorted for determinism."""
    stream.write("# " + " ".join(f"{k}={_fmt(params[k])}" for k in sorted(params)) + "\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


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


def _t_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.t_max, cfg.points)


def _sweep_grid(upper: float, points: int) -> np.ndarray:
    # points samples on (0, upper], excluding the singular origin
    return np.linspace(upper / points, upper, points)


def _rows_weights(cfg: RunConfig):
    s = build_state(cfg.j, 0.0, _params(cfg), cfg.tail_tol)
    w = np.exp(s.ln_weights)
    return ["n", "weight"], [(n, w[n]) for n in range(s.n_max + 1)]


def _rows_mandel(cfg: RunConfig):
    p = _params(cfg)
    rows = []
    for j in _sweep_grid(cfg.j_max, cfg.points):
        s = build_state(float(j), 0.0, p, cfg.tail_tol)
        rows.append((j, mandel_q(s)))
    return ["j", "mandel_q"], rows


def _amplitude_rows(t, amplitudes):
    return list(zip(t, amplitudes.real, amplitudes.imag, _intensities(amplitudes)))


def _rows_autocorr(cfg: RunConfig):
    s = build_state(cfg.j, 0.0, _params(cfg), cfg.tail_tol)
    t = _t_grid(cfg)
    return ["t", "re", "im", "abs2"], _amplitude_rows(t, channel_amplitudes(s, 1, t)[:, 0])


def _rows_survival(cfg: RunConfig):
    s = build_state(cfg.j, 0.0, _params(cfg), cfg.tail_tol)
    t = _t_grid(cfg)
    p = channel_amplitudes(s, cfg.q, t)[:, cfg.delta]
    return ["t", "re", "im", "abs2"], _amplitude_rows(t, p)


def _rows_survival_intensity(cfg: RunConfig):
    s = build_state(cfg.j, 0.0, _params(cfg), cfg.tail_tol)
    t = _t_grid(cfg)
    abs2 = _intensities(channel_amplitudes(s, 1, t)[:, 0])
    p = channel_amplitudes(s, cfg.q, t)
    rows = list(zip(t, abs2, _diagonal(p), _interference(p)))
    return ["t", "abs2", "diagonal", "interference"], rows


def _rows_unity(cfg: RunConfig):
    p = _params(cfg)
    qc = QuadratureConfig(abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol)
    rows = []
    for n in range(cfg.n_max + 1):
        rep = moment_check(n, p, qc)
        rows.append((n, rep.integral, rep.rho_n, rep.rel_err))
    return ["n", "integral", "rho_n", "rel_err"], rows


def _rows_overlap(cfg: RunConfig):
    # non-orthogonality profile: <J,0|J',0> as J' sweeps (0, 2J]
    p = _params(cfg)
    s1 = build_state(cfg.j, 0.0, p, cfg.tail_tol)
    rows = []
    for j2 in _sweep_grid(2.0 * cfg.j, cfg.points):
        s2 = build_state(float(j2), 0.0, p, cfg.tail_tol)
        v = overlap(s1, s2)
        rows.append((j2, v.real, v.imag, abs(v) ** 2))
    return ["j2", "re", "im", "abs2"], rows


def _rows_timescales(cfg: RunConfig):
    p = _params(cfg)
    s = build_state(cfg.j, 0.0, p, cfg.tail_tol)
    n_bar = mean_n(s)
    ts = time_scales(n_bar, p)
    ratio = ts.t_revival / ts.t_classical
    return (
        ["j", "mu", "alpha", "n_bar", "t_classical", "t_revival", "ratio"],
        [(cfg.j, cfg.mu, cfg.alpha, n_bar, ts.t_classical, ts.t_revival, ratio)],
    )


_ROWBUILDERS = {
    "weights": _rows_weights,
    "mandel": _rows_mandel,
    "autocorr": _rows_autocorr,
    "survival": _rows_survival,
    "survival-intensity": _rows_survival_intensity,
    "unity": _rows_unity,
    "overlap": _rows_overlap,
    "timescales": _rows_timescales,
}


def _validate(cfg: RunConfig) -> Optional[str]:
    if cfg.command not in _ROWBUILDERS:
        return f"unknown command {cfg.command!r}"
    if not (math.isfinite(cfg.j) and cfg.j >= 0.0):
        return f"--j must be finite and >= 0, got {cfg.j}"
    if not (math.isfinite(cfg.mu) and cfg.mu > 0.0):
        return f"--mu must be > 0, got {cfg.mu}"
    if not (math.isfinite(cfg.alpha) and cfg.alpha > 0.0):
        return f"--alpha must be > 0, got {cfg.alpha}"
    if cfg.points < 2:
        return f"--points must be >= 2, got {cfg.points}"
    if not cfg.t_max > 0.0:
        return f"--t-max must be > 0, got {cfg.t_max}"
    if cfg.q < 2:
        return f"--q must be >= 2, got {cfg.q}"
    if not 0 <= cfg.delta < cfg.q:
        return f"--delta must lie in [0, q), got {cfg.delta}"
    if not 0 <= cfg.n_max <= 20:
        return f"--n-max must lie in [0, 20], got {cfg.n_max}"
    if not cfg.j_max > 0.0:
        return f"--j-max must be > 0, got {cfg.j_max}"
    if not 0.0 < cfg.tail_tol <= 1e-6:
        return f"--tail-tol must lie in (0, 1e-6], got {cfg.tail_tol}"
    if not (cfg.abs_tol > 0.0 and cfg.rel_tol > 0.0):
        return "--abs-tol and --rel-tol must be > 0"
    if cfg.command == "overlap" and cfg.j == 0.0:
        return "--j must be > 0 for overlap sweeps"
    return None


def run(cfg: RunConfig) -> int:
    """Execute one command, writing the dataset to cfg.out_path ('-' for
    standard output).  Returns the process exit code."""
    problem = _validate(cfg)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    params = {
        "command": cfg.command,
        "j": cfg.j,
        "mu": cfg.mu,
        "alpha": cfg.alpha,
        "tail_tol": cfg.tail_tol,
    }
    if cfg.command in ("autocorr", "survival", "survival-intensity"):
        params.update(t_max=cfg.t_max, points=cfg.points)
    if cfg.command in ("survival", "survival-intensity"):
        params.update(q=cfg.q)
    if cfg.command == "survival":
        params.update(delta=cfg.delta)
    if cfg.command in ("mandel", "overlap"):
        params.update(points=cfg.points)
    if cfg.command == "mandel":
        params.update(j_max=cfg.j_max)
    if cfg.command == "unity":
        params.update(n_max=cfg.n_max, abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol)
    if cfg.figure is not None:
        params.update(figure=cfg.figure)

    try:
        header, rows = _ROWBUILDERS[cfg.command](cfg)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if cfg.out_path == "-":
        write_dataset(sys.stdout, params, header, rows)
    else:
        with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
            write_dataset(fh, params, header, rows)
    return 0


def _mu_tag(mu: float) -> str:
    return str(int(mu)) if float(mu).is_integer() else str(mu).replace(".", "p")


def figure_bundle(figure_id: int, out_dir: str, tail_tol: float = RunConfig.tail_tol,
                  points: int = RunConfig.points) -> list:
    """Write the CSV datasets behind one figure (1..7) into out_dir.

    Returns the list of file paths written.  Raises ValueError for an
    unknown figure id; numerical failures propagate as in run().
    """
    import os

    if figure_id not in range(1, 8):
        raise ValueError(f"figure id must lie in 1..7, got {figure_id}")
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    base = dict(j=10.0, alpha=1.0, tail_tol=tail_tol, points=points, figure=figure_id)
    if figure_id == 1:
        for mu in (28.0, 80.0):
            jobs.append((RunConfig(command="weights", mu=mu, **base),
                         f"fig1_weights_mu{_mu_tag(mu)}.csv"))
    elif figure_id == 2:
        for mu in (28.0, 80.0):
            jobs.append((RunConfig(command="mandel", mu=mu, j_max=20.0, **base),
                         f"fig2_mandel_mu{_mu_tag(mu)}.csv"))
    elif figure_id == 3:
        for mu in (1.0, 28.0, 80.0):
            jobs.append((RunConfig(command="autocorr", mu=mu, t_max=1.0, **base),
                         f"fig3_autocorr_mu{_mu_tag(mu)}.csv"))
    elif figure_id in (4, 5):
        mu = 28.0 if figure_id == 4 else 80.0
        for delta in range(4):
            jobs.append((RunConfig(command="survival", mu=mu, q=4, delta=delta,
                                   t_max=1.0, **base),
                         f"fig{figure_id}_survival_mu{_mu_tag(mu)}_delta{delta}.csv"))
    else:
        for mu in (28.0, 80.0):
            jobs.append((RunConfig(command="survival-intensity", mu=mu, q=4,
                                   t_max=1.0, **base),
                         f"fig{figure_id}_survival_intensity_mu{_mu_tag(mu)}.csv"))

    written = []
    for cfg, name in jobs:
        path = os.path.join(out_dir, name)
        code = run(RunConfig(**{**cfg.__dict__, "out_path": path}))
        if code != 0:
            raise ConvergenceError(f"figure {figure_id}: {name} failed with code {code}")
        written.append(path)
        print(f"wrote {path}", file=sys.stderr)
    return written


# Every flag default is read from RunConfig, so it is written once.
def _add_common(sp, *, t_flags: bool = False, q_flags: bool = False) -> None:
    sp.add_argument("--j", type=float, default=RunConfig.j, help="action label J")
    sp.add_argument("--mu", type=float, default=RunConfig.mu, help="deformation parameter mu")
    sp.add_argument("--alpha", type=float, default=RunConfig.alpha, help="angular frequency")
    sp.add_argument("--tail-tol", type=float, default=RunConfig.tail_tol,
                    help="weight tail cutoff, in (0, 1e-6]")
    sp.add_argument("--out", default=RunConfig.out_path, help="output path, '-' for stdout")
    if t_flags:
        sp.add_argument("--t-max", type=float, default=RunConfig.t_max,
                        help="grid end in revival-time units")
        sp.add_argument("--points", type=int, default=RunConfig.points, help="grid size")
    if q_flags:
        sp.add_argument("--q", type=int, default=RunConfig.q, help="revival order")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gkrevival",
        description="Coherent-state revival datasets for the quadratic ladder "
        "e_n = n(n+mu)/mu, as CSV.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("weights", help="number distribution w_n"))

    sp = sub.add_parser("mandel", help="Mandel Q over a J sweep")
    _add_common(sp)
    sp.add_argument("--j-max", type=float, default=RunConfig.j_max, help="sweep end (0, j_max]")
    sp.add_argument("--points", type=int, default=RunConfig.points, help="sweep size")

    _add_common(sub.add_parser("autocorr", help="|A(t)|^2 series"), t_flags=True)

    sp = sub.add_parser("survival", help="one channel P_delta(t)")
    _add_common(sp, t_flags=True, q_flags=True)
    sp.add_argument("--delta", type=int, default=RunConfig.delta, help="residue class in [0, q)")

    _add_common(
        sub.add_parser("survival-intensity", help="|A|^2 split into diagonal + interference"),
        t_flags=True, q_flags=True,
    )

    sp = sub.add_parser("unity", help="moment checks of the measure density")
    _add_common(sp)
    sp.add_argument("--n-max", type=int, default=RunConfig.n_max, help="check moments 0..n_max")
    sp.add_argument("--abs-tol", type=float, default=RunConfig.abs_tol)
    sp.add_argument("--rel-tol", type=float, default=RunConfig.rel_tol)

    sp = sub.add_parser("overlap", help="<J,0|J',0> as J' sweeps (0, 2J]")
    _add_common(sp)
    sp.add_argument("--points", type=int, default=RunConfig.points, help="sweep size")

    _add_common(sub.add_parser("timescales", help="classical period and revival time"))

    sp = sub.add_parser("figure", help="write every dataset behind one figure")
    sp.add_argument("--id", type=int, required=True, help="figure number, 1..7")
    sp.add_argument("--out-dir", required=True, help="target directory")
    sp.add_argument("--tail-tol", type=float, default=RunConfig.tail_tol)
    sp.add_argument("--points", type=int, default=RunConfig.points)
    return ap


def _config_from(ns: argparse.Namespace) -> RunConfig:
    kw = {k: v for k, v in vars(ns).items() if k != "command"}
    kw["out_path"] = kw.pop("out")
    return RunConfig(command=ns.command, **kw)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.command == "figure":
        try:
            figure_bundle(ns.id, ns.out_dir, tail_tol=ns.tail_tol, points=ns.points)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ConvergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        return 0
    return run(_config_from(ns))


if __name__ == "__main__":
    sys.exit(main())
