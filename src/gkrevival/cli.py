"""Command-line surface: every analysis as a reproducible CSV dataset.

Output format, identical for every command:

    # key=value key=value ...        (all parameters, keys sorted)
    col1,col2,...                    (header row)
    <data rows>

Floating values are printed with 17 significant digits so that datasets
round-trip losslessly and identical flag sets produce byte-identical
files.  Diagnostics go to stderr, never into the CSV.  Exit codes:
0 success, 2 bad flag or unwritable output, 3 numerical non-convergence.

Commands: weights, mandel, autocorr, survival, survival-intensity,
unity, overlap, timescales, figure.  A flag is one `RunConfig` field;
its `_FLAGS` entry carries its default, help line and accepted range.
A dataset command takes exactly the fields its rows read, which its
`_COMMANDS` entry names, plus --out; its preamble records those fields
and `_COMMON`, so a field it does not take is recorded at its default.
`_FIGURES` lists each figure's datasets.
Times are given and reported in revival-time units; `timescales`
reports the physical conversion.

A command executes only the modules it runs; `import gkrevival` runs
`specfun` and `spectrum`, and this module imports no NumPy.  So
`timescales`, `mandel` and `figure --id 2` (two `mandel` sweeps) execute
no other package module and never load NumPy: NumPy is imported inside
functions only in `specfun`, which `import gkrevival` executes, and the
grids come from `_linspace`, which reproduces np.linspace bit for bit.
Every other command executes a module that imports NumPy.  Nor do the
three load `dataclasses`, and with it `inspect`, `ast`, `dis` and
`tokenize`: `RunConfig`, `SpectrumParams` and `TimeScales` are records
on `spectrum._Record`, and this module imports no `typing`.  `_main`
gives flags only to the subparser of the command it runs, where
`build_parser` gives every subparser its flags.

`main` runs with the cyclic garbage collector disabled, restores the
caller's setting on return, and registers ``gc.freeze`` as one exit
hook.  The console script and ``python -m gkrevival.cli`` call
`_script`, which is `main` without the restore: the process exits next,
and a collector switched back on would collect at its next allocation,
over everything the command allocated.
At interpreter exit the hook moves every live object into the
collector's permanent generation, so the final collection skips the
module objects of NumPy and this package.  Nothing is lost: a command's
lists, tuples, arrays and records hold no reference cycles,
so reference counting frees them with the collector off (the cyclic
garbage that imports leave is never collected in a CLI process, and in
a library caller waits for the first collection after `main` returns),
the CSV file is closed by its ``with`` block and the standard streams
are flushed by the interpreter, not by a collection.  What it saves is
the collections that ran while NumPy executed and most of the exit's
collection.  `run` and `figure_bundle`, called as a library, leave the
collector alone.
"""

import argparse
import atexit
import functools
import gc
import math
import numbers
import os
import sys

from . import gkstate, measure, revival
from .specfun import ConvergenceError
from .spectrum import (_ABS_TOL, _MAX_N, _REL_TOL, _TAIL_TOL, _TAIL_TOL_MAX, SpectrumParams,
                       _mandel_q, _mean_n, _Record, time_scales)

__all__ = [
    "RunConfig",
    "run",
    "figure_bundle",
    "write_dataset",
    "read_dataset",
    "build_parser",
    "main",
]


def _option(name: str) -> str:
    return "--out" if name == "out_path" else "--" + name.replace("_", "-")


def _flag(default, help_line: str, *bounds):
    # a flag's one declaration: its default, its --help line and the
    # bounds its value must keep, each a (test, requirement) pair
    return default, help_line, bounds


def _within(lo, hi):
    # an integer range as two bounds, each named on its own
    return ((lambda v: v >= lo), f"be >= {lo}"), ((lambda v: v <= hi), f"be <= {hi}")


def _positive(need: str = "be finite and > 0"):
    return (lambda v: 0.0 < v < math.inf), need


# every RunConfig field but command and figure, in field order
_FLAGS = {
    "j": _flag(10.0, "action label J", ((lambda v: 0.0 <= v < math.inf), "be finite and >= 0")),
    "mu": _flag(28.0, "deformation parameter mu", _positive("be > 0")),
    "alpha": _flag(1.0, "angular frequency", _positive("be > 0")),
    # n % q on int64 channel offsets overflows past 2**63 - 1
    "q": _flag(4, "revival order", *_within(2, 2**63 - 1)),
    "delta": _flag(0, "residue class in [0, q)", ((lambda v: v >= 0), "lie in [0, q)")),
    "t_max": _flag(1.0, "grid end in revival-time units", _positive()),
    # at 10**6 points autocorr and survival-intensity peak near 0.9 GB, within 1 GiB
    "points": _flag(2001, "grid or sweep size", *_within(2, 10**6)),
    "n_max": _flag(5, "check moments 0..n_max",
                   ((lambda v: 0 <= v <= _MAX_N), f"lie in [0, {_MAX_N}]")),
    "j_max": _flag(20.0, "sweep end (0, j_max]", _positive()),
    "tail_tol": _flag(_TAIL_TOL, "weight tail cutoff, in (0, 1e-6]",
                      ((lambda v: 0.0 < v <= _TAIL_TOL_MAX), "lie in (0, 1e-6]")),
    "abs_tol": _flag(_ABS_TOL, "quadrature absolute tolerance", _positive()),
    "rel_tol": _flag(_REL_TOL, "quadrature relative tolerance", _positive()),
    "out_path": _flag("-", "output path, '-' for stdout"),
}


class RunConfig(_Record):
    """One fully validated invocation.  A command reads only the fields
    its `_COMMANDS` entry names and takes only those as flags; the
    preamble also records `_COMMON`.  Every flag is a keyword whose
    default is the class attribute of its name.  Construction raises
    TypeError for an unknown keyword, then ValueError for an unknown
    command, then for the first field outside its declared range, then
    for delta >= q or an overlap sweep at J = 0."""

    _fields = ("command", *_FLAGS, "figure")
    figure = None

    def __init__(self, command: str, *, figure: int | None = None, **flags):
        for name in flags:
            if name not in _FLAGS:
                raise TypeError(
                    f"RunConfig.__init__() got an unexpected keyword argument {name!r}")
        if command not in _COMMANDS:
            raise ValueError(f"unknown command {command!r}")
        values = {"command": command}
        for name, (default, _, bounds) in _FLAGS.items():
            v = values[name] = flags.get(name, default)
            for test, need in bounds:
                if not test(v):
                    raise ValueError(f"{_option(name)} must {need}, got {v}")
        if values["delta"] >= values["q"]:
            raise ValueError(f"--delta must lie in [0, q), got {values['delta']}")
        if command == "overlap" and values["j"] == 0.0:
            raise ValueError("--j must be > 0 for overlap sweeps")
        values["figure"] = figure
        self.__dict__.update(values)


# the class-level defaults: RunConfig.points and the like
for _name, (_default, _, _) in _FLAGS.items():
    setattr(RunConfig, _name, _default)


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
    s = gkstate.build_state(cfg.j, 0.0, SpectrumParams(cfg.mu), cfg.tail_tol)
    return ["n", "weight"], list(enumerate(gkstate.weights(s).tolist()))


def _rows_mandel(cfg: RunConfig):
    # the closed form in (J, mu): no state per sweep point
    rows = [(j, _mandel_q(j, cfg.mu)) for j in _sweep_grid(cfg.j_max, cfg.points)]
    return ["j", "mandel_q"], rows


def _channel_rows(cfg: RunConfig, q: int, delta: int):
    # P_delta(t) of modulus q on the time grid: A(t) for q = 1, delta = 0
    s = gkstate.build_state(cfg.j, 0.0, SpectrumParams(cfg.mu), cfg.tail_tol)
    t = _t_grid(cfg)
    p = revival._column(s, q, delta, t)
    return ["t", "re", "im", "abs2"], list(zip(t, p.real.tolist(), p.imag.tolist(),
                                               revival._intensities(p).tolist()))


def _rows_survival_intensity(cfg: RunConfig):
    s = gkstate.build_state(cfg.j, 0.0, SpectrumParams(cfg.mu), cfg.tail_tol)
    t = _t_grid(cfg)
    abs2, diag, cross = revival.intensity_split(s, cfg.q, t)
    rows = list(zip(t, abs2.tolist(), diag.tolist(), cross.tolist()))
    return ["t", "abs2", "diagonal", "interference"], rows


def _rows_unity(cfg: RunConfig):
    p = SpectrumParams(cfg.mu)
    qc = measure.QuadratureConfig(abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol)
    reps = measure.moment_checks(range(cfg.n_max + 1), p, qc)
    rows = [(r.n, r.integral, r.rho_n, r.rel_err) for r in reps]
    return ["n", "integral", "rho_n", "rel_err"], rows


def _rows_overlap(cfg: RunConfig):
    # non-orthogonality profile: <J,0|J',0> as J' sweeps (0, 2J], in one
    # overlap call, which takes the partners in batches as they are built
    p = SpectrumParams(cfg.mu)
    s1 = gkstate.build_state(cfg.j, 0.0, p, cfg.tail_tol)
    grid = _sweep_grid(2.0 * cfg.j, cfg.points)
    values = gkstate.overlap(s1, (gkstate.build_state(j2, 0.0, p, cfg.tail_tol) for j2 in grid))
    return ["j2", "re", "im", "abs2"], [(j2, v.real, v.imag, abs(v) ** 2)
                                        for j2, v in zip(grid, values)]


def _rows_timescales(cfg: RunConfig):
    p = SpectrumParams(cfg.mu, cfg.alpha)
    n_bar = _mean_n(cfg.j, cfg.mu)
    ts = time_scales(n_bar, p)
    ratio = ts.t_revival / ts.t_classical
    return (
        ["j", "mu", "alpha", "n_bar", "t_classical", "t_revival", "ratio"],
        [(cfg.j, cfg.mu, cfg.alpha, n_bar, ts.t_classical, ts.t_revival, ratio)],
    )


_STATE = ("j", "mu", "tail_tol")  # the fields a state is built from
# Each command's row builder, its help line and every RunConfig field its
# rows read: its flags besides --out, and with _COMMON its preamble's keys.
_COMMANDS = {
    "weights": (_rows_weights, "number distribution w_n", _STATE),
    "mandel": (_rows_mandel, "Mandel Q over a J sweep", ("mu", "j_max", "points")),
    "autocorr": (lambda cfg: _channel_rows(cfg, 1, 0), "|A(t)|^2 series",
                 _STATE + ("t_max", "points")),
    "survival": (lambda cfg: _channel_rows(cfg, cfg.q, cfg.delta), "one channel P_delta(t)",
                 _STATE + ("t_max", "points", "q", "delta")),
    "survival-intensity": (_rows_survival_intensity, "|A|^2 split into diagonal + interference",
                           _STATE + ("t_max", "points", "q")),
    "unity": (_rows_unity, "moment checks of the measure density",
              ("mu", "n_max", "abs_tol", "rel_tol")),
    "overlap": (_rows_overlap, "<J,0|J',0> as J' sweeps (0, 2J]", _STATE + ("points",)),
    "timescales": (_rows_timescales, "classical period and revival time", ("j", "mu", "alpha")),
}
# recorded in every preamble, also where the command does not read them
_COMMON = ("j", "mu", "alpha", "tail_tol")

def _exit_code(action, *args) -> int:
    """Call action(*args) and return the process exit code: the one it
    returns, else 0, or 2 for a ValueError or OSError and 3 for a
    ConvergenceError, whose message goes to stderr."""
    try:
        code = action(*args)
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ConvergenceError) else 2
    return code if isinstance(code, int) else 0


def _write(cfg: RunConfig) -> None:
    """run() without the exit-code mapping: failures raise."""
    build, _, flags = _COMMANDS[cfg.command]
    params = {k: getattr(cfg, k) for k in ("command",) + _COMMON + flags}
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
# figure_bundle's flags; each figure takes those its command reads
_FIGURE_FLAGS = ("tail_tol", "points")


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
    os.makedirs(out_dir, exist_ok=True)
    for cfg in jobs:
        _write(cfg)
        print(f"wrote {cfg.out_path}", file=sys.stderr)
    return [cfg.out_path for cfg in jobs]


def _add_flag(sp, name: str) -> None:
    # type, default and help line come from the flag's declaration
    default, help_line, _ = _FLAGS[name]
    sp.add_argument(_option(name), type=type(default), default=default, help=help_line)


def build_parser() -> argparse.ArgumentParser:
    return _parser(None)


def _parser(first) -> argparse.ArgumentParser:
    # build_parser's parser.  Where `first`, the command line's first
    # word, names a command, only that command's subparser gets flags:
    # a line that starts with a command is parsed by its subparser alone.
    every = first not in _COMMANDS and first != "figure"
    ap = argparse.ArgumentParser(
        prog="gkrevival",
        description="Coherent-state revival datasets for the quadratic ladder "
        "e_n = n(n+mu)/mu, as CSV.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_line, flags) in _COMMANDS.items():
        # no abbreviations: mandel's --j would otherwise mean --j-max
        sp = sub.add_parser(command, help=help_line, allow_abbrev=False)
        if every or command == first:
            for name in flags + ("out_path",):
                _add_flag(sp, name)

    sp = sub.add_parser("figure", help="write every dataset behind one figure", allow_abbrev=False)
    if every or first == "figure":
        sp.add_argument("--id", type=int, required=True, help="figure number, 1..7")
        sp.add_argument("--out-dir", required=True, help="target directory")
        for name in _FIGURE_FLAGS:
            _add_flag(sp, name)
        # None marks a flag not given: a figure refuses one its datasets do not read
        sp.set_defaults(**dict.fromkeys(_FIGURE_FLAGS))
    return ap


def _figure(figure_id: int, out_dir: str, given: dict) -> list:
    # figure_bundle for the command line, which takes only the flags the
    # figure's datasets read
    if figure_id in _FIGURES:
        reads = _COMMANDS[_FIGURES[figure_id][0]][2]
        for name in given:
            if name not in reads:
                raise ValueError(f"{_option(name)} is not read by figure {figure_id}")
    return figure_bundle(figure_id, out_dir, **given)


@functools.cache
def _freeze_at_exit() -> None:
    # once per process: atexit.unregister leaves its slot behind, so an
    # unregister and register on every call would add a slot each time
    atexit.register(gc.freeze)


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    kw = vars(ns)
    if ns.command == "figure":
        given = {k: kw[k] for k in _FIGURE_FLAGS if kw[k] is not None}
        return _exit_code(_figure, ns.id, ns.out_dir, given)
    kw["out_path"] = kw.pop("out")
    return _exit_code(lambda: run(RunConfig(**kw)))


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its
    exit code, with the cyclic collector off until it returns and
    ``gc.freeze`` registered once as an exit hook (see the module
    docstring)."""
    enabled = gc.isenabled()
    try:
        return _script(argv)
    finally:
        if enabled:
            gc.enable()


def _script(argv=None) -> int:
    # main for a process that exits when it returns, the console script
    # and python -m gkrevival.cli: the collector stays off
    gc.disable()
    _freeze_at_exit()
    return _main(argv)


if __name__ == "__main__":
    sys.exit(_script())
