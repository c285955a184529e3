"""CLI tests: dataset schema, determinism, exit codes, figure bundles,
the state-free sweep rows against the state path, the pure-Python grids
against np.linspace, the column-wise CSV writer against a per-cell
oracle, round-tripping through the bundled reader, random dataset
commands in a child with 1 GiB of address space, and the input contract
of overlap, weights, autocorr, survival, survival-intensity, mandel,
timescales, unity and figure over every value their flags accept."""

import argparse
import atexit
import contextlib
import gc
import io
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkrevival import _dd, specfun
from gkrevival.cli import (
    _COMMANDS,
    _COMMON,
    _FIGURE_FLAGS,
    _FIGURES,
    _FLAGS,
    RunConfig,
    _rows_mandel,
    _rows_timescales,
    _sweep_grid,
    _t_grid,
    build_parser,
    figure_bundle,
    main,
    read_dataset,
    run,
    write_dataset,
)
from gkrevival.gkstate import build_state, mandel_q, mean_n
from gkrevival.spectrum import SpectrumParams, time_scales


def _lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_weights_schema(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["weights", "--j", "10", "--mu", "28", "--out", str(out)]) == 0
    lines = _lines(str(out))
    assert lines[0].startswith("# ")
    assert "command=weights" in lines[0] and "j=10" in lines[0]
    assert lines[1] == "n,weight"
    params, header, rows = read_dataset(str(out))
    assert header == ["n", "weight"]
    assert params["mu"] == 28.0
    total = sum(r[1] for r in rows)
    assert abs(total - 1.0) < 1e-10
    assert rows[0][0] == 0.0


def test_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["autocorr", "--j", "10", "--mu", "1", "--t-max", "1", "--points", "101"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_autocorr_full_revival(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["autocorr", "--j", "10", "--mu", "1", "--points", "41",
                 "--out", str(out)]) == 0
    params, header, rows = read_dataset(str(out))
    assert header == ["t", "re", "im", "abs2"]
    assert abs(rows[0][3] - 1.0) < 1e-12
    assert abs(rows[-1][3] - 1.0) < 1e-12
    assert rows[-1][0] == 1.0


def test_stdout_output(capsys):
    assert main(["timescales", "--j", "10", "--mu", "28"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "j,mu,alpha,n_bar,t_classical,t_revival,ratio"
    row = [float(v) for v in lines[2].split(",")]
    # ratio = t_rev / T_cl = 2 n_bar + mu
    assert abs(row[6] - (2.0 * row[3] + 28.0)) < 1e-9


def test_mandel_sweep_negative(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["mandel", "--mu", "28", "--points", "25", "--out", str(out)]) == 0
    _, header, rows = read_dataset(str(out))
    assert header == ["j", "mandel_q"]
    assert len(rows) == 25
    assert rows[0][0] > 0.0 and rows[-1][0] == 20.0
    assert all(r[1] < 0.0 for r in rows)


def test_unity_rows(tmp_path):
    out = tmp_path / "u.csv"
    assert main(["unity", "--mu", "2", "--n-max", "5", "--out", str(out)]) == 0
    _, header, rows = read_dataset(str(out))
    assert header == ["n", "integral", "rho_n", "rel_err"]
    assert len(rows) == 6
    assert all(r[3] < 1e-6 for r in rows)


@pytest.mark.parametrize("abs_tol", ["1e-321", "5e-324"])
def test_unity_tiny_abs_tol(abs_tol, tmp_path):
    # abs_tol times the window cutoff's 1e-3 underflows to 0 here, whose
    # log failed (exit 2); the cutoff is a sum of logs
    out = tmp_path / "u.csv"
    assert main(["unity", "--abs-tol", abs_tol, "--out", str(out)]) == 0
    _, _, rows = read_dataset(str(out))
    assert len(rows) == 6 and all(math.isfinite(v) and r[3] < 1e-6 for r in rows for v in r)


def test_overlap_sweep(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["overlap", "--j", "10", "--mu", "28", "--points", "20",
                 "--out", str(out)]) == 0
    _, header, rows = read_dataset(str(out))
    assert header == ["j2", "re", "im", "abs2"]
    assert len(rows) == 20 and rows[-1][0] == 20.0
    # the sweep crosses J' = J where the overlap is exactly 1
    mid = [r for r in rows if abs(r[0] - 10.0) < 1e-12]
    assert mid and abs(mid[0][3] - 1.0) < 1e-10


@pytest.mark.parametrize(
    "args",
    [
        ["weights", "--j", "-5"],
        ["weights", "--tail-tol", "0.5"],
        ["autocorr", "--points", "1"],
        ["autocorr", "--t-max", "0"],
        ["survival", "--q", "1"],
        ["survival", "--q", "4", "--delta", "7"],
        ["unity", "--n-max", "40"],
        ["mandel", "--mu", "-3"],
        ["mandel", "--j-max", "0"],
        [],
        ["nope"],
        ["weights", "--bogus", "1"],
        ["unity", "--mu", "1e308", "--n-max", "1"],
        ["autocorr", "--t-max", "inf"],
        ["mandel", "--j-max", "inf"],
        ["unity", "--abs-tol", "inf"],
        ["unity", "--mu", "1e-200", "--n-max", "2"],
    ],
)
def test_validation_exit_2(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    # diagnostics never land on stdout
    assert "error" not in captured.out.lower()


_TINY, _HUGE = 5e-324, 1.7976931348623157e308
# every ranged RunConfig field: a command that takes it, each end of its
# range and the next value past that end
_RANGES = [
    ("j", "weights", 0.0, -_TINY), ("j", "weights", _HUGE, math.inf),
    ("mu", "weights", _TINY, 0.0), ("mu", "weights", _HUGE, math.inf),
    ("alpha", "timescales", _TINY, 0.0), ("alpha", "timescales", _HUGE, math.inf),
    ("q", "survival-intensity", 2, 1),
    ("q", "survival-intensity", 2**63 - 1, 2**63),
    ("delta", "survival", 0, -1), ("delta", "survival", 3, 4),
    ("t_max", "autocorr", _TINY, 0.0), ("t_max", "autocorr", _HUGE, math.inf),
    ("points", "autocorr", 2, 1), ("points", "autocorr", 10**6, 10**6 + 1),
    ("n_max", "unity", 0, -1), ("n_max", "unity", 20, 21),
    ("j_max", "mandel", _TINY, 0.0), ("j_max", "mandel", _HUGE, math.inf),
    ("tail_tol", "weights", _TINY, 0.0),
    ("tail_tol", "weights", 1e-6, math.nextafter(1e-6, 1.0)),
    ("abs_tol", "unity", _TINY, 0.0), ("abs_tol", "unity", _HUGE, math.inf),
    ("rel_tol", "unity", _TINY, 0.0), ("rel_tol", "unity", _HUGE, math.inf),
]


def test_ranges_cover_every_bounded_field():
    bounded = {name for name, (_, _, bounds) in _FLAGS.items() if bounds}
    assert bounded == {name for name, *_ in _RANGES}


@pytest.mark.parametrize("name,command,edge,out", _RANGES)
def test_range_edges(name, command, edge, out, tmp_path, capsys):
    flag = "--" + name.replace("_", "-")
    RunConfig(command=command, **{name: edge})
    with pytest.raises(ValueError, match=flag):
        RunConfig(command=command, **{name: out})
    path = tmp_path / "d.csv"
    assert main([command, f"{flag}={out!r}", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {flag} ")
    assert captured.err.count("\n") == 1 and not path.exists()


def test_cross_field_checks():
    with pytest.raises(ValueError, match="unknown command"):
        RunConfig(command="figure")
    with pytest.raises(ValueError, match="--delta"):
        RunConfig(command="survival", q=2**63 - 1, delta=2**63 - 1)
    with pytest.raises(ValueError, match="overlap"):
        RunConfig(command="overlap", j=0.0)
    RunConfig(command="weights", j=0.0)


@pytest.mark.parametrize("flags", [["--points", "1"], ["--tail-tol", "0.5"]])
def test_figure_validation_exit_2(flags, tmp_path, capsys):
    # a bad flag is reported before the output directory is created
    d = tmp_path / "figs"
    assert main(["figure", "--id", "3", "--out-dir", str(d)] + flags) == 2
    assert not d.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


def test_unwritable_out_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "t.csv"
    assert main(["timescales", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and not out.parent.exists()


def test_unwritable_out_dir_exit_2(tmp_path, capsys):
    # the directory would lie below a regular file
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    assert main(["figure", "--id", "2", "--out-dir", str(blocker / "figs")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and blocker.read_text() == "kept\n"


_PREAMBLE_KEYS = {
    "weights": {"alpha", "command", "j", "mu", "tail_tol"},
    "mandel": {"alpha", "command", "j", "j_max", "mu", "points", "tail_tol"},
    "autocorr": {"alpha", "command", "j", "mu", "points", "t_max", "tail_tol"},
    "survival": {"alpha", "command", "delta", "j", "mu", "points", "q", "t_max", "tail_tol"},
    "survival-intensity": {"alpha", "command", "j", "mu", "points", "q", "t_max", "tail_tol"},
    "unity": {"abs_tol", "alpha", "command", "j", "mu", "n_max", "rel_tol", "tail_tol"},
    "overlap": {"alpha", "command", "j", "mu", "points", "tail_tol"},
    "timescales": {"alpha", "command", "j", "mu", "tail_tol"},
}


@pytest.mark.parametrize("command", sorted(_PREAMBLE_KEYS))
def test_preamble_keys(command, tmp_path):
    out = tmp_path / "d.csv"
    assert run(RunConfig(command=command, points=3, n_max=0, out_path=str(out))) == 0
    params, _, _ = read_dataset(str(out))
    assert set(params) == _PREAMBLE_KEYS[command]
    assert params["command"] == command


def _subparsers():
    """build_parser()'s subparser of each command."""
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "weights"], ["bogus"], ["--j", "3", "weights"], ["--", "weights"],
    *([command, "--help"] for command in [*_COMMANDS, "figure"]),
    ["weights", "--bogus"], ["mandel", "--j", "3"], ["survival", "--q"], ["figure"],
    ["figure", "--id", "x", "--out-dir", "d"], ["timescales", "--out"],
])
def test_main_prints_what_build_parser_prints(argv, capsys):
    # main gives only the invoked command's subparser flags: its help
    # text, usage errors and exit codes are build_parser()'s
    code = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert (code, got.out, got.err) == (exc.value.code or 0, want.out, want.err)
    assert got.out or got.err


# a small invocation of every dataset command, and another in-range value
# of every field it may read
_BASE = {"points": 5, "n_max": 2}
_OTHER = {"j": 3.0, "mu": 5.5, "alpha": 2.0, "tail_tol": 1e-6, "q": 3, "delta": 1,
          "t_max": 0.5, "points": 4, "n_max": 1, "j_max": 7.0, "abs_tol": 1e-3,
          "rel_tol": 1e-2}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_flags_are_the_fields_the_rows_read(command, tmp_path, capsys):
    # every flag changes the rows, and every _COMMON field without a flag
    # leaves them byte-identical and is refused on the command line
    out = tmp_path / "d.csv"

    def rows(**field):
        assert run(RunConfig(command, **{**_BASE, **field}, out_path=str(out))) == 0
        return out.read_bytes().split(b"\n", 1)[1]

    base = rows()
    flags = {a.dest for a in _subparsers()[command]._actions} - {"help", "out"}
    assert flags <= set(_OTHER)
    for name in flags:
        assert rows(**{name: _OTHER[name]}) != base, name
    out.unlink()
    for name in sorted(set(_COMMON) - flags):
        assert rows(**{name: _OTHER[name]}) == base, name
        out.unlink()
        flag = "--" + name.replace("_", "-")
        assert main([command, flag, repr(_OTHER[name]), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err and not out.exists()


def test_nonconvergence_exit_3(capsys):
    code = main(["unity", "--mu", "2", "--n-max", "3",
                 "--abs-tol", "1e-300", "--rel-tol", "1e-300"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "converge" in captured.err


def test_large_mu_unity_exit_3(monkeypatch, capsys):
    # ln K at large order and tiny argument reaches the kernel's node cap
    # (lowered here to keep the test short): a loud failure rather than
    # gigabytes of trapezoid nodes
    monkeypatch.setattr(specfun, "_MAX_NODES", 1 << 20)
    assert main(["unity", "--mu", "1e5", "--n-max", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "did not converge" in captured.err


@pytest.mark.parametrize("mu", ["1e38", "1e200"])
def test_huge_mu_unity_exit_3(mu, tmp_path, capsys):
    # ln K at order and argument near mu needs more nodes than the cap
    # (1e38) or has no node step (1e200): exit 3, and no file
    out = tmp_path / "u.csv"
    assert main(["unity", "--mu", mu, "--n-max", "0", "--out", str(out)]) == 3
    assert not out.exists()
    assert "K quadrature" in capsys.readouterr().err


def test_run_config_direct(tmp_path):
    out = tmp_path / "s.csv"
    cfg = RunConfig(command="survival", mu=28.0, q=4, delta=1, points=11,
                    out_path=str(out))
    assert run(cfg) == 0
    _, header, rows = read_dataset(str(out))
    assert header == ["t", "re", "im", "abs2"]
    assert len(rows) == 11


def test_read_dataset_needs_its_parameter_line(tmp_path):
    out = tmp_path / "bare.csv"
    out.write_text("t,abs2\n0,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing parameter comment line"):
        read_dataset(str(out))


def test_figure_bundle_files(tmp_path):
    d = tmp_path / "figs"
    files = figure_bundle(1, str(d), points=51)
    assert [os.path.basename(f) for f in files] == [
        "fig1_weights_mu28.csv",
        "fig1_weights_mu80.csv",
    ]
    for f in files:
        params, header, rows = read_dataset(f)
        assert header == ["n", "weight"]
        assert params["figure"] == 1.0
        assert all(len(r) == len(header) for r in rows)


def test_figure_bundle_survival(tmp_path):
    files = figure_bundle(4, str(tmp_path), points=51)
    assert len(files) == 4
    for d, f in enumerate(files):
        params, header, rows = read_dataset(f)
        assert params["delta"] == float(d)
        assert header == ["t", "re", "im", "abs2"]
        assert len(rows) == 51


def test_figure_bundle_intensity(tmp_path):
    files = figure_bundle(6, str(tmp_path), points=41)
    assert len(files) == 2
    for f in files:
        _, header, rows = read_dataset(f)
        assert header == ["t", "abs2", "diagonal", "interference"]
        # split sums back to the intensity
        for r in rows:
            assert abs(r[1] - (r[2] + r[3])) < 1e-12


def test_figure_bundle_bad_id(tmp_path, capsys):
    with pytest.raises(ValueError):
        figure_bundle(9, str(tmp_path))
    assert main(["figure", "--id", "9", "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_figure_command(tmp_path, capsys):
    d = tmp_path / "f3"
    assert main(["figure", "--id", "3", "--out-dir", str(d), "--points", "21"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    names = sorted(os.listdir(d))
    assert names == [
        "fig3_autocorr_mu1.csv",
        "fig3_autocorr_mu28.csv",
        "fig3_autocorr_mu80.csv",
    ]


@pytest.mark.parametrize("name", _FIGURE_FLAGS)
@pytest.mark.parametrize("figure_id", sorted(_FIGURES))
def test_figure_takes_the_flags_its_datasets_read(figure_id, name, tmp_path, capsys):
    # a flag the figure's command reads changes at least one row of its
    # files; any other is refused with one error line, and no directory
    reads = _COMMANDS[_FIGURES[figure_id][0]][2]
    flag = "--" + name.replace("_", "-")

    def rows(out, **flags):
        args = ["figure", "--id", str(figure_id), "--out-dir", str(out)]
        for k, v in flags.items():
            args += ["--" + k.replace("_", "-"), repr(v)]
        code = main(args)
        return code, [f.read_bytes().split(b"\n", 1)[1] for f in sorted(out.glob("*.csv"))]

    if name not in reads:
        assert rows(tmp_path / "figs", **{name: _OTHER[name]}) == (2, [])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} is not read by figure {figure_id}\n"
        assert not (tmp_path / "figs").exists()
        return
    base = {"points": _BASE["points"]} if "points" in reads else {}
    code, got = rows(tmp_path / "a", **base)
    assert code == 0 and got
    code, other = rows(tmp_path / "b", **{**base, name: _OTHER[name]})
    assert code == 0 and other != got


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("args,code", [
    (["timescales", "--out", os.devnull], 0),
    (["timescales", "--mu", "0"], 2),
    (["timescales", "--j", "1e300"], 3),
])
def test_main_restores_the_collector(args, code, enabled, capsys):
    # whichever exit, main leaves the collector as it found it, and
    # repeated calls keep one gc.freeze exit hook
    was = gc.isenabled()
    hooks = atexit._ncallbacks()
    (gc.enable if enabled else gc.disable)()
    try:
        for _ in range(3):
            assert main(args) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert atexit._ncallbacks() <= hooks + 1
    capsys.readouterr()


def test_main_computes_without_the_collector(monkeypatch, tmp_path):
    # the rows are built with the collector off under main, and with the
    # caller's setting under run
    build, help_line, flags = _COMMANDS["timescales"]
    seen = []

    def spy(cfg):
        seen.append(gc.isenabled())
        return build(cfg)

    monkeypatch.setitem(_COMMANDS, "timescales", (spy, help_line, flags))
    assert gc.isenabled()
    assert main(["timescales", "--out", str(tmp_path / "a.csv")]) == 0
    assert run(RunConfig("timescales", out_path=str(tmp_path / "b.csv"))) == 0
    assert seen == [False, True]


def test_stdout_matches_out_file(tmp_path):
    # a fresh interpreter writes the same bytes to stdout as to --out, so
    # the gc.freeze exit hook loses no buffered output
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    args = [sys.executable, "-m", "gkrevival.cli", "autocorr", "--points", "2001"]
    out = tmp_path / "a.csv"
    to_file = subprocess.run(args + ["--out", str(out)], env=env, capture_output=True,
                             timeout=60)
    to_stdout = subprocess.run(args, env=env, capture_output=True, timeout=60)
    assert (to_file.returncode, to_stdout.returncode) == (0, 0)
    assert to_file.stdout == b"" and len(to_stdout.stdout) > 100_000
    assert to_stdout.stdout == out.read_bytes()


# Runs a command line as `python -m gkrevival.cli` does, or through the
# module:function target of a console script (argv[1] says which), and
# prints from an exit hook how often the command's _main returned and the
# generation of each collection that started after that.
_COLLECTIONS_AFTER_RETURN = """
import atexit, gc, importlib, os, runpy, sys
entry = sys.argv.pop(1)
cli = os.path.join("gkrevival", "cli.py")
returned, after = [], []

def profile(frame, event, arg):
    code = frame.f_code
    if event == "return" and code.co_name == "_main" and code.co_filename.endswith(cli):
        returned.append(True)

def collection(phase, info):
    if phase == "start" and returned:
        after.append(info["generation"])

def report():
    sys.setprofile(None)
    print(len(returned), after)

atexit.register(report)
gc.callbacks.append(collection)
sys.setprofile(profile)
if entry == "-m":
    runpy.run_module("gkrevival.cli", run_name="__main__", alter_sys=True)
else:
    module, _, name = entry.partition(":")
    sys.exit(getattr(importlib.import_module(module), name)())
"""


@pytest.mark.parametrize("entry", ["-m", "console script"])
def test_no_collection_between_return_and_exit(entry):
    # the console script and python -m leave the collector off after the
    # command: no collection starts before the exit hooks run
    if entry == "console script":
        with open(os.path.join(os.path.dirname(_SRC), "pyproject.toml"), encoding="utf-8") as fh:
            entry = re.search(r'^gkrevival = "(.+)"$', fh.read(), re.M).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _COLLECTIONS_AFTER_RETURN, entry, "weights",
                          "--out", os.devnull], env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout == "1 []\n"


# mu from integers and non-integers in [0.5, 80]
_mu = st.one_of(
    st.integers(min_value=1, max_value=80).map(float),
    st.floats(min_value=0.5, max_value=80.0).filter(lambda m: not m.is_integer()),
)


def _log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


@settings(max_examples=12, deadline=None)
@given(mu=_mu, j_max=_log_uniform(1e-3, 1e4), points=st.integers(min_value=2, max_value=300))
def test_mandel_rows_equal_state_path(mu, j_max, points):
    cfg = RunConfig(command="mandel", mu=mu, j_max=j_max, points=points)
    header, rows = _rows_mandel(cfg)
    p = SpectrumParams(mu=mu)
    grid = np.linspace(j_max / points, j_max, points)
    ref = [(j, mandel_q(build_state(float(j), 0.0, p, cfg.tail_tol))) for j in grid]
    assert header == ["j", "mandel_q"]
    assert rows == ref


@settings(max_examples=30, deadline=None)
@given(mu=_mu, j=st.one_of(st.just(0.0), _log_uniform(1e-3, 1e4)))
def test_timescales_rows_equal_state_path(mu, j):
    cfg = RunConfig(command="timescales", j=j, mu=mu)
    p = SpectrumParams(mu=mu)
    n_bar = mean_n(build_state(j, 0.0, p, cfg.tail_tol))
    ts = time_scales(n_bar, p)
    ref = (j, mu, 1.0, n_bar, ts.t_classical, ts.t_revival, ts.t_revival / ts.t_classical)
    assert _rows_timescales(cfg)[1] == [ref]


# _t_grid and _sweep_grid are the two calls of cli._linspace
def _assert_linspace_bits(got, start, stop, num):
    # near the largest double np.linspace's last point overflows before
    # it is set to stop
    with np.errstate(over="ignore"):
        want = np.linspace(start, stop, num)
    assert all(type(v) is float for v in got)
    assert np.array(got).view(np.uint64).tolist() == want.view(np.uint64).tolist()


_num = st.integers(min_value=2, max_value=5000)
# every positive finite double, and the smallest subnormals, where the
# step (upper - start) / (num - 1) underflows to 0
_upper = st.one_of(st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
                   st.floats(min_value=5e-324, max_value=1e-318))


@settings(max_examples=150, deadline=None)
@given(t_max=_upper, points=_num)
def test_t_grid_matches_numpy(t_max, points):
    got = _t_grid(RunConfig(command="autocorr", t_max=t_max, points=points))
    _assert_linspace_bits(got, 0.0, t_max, points)


@settings(max_examples=150, deadline=None)
@given(upper=_upper, points=_num)
def test_sweep_grid_matches_numpy(upper, points):
    _assert_linspace_bits(_sweep_grid(upper, points), upper / points, upper, points)


def test_sweep_grid_step_underflow(capsys):
    upper, points = 5e-324, RunConfig.points
    assert (upper - upper / points) / (points - 1) == 0.0
    _assert_linspace_bits(_sweep_grid(upper, points), upper / points, upper, points)
    # the sweep starts at J = 0, where Q is undefined
    assert main(["mandel", "--j-max", "5e-324", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: Mandel Q is undefined for the ground state (J = 0)" in captured.err


def test_timescales_without_state(tmp_path):
    # no state is built, so a J whose weight tail the truncation walk
    # cannot close within its level cap still has its closed form
    out = tmp_path / "t.csv"
    assert main(["timescales", "--j", "1e12", "--mu", "80", "--out", str(out)]) == 0
    _, _, rows = read_dataset(str(out))
    j, mu, _, n_bar, _, _, ratio = rows[0]
    assert j == 1e12 and n_bar < math.sqrt(j * mu)
    assert math.isclose(ratio, 2.0 * n_bar + mu, rel_tol=1e-12)


@pytest.mark.parametrize("args", [
    # past the ratio continued fraction's range (x = 1e8 (mu + 1)) and past
    # Q's cancellation bound (J mu = 1e12): exit 3 at once, as a state
    # walk would at its level cap, only later
    ["timescales", "--j", "1e300"],
    ["timescales", "--j", "1e20", "--mu", "80"],
    ["mandel", "--j-max", "1e11", "--mu", "80", "--points", "3"],
])
def test_closed_form_range_exit_3(args, capsys):
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


@pytest.mark.parametrize("mu", ["3e305", "8.99e306", "1.7e308"])
@pytest.mark.parametrize("command", ["weights", "autocorr", "overlap", "survival-intensity"])
def test_huge_mu_one_error_line(command, mu, tmp_path, capsys):
    # ln rho_n or the weight walk fails: exit 2 or 3 with one error line,
    # where 8.99e306 raised OverflowError (2 J mu overflowing in the peak
    # level) and left a traceback
    out = tmp_path / "h.csv"
    assert main([command, "--mu", mu, "--out", str(out)]) in (2, 3)
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_huge_order_ratio_exit_3():
    # at mu = 1e100, J = 1e110 the Lentz steps stop changing; their old
    # budget, 30 sqrt(x) at x = 2e105, was about 1e54 steps
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "gkrevival.cli", "timescales", "--mu", "1e100",
                          "--j", "1e110", "--out", os.devnull],
                         env=env, capture_output=True, text=True, timeout=30)
    assert out.returncode == 3 and out.stdout == ""
    assert out.stderr.startswith("error: ratio continued fraction") and out.stderr.count("\n") == 1


def test_phase_bound_exit_2(tmp_path, monkeypatch, capsys):
    out = tmp_path / "a.csv"
    assert main(["autocorr", "--mu", "28.3", "--t-max", "1e25", "--out", str(out)]) == 2
    assert not out.exists() and "1e+20" in capsys.readouterr().err
    # just inside the bound the rows are those computed without it
    s = build_state(10.0, 0.0, SpectrumParams(mu=28.3))
    n = float(s.n_max)
    t_in = repr(0.999 * _dd._MAX_CYCLES / (28.3 * n + n * n))
    args = ["autocorr", "--mu", "28.3", "--t-max", t_in, "--points", "9", "--out"]
    assert main(args + [str(out)]) == 0
    monkeypatch.setattr(_dd, "_MAX_CYCLES", math.inf)
    free = tmp_path / "free.csv"
    assert main(args + [str(free)]) == 0
    assert out.read_bytes() == free.read_bytes()


def _fmt_cell(v):
    if isinstance(v, (bool, str)):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _write_per_cell(stream, params, header, rows):
    # the writer before column-wise formatting: the byte oracle
    stream.write("# " + " ".join(f"{k}={_fmt_cell(params[k])}" for k in sorted(params)) + "\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt_cell(v) for v in row) + "\n")


_SPECIAL = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308, 0.1, 1e16]
_TABLES = {
    "int": [(k,) for k in (0, -3, 2**70)],
    "np.int64": [(np.int64(k),) for k in (0, -3, 2**62)],
    "float": [(v,) for v in _SPECIAL],
    "np.float64": [(np.float64(v),) for v in _SPECIAL],
    "np.float32": [(np.float32(v),) for v in (0.1, -0.0, math.inf)],
    "mixed int/float": [(1,), (1.5,), (np.int64(2),), (np.float64(-0.0),)],
    "bool cell": [(1.0, True), (2.0, 0.5)],
    "str cell": [(0.5, "x%s"), (1.5, "y")],
    "columns": [(n, np.float64(v), v, np.int64(n)) for n, v in enumerate(_SPECIAL)],
    "ragged": [(1.0, 2.0), (3.0,)],
    "zero width": [(), ()],
    "empty": [],
}


@pytest.mark.parametrize("kind", sorted(_TABLES))
def test_write_dataset_matches_per_cell(kind):
    rows = _TABLES[kind]
    params = {"command": "x", "mu": 28.5, "points": 3, "flag": True}
    header = ["a", "b", "c", "d"][: len(rows[0]) if rows else 1]
    got, want = io.StringIO(), io.StringIO()
    write_dataset(got, params, header, rows)
    _write_per_cell(want, params, header, rows)
    assert got.getvalue() == want.getvalue()
    # a generator of rows writes the same bytes
    again = io.StringIO()
    write_dataset(again, params, header, iter(rows))
    assert again.getvalue() == want.getvalue()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(width=32), st.integers()), max_size=20))
def test_write_dataset_matches_per_cell_random(rows):
    rows = [(a, np.float32(b), k) for a, b, k in rows]
    got, want = io.StringIO(), io.StringIO()
    write_dataset(got, {"k": 1}, ["a", "b", "k"], rows)
    _write_per_cell(want, {"k": 1}, ["a", "b", "k"], rows)
    assert got.getvalue() == want.getvalue()


def test_write_dataset_round_trip(tmp_path):
    rows = _TABLES["columns"]
    path = tmp_path / "d.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_dataset(fh, {"command": "x", "mu": 28.5}, ["n", "a", "b", "m"], rows)
    params, header, back = read_dataset(str(path))
    assert params == {"command": "x", "mu": 28.5}
    assert header == ["n", "a", "b", "m"]
    assert [[repr(float(v)) for v in r] for r in back] == \
        [[repr(float(v)) for v in r] for r in rows]


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(specfun.__file__)))
# Runs the CLI on its arguments in a process whose address space is capped
# at 1 GiB, so a run that would need more fails here instead of in the
# machine's OOM killer.
_LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from gkrevival.cli import main
sys.exit(main(sys.argv[1:]))
"""


_DRAWS = {
    "j": st.one_of(st.just(0.0), _log_uniform(1e-3, 1e4)),
    "mu": _log_uniform(1e-2, 1e3),
    "alpha": _log_uniform(1e-3, 1e3),
    "tail_tol": _log_uniform(1e-300, 1e-6),
    "t_max": _log_uniform(1e-3, 1e3),
    "j_max": _log_uniform(1e-3, 1e4),
    "points": st.integers(min_value=2, max_value=200),
    "q": _log_uniform(2.0, 1e7).map(int),
    "n_max": st.integers(min_value=0, max_value=20),
    "abs_tol": _log_uniform(1e-300, 1e3),
    "rel_tol": _log_uniform(1e-300, 1e3),
}


@st.composite
def _command_args(draw, command):
    # the dataset command with every flag inside its accepted range and q
    # log-uniform up to 1e7; J mu <= 1e7, so a window stays below about
    # 2000 levels, and at most 200 grid or sweep points keep each run to
    # seconds
    args = [command]
    drawn = {}
    for name in _COMMANDS[command][2]:
        if name == "delta":
            drawn[name] = draw(st.integers(min_value=0, max_value=drawn["q"] - 1))
        else:
            drawn[name] = draw(_DRAWS[name])
        args += ["--" + name.replace("_", "-"), repr(drawn[name])]
    return args


_FAR = ["--j", "1e4", "--mu", "1e3"]


# the far ends of the drawn ranges, and past the --points and --q bounds
_FAR_ARGS = {
    "weights": ["weights", *_FAR, "--tail-tol", "1e-300"],
    "timescales": ["timescales", *_FAR],
    "mandel": ["mandel", "--mu", "1e3", "--j-max", "1e4", "--points", "200"],
    "overlap": ["overlap", *_FAR, "--tail-tol", "1e-300", "--points", "200"],
    # a sweep whose partners, all held at once, would pass 1 GiB (about
    # 24 kB a partner); in batches it peaks near 50 MB, as a loop of
    # one-state calls does
    "overlap-50000-points": ["overlap", *_FAR, "--points", "50000"],
    "unity": ["unity", "--mu", "1e3", "--n-max", "20", "--abs-tol", "1e-300",
              "--rel-tol", "1e-300"],
    "survival-q1e6": ["survival", "--q", "1000000", "--delta", "3", "--points", "200"],
    "survival-intensity-q1e6": ["survival-intensity", "--q", "1000000", "--points", "200"],
    "mandel-4e7-points": ["mandel", "--points", "40000000"],
    "survival-q1e20": ["survival", "--q", "100000000000000000000", "--delta", "3", "--points", "200"],
}


def _run_capped(args):
    # a kernel that keeps a dense (T, q) matrix needs 3.2 GB at the far
    # cases' q = 1e6 and 200 points; 4e7 sweep points need more than
    # 1 GiB of floats, and q = 1e20 overflows int64 channel offsets, so a
    # CLI without the --points and --q bounds fails those with exit 1
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _LIMITED, *args, "--out", os.devnull],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode in (0, 2, 3), out.stderr[-2000:]


# each dataset command is its own case with its own draws, so every
# command is drawn
@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_channel_commands_bounded_memory(command, data):
    _run_capped(data.draw(_command_args(command)))


@pytest.mark.parametrize("case", sorted(_FAR_ARGS))
def test_channel_commands_bounded_memory_far(case):
    _run_capped(_FAR_ARGS[case])


@pytest.mark.parametrize("j", ["0", "10"])
def test_timescales_out_of_range_exit_2(j, capsys):
    # T_cl past the float range: alpha (2 n_bar + mu) underflows to 0 at
    # J = 0, and the quotient overflows at J = 10; no row of inf or nan
    assert main(["timescales", "--j", j, "--mu", "0.5", "--alpha", "5e-324", "--out", "-"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [
    "overlap --j 10 --mu 1e300 --points 3",
    "autocorr --j 0 --mu 1e301 --points 3",
    "autocorr --j 0 --t-max 1e305 --points 3",
    "survival-intensity --j 0 --mu 1e302 --points 3",
])
def test_split_overflow_exit_2(args, tmp_path, capsys):
    # the phase reduction's Dekker split multiplies mu, mu n + n^2 and t
    # by 2^27 + 1: past about 1.3e300 that overflows, and the rows were NaN
    out = tmp_path / "s.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args.split() + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert caught == [] and captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _log_uniform(lo, hi):
    # 2^e for e uniform on [log2 lo, log2 hi]: every binade of the range
    # equally likely
    return st.floats(math.log2(lo), math.log2(hi)).map(lambda e: min(2.0**e, hi))


_MU_ANY = _log_uniform(5e-324, 1.79e308)
_J_ANY = st.one_of(st.just(0.0), _log_uniform(5e-324, 1.79e308))
_TOL_ANY = _log_uniform(5e-324, 1e-6)
# seconds a contract case may take: the widest windows (near 10^6 levels
# at tail_tol 5e-324) build and write in well under this
_CONTRACT_SECONDS = 20.0


def _contract(args, tmp_path):
    # exit 0 with finite cells, or exit 2 or 3 with one error line; no
    # warning either way, within _CONTRACT_SECONDS
    out = tmp_path / "contract.csv"
    start = time.perf_counter()
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([str(a) for a in args] + ["--out", str(out)])
    elapsed = time.perf_counter() - start
    assert caught == [], (args, [str(w.message) for w in caught])
    assert elapsed < _CONTRACT_SECONDS, (args, elapsed)
    assert code in (0, 2, 3), args
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, args
        assert not out.exists(), args
        return
    assert err.getvalue() == "", args
    _, _, rows = read_dataset(str(out))
    assert all(math.isfinite(v) for row in rows for v in row), args


@settings(max_examples=50, deadline=None, derandomize=True)
@given(j=_J_ANY, mu=_MU_ANY, tol=_TOL_ANY)
@example(j=10.0, mu=1e300, tol=1e-14)  # NaN rows at exit 0 before the split guard
def test_overlap_contract(j, mu, tol, tmp_path_factory):
    _contract(["overlap", "--j", repr(j), "--mu", repr(mu), "--tail-tol", repr(tol),
               "--points", "3"], tmp_path_factory.mktemp("overlap"))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(j=_J_ANY, mu=_MU_ANY, tol=_TOL_ANY)
@example(j=1000.0, mu=1.7e305, tol=1e-14)  # warned, then walked 10^6 levels
@example(j=898.6, mu=2e305, tol=1e-14)  # the first block's variance overflowed: exit 1
def test_weights_contract(j, mu, tol, tmp_path_factory):
    _contract(["weights", "--j", repr(j), "--mu", repr(mu), "--tail-tol", repr(tol)],
              tmp_path_factory.mktemp("weights"))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(j=_J_ANY, mu=_MU_ANY, tol=_TOL_ANY, t_max=_log_uniform(5e-324, 1.79e308),
       points=st.integers(2, 5))
@example(j=0.0, mu=1e301, tol=1e-14, t_max=1.0, points=3)
@example(j=0.0, mu=28.0, tol=1e-14, t_max=1e305, points=3)
def test_autocorr_contract(j, mu, tol, t_max, points, tmp_path_factory):
    _contract(["autocorr", "--j", repr(j), "--mu", repr(mu), "--tail-tol", repr(tol),
               "--t-max", repr(t_max), "--points", points], tmp_path_factory.mktemp("autocorr"))


_POSITIVE_ANY = _log_uniform(5e-324, 1.79e308)
# q log-uniform over [2, 2^63 - 1], and delta log-uniform over [0, q)
_Q_ANY = st.floats(1.0, 63.0).map(lambda e: max(2, min(int(2.0**e), 2**63 - 1)))


@st.composite
def _q_delta(draw):
    q = draw(_Q_ANY)
    e = draw(st.floats(0.0, math.log2(q)))
    return q, min(q - 1, int(2.0**e) - 1)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(j=_J_ANY, mu=_MU_ANY, tol=_TOL_ANY, t_max=_POSITIVE_ANY, points=st.integers(2, 5),
       q_delta=_q_delta())
@example(j=10.0, mu=28.0, tol=1e-14, t_max=1.0, points=3, q_delta=(2**63 - 1, 0))
@example(j=10.0, mu=28.0, tol=1e-14, t_max=1.0, points=3, q_delta=(2**63 - 1, 2**63 - 2))
def test_survival_contract(j, mu, tol, t_max, points, q_delta, tmp_path_factory):
    q, delta = q_delta
    _contract(["survival", "--j", repr(j), "--mu", repr(mu), "--tail-tol", repr(tol),
               "--t-max", repr(t_max), "--points", points, "--q", q, "--delta", delta],
              tmp_path_factory.mktemp("survival"))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(j=_J_ANY, mu=_MU_ANY, tol=_TOL_ANY, t_max=_POSITIVE_ANY, points=st.integers(2, 5),
       q=_Q_ANY)
@example(j=10.0, mu=28.0, tol=1e-14, t_max=1.0, points=3, q=2**63 - 1)
def test_survival_intensity_contract(j, mu, tol, t_max, points, q, tmp_path_factory):
    _contract(["survival-intensity", "--j", repr(j), "--mu", repr(mu), "--tail-tol", repr(tol),
               "--t-max", repr(t_max), "--points", points, "--q", q],
              tmp_path_factory.mktemp("survival_intensity"))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(mu=_MU_ANY, j_max=_POSITIVE_ANY, points=st.integers(2, 5))
@example(mu=28.0, j_max=1e-320, points=3)
@example(mu=1e-300, j_max=20.0, points=3)
def test_mandel_contract(mu, j_max, points, tmp_path_factory):
    _contract(["mandel", "--mu", repr(mu), "--j-max", repr(j_max), "--points", points],
              tmp_path_factory.mktemp("mandel"))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(j=_J_ANY, mu=_MU_ANY, alpha=_POSITIVE_ANY)
@example(j=1e-320, mu=28.0, alpha=1.0)
@example(j=10.0, mu=1e-320, alpha=1.0)
def test_timescales_contract(j, mu, alpha, tmp_path_factory):
    _contract(["timescales", "--j", repr(j), "--mu", repr(mu), "--alpha", repr(alpha)],
              tmp_path_factory.mktemp("timescales"))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(mu=_MU_ANY, n_max=st.one_of(st.integers(0, 20), st.sampled_from([-1, 21, 2**63])),
       abs_tol=_POSITIVE_ANY, rel_tol=_POSITIVE_ANY)
@example(mu=28.0, n_max=5, abs_tol=1e-321, rel_tol=1e-8)  # the cutoff's log of 0: exit 2
# about 1-2 s: the K sweeps grow with mu, and at 5e4 reach their node cap (exit 3)
@example(mu=2e4, n_max=5, abs_tol=1e-10, rel_tol=1e-8)
def test_unity_contract(mu, n_max, abs_tol, rel_tol, tmp_path_factory):
    _contract(["unity", "--mu", repr(mu), "--n-max", n_max, "--abs-tol", repr(abs_tol),
               "--rel-tol", repr(rel_tol)], tmp_path_factory.mktemp("unity"))


# --tail-tol and --points values outside their accepted ranges
_TOL_OUTSIDE = st.sampled_from([0.0, -0.0, -1e-14, 2e-6, 1.0, math.inf, math.nan])
_POINTS_OUTSIDE = st.sampled_from([-3, 0, 1, 10**6 + 1, 2**63])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(figure_id=st.integers(-1, 9),
       tol=st.one_of(st.none(), _TOL_ANY, _TOL_OUTSIDE),
       points=st.one_of(st.none(), st.integers(2, 5), _POINTS_OUTSIDE))
@example(figure_id=1, tol=5e-324, points=None)
@example(figure_id=2, tol=None, points=2)
@example(figure_id=7, tol=5e-324, points=5)
def test_figure_contract(figure_id, tol, points, tmp_path_factory):
    # exit 0 with every cell of every file finite, or exit 2 or 3 with
    # one error line; no warning either way.  Each flag is present or
    # absent, and figures 1 and 2 refuse the one they do not read.
    out = tmp_path_factory.mktemp("figure") / "figs"
    args = ["figure", "--id", str(figure_id), "--out-dir", str(out)]
    # --flag=value, so that argparse takes -1e-14 as a value
    args += [f"--tail-tol={tol!r}"] * (tol is not None)
    args += [f"--points={points}"] * (points is not None)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(args)
    assert caught == [], (args, [str(w.message) for w in caught])
    assert code in (0, 2, 3), args
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, args
        return
    files = sorted(out.glob("*.csv"))
    assert files, args
    for f in files:
        _, _, rows = read_dataset(str(f))
        assert rows and all(math.isfinite(v) for row in rows for v in row), (args, f.name)


def test_long_overlap_windows_do_not_depend_on_blas_threads():
    # at J = 1e9 the pairwise windows pass 10 000 levels, where OpenBLAS
    # splits a dot product across its threads: an overlap contracts each
    # partner in pieces of at most 10 000 levels, so its bytes are the
    # same under one and two BLAS threads
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    args = [sys.executable, "-m", "gkrevival.cli", "overlap", "--j", "1e9", "--mu", "80",
            "--points", "20"]
    outs = [subprocess.run(args, env=dict(env, OPENBLAS_NUM_THREADS=n), capture_output=True,
                           timeout=120) for n in ("1", "2")]
    assert [o.returncode for o in outs] == [0, 0]
    assert outs[0].stdout.count(b"\n") > 20 and outs[0].stdout == outs[1].stdout
