"""CLI tests: dataset schema, determinism, exit codes, figure bundles,
and round-tripping through the bundled reader."""

import os

import numpy as np
import pytest

from gkrevival import specfun
from gkrevival.cli import RunConfig, figure_bundle, main, read_dataset, run


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


@pytest.mark.parametrize("flags", [["--points", "1"], ["--tail-tol", "0.5"]])
def test_figure_validation_exit_2(flags, tmp_path, capsys):
    # a bad flag is reported before the output directory is created
    d = tmp_path / "figs"
    assert main(["figure", "--id", "3", "--out-dir", str(d)] + flags) == 2
    assert not d.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


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


def test_run_config_direct(tmp_path):
    out = tmp_path / "s.csv"
    cfg = RunConfig(command="survival", mu=28.0, q=4, delta=1, points=11,
                    out_path=str(out))
    assert run(cfg) == 0
    _, header, rows = read_dataset(str(out))
    assert header == ["t", "re", "im", "abs2"]
    assert len(rows) == 11


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
