"""Import tests: the package exports exactly its modules' public names;
every command runs on NumPy alone, so SciPy is never imported by the
package or by any command; NumPy is imported inside functions only in
specfun, which import gkrevival executes, and the lazy modules (_dd,
gkstate, revival, measure, each a gkrevival._LazyModule until it runs)
import it when they execute, so the package import and the closed-form
commands load none; a command executes only the package modules it runs,
while every layer module stays in sys.modules for benchmarks/tracer.py
to find; and threads that race on a lazy module's first use all see it
fully executed."""

import os
import subprocess
import sys

import pytest

import gkrevival
from gkrevival import gkstate, measure, revival, specfun, spectrum

_MODULES = (specfun, spectrum, gkstate, revival, measure)


def test_export_list_is_the_module_lists():
    names = [name for mod in _MODULES for name in mod.__all__]
    assert gkrevival.__all__ == names + ["__version__"]
    assert len(set(gkrevival.__all__)) == len(gkrevival.__all__)
    for mod in _MODULES:
        for name in mod.__all__:
            assert getattr(gkrevival, name) is getattr(mod, name), name
    star = {}
    exec("from gkrevival import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(gkrevival.__all__)

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(gkrevival.__file__)))

# Prints the sorted modules of the given packages that importing
# gkrevival.cli and running the given commands loaded, beyond those the
# interpreter loaded at start-up (where site may import typing).  A lazy
# module (gkrevival._LazyModule) sits in sys.modules as a subclass of
# ModuleType until its first use executes it.
_PROBE = """
import sys, types
start = set(sys.modules)
import gkrevival, gkrevival.cli
for args in {commands!r}:
    assert gkrevival.cli.main(args) == 0, args
print(sorted(m for m, mod in sys.modules.items() if type(mod) is types.ModuleType
             and m not in start and m.partition(".")[0] in {packages!r}))
"""


def _last_line(tmp_path, code):
    # the last line a fresh interpreter prints after running code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def _loaded(tmp_path, commands, *packages):
    return _last_line(tmp_path, _PROBE.format(commands=commands, packages=packages))


def test_import_loads_no_scipy(tmp_path):
    assert _loaded(tmp_path, [], "scipy") == "[]"


def test_import_loads_no_numpy(tmp_path):
    # import gkrevival and import gkrevival.cli
    assert _loaded(tmp_path, [], "numpy") == "[]"


_CLOSED_FORMS = [
    ["timescales", "--out", "out.csv"],
    ["mandel", "--points", "50", "--out", "out.csv"],
    ["figure", "--id", "2", "--out-dir", "figs"],
]


@pytest.mark.parametrize("command", _CLOSED_FORMS)
def test_closed_forms_load_no_numpy(tmp_path, command):
    assert _loaded(tmp_path, [command], "numpy") == "[]"


def _package(*modules):
    return str(sorted(["gkrevival"] + [f"gkrevival.{m}" for m in modules]))


@pytest.mark.parametrize("commands", [[]] + [[command] for command in _CLOSED_FORMS],
                         ids=["import", "timescales", "mandel", "figure-2"])
def test_closed_forms_load_no_inspect(tmp_path, commands):
    # the records are not dataclasses, whose module loads inspect and
    # with it ast, dis and tokenize, and cli needs no typing
    chain = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
    assert _loaded(tmp_path, commands, *chain) == "[]"


@pytest.mark.parametrize("command", _CLOSED_FORMS)
def test_closed_forms_execute_only_spectrum(tmp_path, command):
    # no state, no kernel, no quadrature: an eager import in cli fails this
    assert _loaded(tmp_path, [command], "gkrevival") == _package("cli", "specfun", "spectrum")


@pytest.mark.parametrize("command, modules", [
    # states without the revival kernel or the quadrature
    (["weights"], ("cli", "specfun", "spectrum", "gkstate", "_dd")),
    (["overlap", "--points", "5"], ("cli", "specfun", "spectrum", "gkstate", "_dd")),
    # the quadrature without states
    (["unity", "--n-max", "3"], ("cli", "specfun", "spectrum", "measure")),
])
def test_commands_execute_only_what_they_run(tmp_path, command, modules):
    commands = [command + ["--out", "out.csv"]]
    assert _loaded(tmp_path, commands, "gkrevival") == _package(*modules)


def test_cli_import_registers_every_layer(tmp_path):
    # benchmarks/tracer.py reads all seven layer modules from sys.modules
    # right after import gkrevival.cli; it executes the lazy ones itself
    code = ("import sys, gkrevival.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'gkrevival'))")
    layers = _package("specfun", "spectrum", "gkstate", "revival", "_dd", "measure", "cli")
    assert _last_line(tmp_path, code) == layers


def test_phase_loads_no_numpy(tmp_path):
    # one scalar time is checked with math, not with a one-element array
    code = ("import sys; from gkrevival.spectrum import phase; "
            "phase(1, 0.5, 28.0); print('numpy' in sys.modules)")
    assert _last_line(tmp_path, code) == "False"


def test_moment_rho_loads_no_numpy(tmp_path):
    # ln rho_n is a scalar lgamma form
    code = ("import sys; from gkrevival.spectrum import SpectrumParams, moment_rho; "
            "moment_rho(20, SpectrumParams(28.0)); print('numpy' in sys.modules)")
    assert _last_line(tmp_path, code) == "False"


def test_weights_loads_numpy(tmp_path):
    # an array command does load it, so the probe above can see NumPy
    assert "'numpy'" in _loaded(tmp_path, [["weights", "--out", "out.csv"]], "numpy")


@pytest.mark.parametrize("command", [
    ["timescales"],
    ["weights", "--mu", "63.7"],
    ["autocorr", "--points", "101"],
    ["unity", "--n-max", "3"],
])
def test_commands_load_no_scipy(tmp_path, command):
    assert _loaded(tmp_path, [command + ["--out", "out.csv"]], "scipy") == "[]"


def test_unity_loads_quadrature(tmp_path):
    # unity runs its own NumPy quadrature and writes every row
    loaded = _loaded(tmp_path, [["unity", "--n-max", "3", "--out", "out.csv"]], "scipy")
    assert loaded == "[]"
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 2 + 4


# Four threads at a time read a name each lazy module defines last, on
# the module's first use; a thread that sees a half-executed module fails
# its read.  _dd goes first, so the modules a later one imports have run.
_RACE = """
import sys, threading
sys.setswitchinterval(1e-6)
import gkrevival
failed = []

def read(module, name, barrier):
    barrier.wait()
    try:
        getattr(module, name)
    except AttributeError as exc:
        failed.append(exc)

for m, name in [("_dd", "_phase_terms"), ("gkstate", "overlap"),
                ("revival", "phase_group_check"), ("measure", "moment_checks")]:
    barrier = threading.Barrier(4)
    threads = [threading.Thread(target=read, args=(sys.modules["gkrevival." + m], name, barrier))
               for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
print(len(failed))
"""


def test_lazy_modules_execute_once_across_threads(tmp_path):
    assert [_last_line(tmp_path, _RACE) for _ in range(5)] == ["0"] * 5
