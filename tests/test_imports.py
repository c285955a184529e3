"""Import tests: the package exports exactly its modules' public names;
every command runs on NumPy alone, so SciPy is never imported by the
package or by any command; and NumPy is imported only where an array is
built, so the package import and the closed-form commands load none."""

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

# Prints the sorted modules of the given package loaded after the
# given commands ran.
_PROBE = """
import sys
import gkrevival, gkrevival.cli
for args in {commands!r}:
    assert gkrevival.cli.main(args) == 0, args
print(sorted(m for m in sys.modules if m == {package!r} or m.startswith({package!r} + ".")))
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


def _loaded(tmp_path, commands, package):
    return _last_line(tmp_path, _PROBE.format(commands=commands, package=package))


def test_import_loads_no_scipy(tmp_path):
    assert _loaded(tmp_path, [], "scipy") == "[]"


def test_import_loads_no_numpy(tmp_path):
    # import gkrevival and import gkrevival.cli
    assert _loaded(tmp_path, [], "numpy") == "[]"


@pytest.mark.parametrize("command", [
    ["timescales", "--out", "out.csv"],
    ["mandel", "--points", "50", "--out", "out.csv"],
    ["figure", "--id", "2", "--out-dir", "figs"],
])
def test_closed_forms_load_no_numpy(tmp_path, command):
    assert _loaded(tmp_path, [command], "numpy") == "[]"


def test_phase_loads_no_numpy(tmp_path):
    # one scalar time is checked with math, not with a one-element array
    code = ("import sys; from gkrevival.revival import phase; "
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
