"""What importing the package and running its commands need of SciPy.

The package uses no SciPy, so a fresh interpreter that imports specpole,
builds the filters, turns a path CSV into a panel CSV and reads it back
must hold no ``scipy`` module afterwards, nor ``numpy.ma``, which plain
``np.unique`` imports, and the commands that simulate, transform,
estimate and run an exact-backend experiment, and a far-lag covariance
entry, must succeed with SciPy blocked.  This file imports no SciPy
itself, so it also runs where SciPy is not installed.
"""

import json
import os
import subprocess
import sys
import textwrap

import specpole
from specpole import builtin_filter, coefficient_covariance, indicator_model

TRANSFORM_A_PATH_CSV = """
import json, os, sys
import numpy as np
import specpole
import specpole.cli
from specpole import (BUILTIN_FILTER_NAMES, PathRealization, builtin_filter,
                      lattice_window, linear_schedule, panel_from_csv,
                      panel_from_path, panel_to_csv, path_from_csv, path_to_csv)

tmp = sys.argv[1]
filters = [builtin_filter(name) for name in BUILTIN_FILTER_NAMES]
filt = builtin_filter("mexican-hat")
schedule = linear_schedule(2, kappa=3.0)
t_lo, t_hi = lattice_window(filt, schedule)
x = np.sin(0.7 * np.arange(t_hi - t_lo + 1))
path_csv = os.path.join(tmp, "path.csv")
path_to_csv(PathRealization(t0=float(t_lo), dt=1.0, values=x, seed=0), path_csv)
panel = panel_from_path(path_from_csv(path_csv, 0), filt, schedule)
panel_to_csv(panel, os.path.join(tmp, "panel.csv"))
assert panel_from_csv(os.path.join(tmp, "panel.csv"), "path-transform", 0).levels
config = os.path.join(tmp, "transform.json")
with open(config, "w") as fh:
    json.dump({"filter": {"name": "mexican-hat"},
               "schedule": {"rule": "linear", "j_max": 2, "kappa": 3.0},
               "path_csv": path_csv}, fh)
assert specpole.cli.main(["transform", "--config", config,
                          "--out", os.path.join(tmp, "out")]) == 0
"""

REPORT = """
print(json.dumps({top: sorted(m for m in sys.modules
                              if m == top or m.startswith(top + "."))
                  for top in ("scipy", "numpy.ma")}))
"""

# Every "import scipy..." raises ImportError once sys.modules maps
# "scipy" to None, whether or not SciPy is installed.
COMMANDS_WITHOUT_SCIPY = """
import json, os, sys
sys.modules["scipy"] = None
from specpole import builtin_filter, coefficient_covariance, indicator_model
from specpole.cli import main

tmp = sys.argv[1]
gegenbauer = {"family": "gegenbauer", "d": 0.1, "u": 0.3, "truncation": 40}
configs = {
    "simulate": {"model": gegenbauer, "n_points": 500, "t0": 0, "dt": 1.0,
                 "seed": 11},
    "transform": {"model": gegenbauer,
                  "filter": {"name": "mexican-hat", "sigma": 1.0},
                  "schedule": {"rule": "linear", "j_max": 3, "kappa": 3.0},
                  "seed": 11},
    "estimate": {"panel_csv": os.path.join(tmp, "transform", "panel.csv"),
                 "filter": {"name": "mexican-hat", "sigma": 1.0}},
    "montecarlo": {"model": {"family": "indicator", "s0": 1.2661036727794992,
                             "alpha": 0.1, "M": 3.0},
                   "filter": {"name": "shannon-father"},
                   "schedule": {"rule": "geometric", "j_max": 3, "a0": 8.0,
                                "rho": 2.0, "kappa": 6.0, "m_cap": 64},
                   "backend": "exact-gaussian", "replications": 3,
                   "base_seed": 700},
}
codes = {}
for command, doc in configs.items():
    config = os.path.join(tmp, command + ".json")
    with open(config, "w") as fh:
        json.dump(doc, fh)
    codes[command] = main([command, "--config", config,
                           "--out", os.path.join(tmp, command)])
far = coefficient_covariance(indicator_model(1.2661, 0.1, 3),
                             builtin_filter("shannon-father"), 8.0, [0.0, 8e6])
print(json.dumps({"codes": codes, "far_lag": far[1]}))
"""


# Filter constants sum their nodes directly, so building a filter, and
# the transform and estimate commands, never load numpy.fft
FFT_FREE_COMMANDS = """
import json, os, sys
import numpy as np
from specpole import PathRealization, builtin_filter, lattice_window, linear_schedule, path_to_csv
from specpole.cli import main

filt = builtin_filter("mexican-hat")
loaded = {"filter": "numpy.fft" in sys.modules}
tmp = sys.argv[1]
schedule = {"rule": "linear", "j_max": 3, "kappa": 3.0}
t_lo, t_hi = lattice_window(filt, linear_schedule(3, kappa=3.0))
x = np.sin(0.7 * np.arange(t_hi - t_lo + 1))
path_to_csv(PathRealization(t0=float(t_lo), dt=1.0, values=x, seed=0), os.path.join(tmp, "path.csv"))
configs = {
    "transform": {"path_csv": os.path.join(tmp, "path.csv"),
                  "filter": {"name": "mexican-hat"}, "schedule": schedule},
    "estimate": {"panel_csv": os.path.join(tmp, "transform", "panel.csv"),
                 "filter": {"name": "mexican-hat"}},
}
codes = {}
for command, doc in configs.items():
    config = os.path.join(tmp, command + ".json")
    with open(config, "w") as fh:
        json.dump(doc, fh)
    codes[command] = main([command, "--config", config, "--out", os.path.join(tmp, command)])
loaded["commands"] = "numpy.fft" in sys.modules
print(json.dumps({"codes": codes, "fft": loaded}))
"""


def run_fresh(script, *args):
    """Last stdout line of script run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(specpole.__file__))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_import_and_path_csv_transform_load_no_scipy(tmp_path):
    assert run_fresh(TRANSFORM_A_PATH_CSV + REPORT, str(tmp_path)) == {
        "scipy": [], "numpy.ma": []}
    assert (tmp_path / "out" / "panel.csv").read_bytes() == (
        tmp_path / "panel.csv").read_bytes()


def test_commands_run_with_scipy_blocked(tmp_path):
    out = run_fresh(COMMANDS_WITHOUT_SCIPY, str(tmp_path))
    assert out["codes"] == {"simulate": 0, "transform": 0, "estimate": 0,
                            "montecarlo": 0}
    # 8e6 spans 1e6 half-periods of the band [0, pi/8]: a far lag
    far = coefficient_covariance(indicator_model(1.2661, 0.1, 3),
                                 builtin_filter("shannon-father"), 8.0, [0.0, 8e6])
    assert out["far_lag"] == far[1]
    assert (tmp_path / "estimate" / "estimates.csv").stat().st_size > 0
    assert (tmp_path / "montecarlo" / "summary.json").stat().st_size > 0


def test_filters_transform_and_estimate_load_no_fft(tmp_path):
    out = run_fresh(FFT_FREE_COMMANDS, str(tmp_path))
    assert out["codes"] == {"transform": 0, "estimate": 0}
    assert out["fft"] == {"filter": False, "commands": False}


def test_root_exports_each_module_name_once():
    # the root's __all__ is the modules' lists end to end, so a name added
    # to a module's __all__ is public at the root without a second edit
    modules = [specpole.estimator, specpole.mc, specpole.model,
               specpole.simulate, specpole.specfun, specpole.transform]
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert specpole.__all__ == [*names, "__version__"]
    for module in modules:
        for name in module.__all__:
            assert getattr(specpole, name) is getattr(module, name), name
