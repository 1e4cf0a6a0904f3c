"""What importing the package and transforming a path CSV load.

SciPy is imported inside the functions that call it, so a fresh
interpreter that imports specpole, builds the filters and turns a path
CSV into a panel CSV must hold no ``scipy`` module afterwards.
"""

import json
import os
import subprocess
import sys
import textwrap

import specpole

TRANSFORM_A_PATH_CSV = """
import json, os, sys
import numpy as np
import specpole
import specpole.cli
from specpole import (BUILTIN_FILTER_NAMES, PathRealization, builtin_filter,
                      lattice_window, linear_schedule, panel_from_path,
                      panel_to_csv, path_from_csv, path_to_csv)

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
config = os.path.join(tmp, "transform.json")
with open(config, "w") as fh:
    json.dump({"filter": {"name": "mexican-hat"},
               "schedule": {"rule": "linear", "j_max": 2, "kappa": 3.0},
               "path_csv": path_csv}, fh)
assert specpole.cli.main(["transform", "--config", config,
                          "--out", os.path.join(tmp, "out")]) == 0
"""

REPORT = """
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def loaded_scipy(script, *args):
    """SciPy modules in sys.modules after script runs in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(specpole.__file__))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script) + REPORT, *args],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def test_import_and_path_csv_transform_load_no_scipy(tmp_path):
    assert loaded_scipy(TRANSFORM_A_PATH_CSV, str(tmp_path)) == []
    assert (tmp_path / "out" / "panel.csv").read_bytes() == (
        tmp_path / "panel.csv").read_bytes()


def test_lambert_w0_loads_scipy_special_on_first_call():
    loaded = loaded_scipy("""
        import json, sys
        from specpole import lambert_w0
        assert "scipy.special" not in sys.modules
        assert abs(lambert_w0(1.0) - 0.5671432904097838) < 1e-15
    """)
    assert "scipy.special" in loaded
