"""Workload table shared by run.py and its child processes.

Sizes are chosen so that one run of any workload fits its time budget on
a 2-core machine (see NOTES.md).  ``SMOKE`` shrinks every workload so
that ``smoke.py`` exercises the same code in seconds.
"""

import copy

INDICATOR = {"family": "indicator", "s0": 1.2661, "alpha": 0.1, "M": 3.0}
GEGENBAUER = {"family": "gegenbauer", "d": 0.1, "u": 0.3, "truncation": 40}

WORKLOADS = {
    # The criterion-6 experiment run cold: covariance columns and dense
    # factors dominate time to result.  The warm calls then measure the
    # per-replication cost (sampling, estimation, aggregation) with the
    # factors cached; each call of warm_chunk replications is timed.
    "exact-c6": {
        "kind": "mc",
        "doc": {
            "model": INDICATOR,
            "filter": {"name": "shannon-father"},
            "schedule": {"rule": "geometric", "j_max": 4, "a0": 4.0,
                         "rho": 2.0, "kappa": 3.0, "m_cap": 768},
            "backend": "exact-gaussian",
            "replications": 20,
            "workers": 1,
        },
        "warm_reps": 800,
        "warm_chunk": 100,
    },
    # Reads a path CSV and runs `specpole transform` and `specpole
    # estimate`: one long panel with short Mexican-hat windows.
    "cli-analyze": {
        "kind": "cli",
        "model": GEGENBAUER,
        "filter": {"name": "mexican-hat"},
        "schedule": {"rule": "linear", "j_max": 8, "kappa": 5.0},
    },
}

SMOKE = {
    "exact-c6": {"doc": {"schedule": {"m_cap": 48}, "replications": 4},
                 "warm_reps": 40, "warm_chunk": 20},
    "cli-analyze": {"schedule": {"j_max": 4, "kappa": 3.0}},
}

# Small fixed inputs for layers a workload does not run itself, so that
# every per-layer metric exists on every workload.
PROBE_EXACT = {
    "model": INDICATOR,
    "filter": {"name": "shannon-father"},
    "schedule": {"rule": "geometric", "j_max": 2, "a0": 4.0, "rho": 2.0,
                 "kappa": 3.0, "m_cap": 64},
    "backend": "exact-gaussian",
    "replications": 8,
    "workers": 1,
}
PROBE_PATH = {
    "model": GEGENBAUER,
    "filter": {"name": "mexican-hat"},
    "schedule": {"rule": "linear", "j_max": 4, "kappa": 3.0},
}

# Warm runs use base seeds this far above the cold run's, so the two
# never share a replication seed.
WARM_OFFSET = 1 << 20


def _merge(base, over):
    for key, value in over.items():
        if isinstance(value, dict):
            _merge(base[key], value)
        else:
            base[key] = value


def workload(name, smoke=False):
    """The workload's definition, shrunk when ``smoke`` is set."""
    spec = copy.deepcopy(WORKLOADS[name])
    if smoke:
        _merge(spec, copy.deepcopy(SMOKE[name]))
    return spec
