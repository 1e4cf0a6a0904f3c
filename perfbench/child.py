"""One fresh interpreter's share of a benchmark run.

``run.py`` starts this file once per measurement, so that specpole's
process-global factor cache starts cold every time.  The task arrives as
one JSON argument; the result is written as JSON to ``task["result"]``.
Times marked ``_s`` that start at ``t_launch`` count from the moment
``run.py`` launched this process.

Tasks:
  mc         set up a Monte Carlo workload, run it cold with artifacts,
             then warm without (in timed calls of ``warm_chunk``
             replications), and check the outputs; with ``trace``
             set, record spans and time every layer.
  setup      only the set-up phase (extra set-up samples).
  cli-setup  set-up phase of cli-analyze; writes the path CSV and the
             CLI configs (untimed).
  cli-check  check the panels and estimates the CLI wrote.
  cli-trace  replay the CLI analysis in process with spans and time
             every layer.
"""

import contextlib
import csv
import json
import math
import os
import statistics
import sys
import time
import warnings

import numpy as np

from checks import cells_agree, level_moments, roundtrip_check
from tracing import Tracer
from workloads import PROBE_EXACT, PROBE_PATH, WARM_OFFSET, workload

CASES = ("none", "case1", "case2", "case3", "case4", "case5")


def _import_package(root):
    import specpole

    src = os.path.join(os.path.abspath(root), "src") + os.sep
    if not os.path.abspath(specpole.__file__).startswith(src):
        raise SystemExit("specpole was imported from %s, not from %s"
                         % (specpole.__file__, src))
    return specpole


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _durations(spans):
    return [s["end"] - s["start"] for s in spans]


def _panel_from_path(sp, path, filt, schedule):
    # TransformRequest is due to be replaced by plain arguments.
    if hasattr(sp, "TransformRequest"):
        return sp.panel_from_path(
            sp.TransformRequest(path=path, filter=filt, schedule=schedule))
    return sp.panel_from_path(path, filt, schedule)


def _regenerate_path(sp, doc, filt, schedule, seed):
    """The path the path backend draws for ``seed`` (mc._one_replication)."""
    t_lo, t_hi = sp.lattice_window(filt, schedule)
    return sp.gegenbauer_path(sp.model_from_json(doc["model"]),
                              t_hi - t_lo + 1, float(t_lo), 1.0, seed)


def _window_samples(filt, schedule):
    """Computed path samples read by the transform, summed over cells."""
    total = 0
    for lv in schedule.levels:
        radius = lv.a_j * (filt.time_support + 0.5)
        b = lv.shifts()[0]
        total += (math.floor(b + radius) - math.ceil(b - radius) + 1) * lv.m_j
    return total


def _schedule_counts(schedule):
    m = [lv.m_j for lv in schedule.levels]
    return {
        "simulate.factor_mb": sum(8.0 * mj * mj for mj in m) / 1e6,
        "simulate.normals_drawn": sum(m),
        "simulate.normals_distinct": max(m),
    }


def _instrument(sp, tracer):
    mc = sp.mc
    tracer.wrap(mc, "builtin_filter", "model.builtin_filter")
    tracer.wrap(mc, "exact_coefficient_sample",
                "simulate.exact_coefficient_sample",
                lambda a, k: a[3] if len(a) > 3 else k.get("seed"))
    tracer.wrap(mc, "estimate", "estimator.estimate", lambda a, k: a[0].seed)
    tracer.wrap(mc, "write_outputs", "mc.write_outputs")
    tracer.wrap(sp.simulate, "coefficient_covariance",
                "simulate.coefficient_covariance")
    tracer.wrap(sp.estimator, "lambert_w0", "specfun.lambert_w0")


def _exact_layers(sp, doc, seed, cold_id=None, warm_id=None, tracer=None):
    """Exact-sampler layer metrics, from the run's spans when given."""
    model = sp.model_from_json(doc["model"])
    filt = sp.builtin_filter(doc["filter"]["name"])
    schedule = sp.schedule_from_json(doc["schedule"])
    out = _schedule_counts(schedule)
    if tracer is not None:
        firsts = {}
        for s in tracer.named("simulate.exact_coefficient_sample", cold_id):
            firsts.setdefault(s["thread"], s)
        warm = _durations(tracer.named("simulate.exact_coefficient_sample",
                                       warm_id))
        out["simulate.panel_sample_s"] = statistics.median(warm)
        out["simulate.factor_build_s"] = (
            statistics.median(_durations(firsts.values()))
            - out["simulate.panel_sample_s"])
        out["simulate.factor_builds"] = len(
            tracer.named("simulate.coefficient_covariance", cold_id))
    else:
        probe = Tracer()
        probe.wrap(sp.simulate, "coefficient_covariance",
                   "simulate.coefficient_covariance")
        try:
            _, cold_s = _timed(sp.exact_coefficient_sample, model, filt,
                               schedule, seed)
        finally:
            probe.unwrap_all()
        _, warm_s = _timed(sp.exact_coefficient_sample, model, filt,
                           schedule, seed + 1)
        out["simulate.panel_sample_s"] = warm_s
        out["simulate.factor_build_s"] = cold_s - warm_s
        out["simulate.factor_builds"] = len(probe.spans)
    cov_s = 0.0
    for lv in schedule.levels:
        _, dt = _timed(sp.coefficient_covariance, model, filt, lv.a_j,
                       lv.shifts())
        cov_s += dt
    out["simulate.covariance_column_s"] = cov_s
    return out


def _path_layers(sp, doc, seed):
    """Path simulation and transform timed by direct calls."""
    filt = sp.builtin_filter(doc["filter"]["name"])
    schedule = sp.schedule_from_json(doc["schedule"])
    path, path_s = _timed(_regenerate_path, sp, doc, filt, schedule, seed)
    panel, panel_s = _timed(_panel_from_path, sp, path, filt, schedule)
    return path, panel, {
        "simulate.path_s": path_s,
        "transform.panel_s": panel_s,
    }


def _transform_counts(sp, doc, panel_s):
    filt = sp.builtin_filter(doc["filter"]["name"])
    schedule = sp.schedule_from_json(doc["schedule"])
    return {
        "transform.coeffs_per_s":
            sum(lv.m_j for lv in schedule.levels) / panel_s,
        "transform.window_samples": _window_samples(filt, schedule),
    }


def _estimator_layers(sp, panel, filt, cases):
    results, estimate_s = _timed(sp.estimate, panel, filt)
    args = [-0.5 * (r.point.y1 / r.point.y2) * math.log(r.point.y1)
            for r in results]
    calls = 0
    t0 = time.perf_counter()
    while calls < 2000:
        for x in args:
            sp.lambert_w0(x)
        calls += len(args)
    out = {
        "estimator.estimate_s": estimate_s,
        "specfun.lambert_w0_s": (time.perf_counter() - t0) / calls,
    }
    for case in CASES:
        out["estimator.case." + case] = sum(1 for c in cases if c == case)
    return out


def _csv_layers(sp, path, panel, directory):
    path_csv = os.path.join(directory, "layer_path.csv")
    panel_csv = os.path.join(directory, "layer_panel.csv")
    t0 = time.perf_counter()
    sp.path_to_csv(path, path_csv)
    sp.panel_to_csv(panel, panel_csv)
    t1 = time.perf_counter()
    sp.path_from_csv(path_csv, path.seed)
    sp.panel_from_csv(panel_csv, panel.provenance, panel.seed)
    t2 = time.perf_counter()
    return panel_csv, {"simulate.csv_write_s": t1 - t0,
                       "simulate.csv_read_s": t2 - t1}


def _mc_probe_layers(sp, directory, seed):
    """mc metrics from a small traced exact run (for cli-analyze)."""
    tracer = Tracer()
    _instrument(sp, tracer)
    doc = dict(PROBE_EXACT, base_seed=seed,
               out_dir=os.path.join(directory, "probe_mc"))
    config = sp.experiment_from_json(doc)
    try:
        t0 = time.perf_counter()
        with tracer.span("mc.run_experiment", root=True) as run_id:
            table = sp.run_experiment(config)
        wall = time.perf_counter() - t0
    finally:
        tracer.unwrap_all()
    return {
        "mc.write_outputs_s": sum(_durations(
            tracer.named("mc.write_outputs", run_id))),
        "mc.pool_efficiency": _pool_efficiency(tracer, run_id, wall,
                                               doc["workers"]),
        "mc.failed_reps": len(table.failures),
    }


def _pool_efficiency(tracer, run_id, wall, workers):
    busy = sum(_durations(s for s in tracer.spans if s["parent"] == run_id))
    return busy / (workers * wall)


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


def _mc_setup(task):
    sp = _import_package(task["root"])
    spec = workload(task["workload"], task["smoke"])
    doc = dict(spec["doc"], base_seed=task["base_seed"],
               out_dir=os.path.join(task["dir"], "out"))
    config = sp.experiment_from_json(doc)
    filt = sp.builtin_filter(doc["filter"]["name"])
    setup_s = time.monotonic() - task["t_launch"]
    return sp, spec, doc, config, filt, setup_s


def task_setup(task):
    return {"setup_s": _mc_setup(task)[-1]}


def task_mc(task):
    sp, spec, doc, config, filt, setup_s = _mc_setup(task)
    tracer = Tracer() if task["trace"] else None
    if tracer:
        _instrument(sp, tracer)
        span = tracer.span
    else:
        span = lambda *args, **kwargs: contextlib.nullcontext()
    with span("mc.run_experiment", root=True) as cold_id:
        cold = sp.run_experiment(config)
    wall_s = time.monotonic() - task["t_launch"]
    # Warm calls of warm_chunk replications each, timed one by one; the
    # traced child makes one call of all of them, so that its spans sit
    # under a single run_experiment.
    chunk = spec["warm_reps"] if tracer else spec["warm_chunk"]
    warm_rows, warm_failures, chunk_s = [], [], []
    for first in range(0, spec["warm_reps"], chunk):
        warm_config = sp.experiment_from_json(dict(
            spec["doc"], base_seed=task["base_seed"] + WARM_OFFSET + first,
            replications=chunk))
        t0 = time.monotonic()
        with span("mc.run_experiment", root=True) as warm_id:
            warm = sp.run_experiment(warm_config)
        chunk_s.append(time.monotonic() - t0)
        warm_rows += warm.rows
        warm_failures += warm.failures
    if tracer:
        tracer.unwrap_all()

    reps = doc["replications"] + len(chunk_s) * chunk
    failed = len(cold.failures) + len(warm_failures)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "warm_chunk": chunk,
        "warm_chunk_s": chunk_s,
        "reps": reps,
        "failed_reps": failed,
        "checks": [_artifact_check(doc, cold)],
    }
    result["checks"].append(
        {"name": "replications", "ok": failed == 0,
         "detail": "%d of %d failed" % (failed, reps)})
    result["checks"] += _estimate_checks(doc, filt, warm_rows)
    model = sp.model_from_json(doc["model"])
    moments = level_moments(list(cold.rows) + warm_rows)
    result["moments"] = moments
    result["targets"] = {
        key: sp.scale_second_moment(model, filt, float(key))
        for key in moments
    }
    if tracer:
        result["layers"] = _mc_layers(sp, tracer, task, doc, filt, cold_id,
                                      warm_id, cold, warm, chunk_s[0])
        result["self_s"] = tracer.self_times()
        tracer.dump(os.path.join(task["dir"], "trace.json"))
    return result


def _artifact_check(doc, table):
    out_dir = doc["out_dir"]
    names = ("replications.csv", "mse_table.csv", "summary.json")
    missing = [n for n in names if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        return {"name": "artifacts", "ok": False,
                "detail": "missing %s" % ", ".join(missing)}
    with open(os.path.join(out_dir, "replications.csv")) as handle:
        lines = sum(1 for _ in handle) - 1
    return {"name": "artifacts", "ok": lines == len(table.rows),
            "detail": "%d rows written for %d" % (lines, len(table.rows))}


def _estimate_checks(doc, filt, warm_rows):
    """Round trips of the cold replications.csv and the warm rows."""
    path = os.path.join(doc["out_dir"], "replications.csv")
    checks = [{"name": "estimates replications.csv", "ok": False,
               "detail": "missing"}]
    if os.path.isfile(path):
        with open(path, newline="") as handle:
            checks[0] = roundtrip_check("estimates replications.csv",
                                        csv.DictReader(handle),
                                        filt.c2, filt.c3)
    checks.append(roundtrip_check("estimates warm", warm_rows,
                                  filt.c2, filt.c3))
    return checks


def _mc_layers(sp, tracer, task, doc, filt, cold_id, warm_id, cold, warm,
               warm_s):
    seed = task["base_seed"]
    out = {}
    _, out["model.builtin_filter_s"] = _timed(sp.builtin_filter,
                                              doc["filter"]["name"])
    out.update(_exact_layers(sp, doc, seed, cold_id, warm_id, tracer))
    model = sp.model_from_json(doc["model"])
    schedule = sp.schedule_from_json(doc["schedule"])
    panel = sp.exact_coefficient_sample(model, filt, schedule, seed)
    path, _, path_layers = _path_layers(sp, PROBE_PATH, seed)
    out.update(path_layers)
    out.update(_transform_counts(sp, PROBE_PATH,
                                 path_layers["transform.panel_s"]))
    cases = [r["case"] for r in list(cold.rows) + list(warm.rows)]
    out.update(_estimator_layers(sp, panel, filt, cases))
    out["estimator.estimate_s"] = statistics.median(_durations(
        tracer.named("estimator.estimate", warm_id)))
    panel_csv, csv_layers = _csv_layers(sp, path, panel, task["dir"])
    out.update(csv_layers)
    out["mc.write_outputs_s"] = sum(_durations(
        tracer.named("mc.write_outputs", cold_id)))
    out["mc.pool_efficiency"] = _pool_efficiency(tracer, warm_id, warm_s,
                                                 doc["workers"])
    out["mc.failed_reps"] = len(cold.failures) + len(warm.failures)
    _write_cli_probes(task["dir"], panel_csv, doc["filter"], seed)
    return out


def _write_cli_probes(directory, panel_csv, filt_doc, seed):
    """Configs for the CLI probes that run.py runs: transform, estimate."""
    tr = {"model": PROBE_PATH["model"], "filter": PROBE_PATH["filter"],
          "schedule": PROBE_PATH["schedule"], "seed": seed}
    est = {"panel_csv": panel_csv, "filter": filt_doc,
           "provenance": "exact-gaussian", "seed": seed}
    for name, doc in (("cli_transform.json", tr), ("cli_estimate.json", est)):
        with open(os.path.join(directory, name), "w") as handle:
            json.dump(doc, handle)


def _cli_inputs(sp, spec):
    filt = sp.filter_from_json(spec["filter"])
    schedule = sp.schedule_from_json(spec["schedule"])
    return filt, schedule


def task_cli_setup(task):
    sp = _import_package(task["root"])
    spec = workload(task["workload"], task["smoke"])
    filt, schedule = _cli_inputs(sp, spec)
    setup_s = time.monotonic() - task["t_launch"]
    if task.get("write", True):
        path = _regenerate_path(sp, spec, filt, schedule, task["seed"])
        path_csv = os.path.join(task["shared"], "path.csv")
        sp.path_to_csv(path, path_csv)
        with open(os.path.join(task["shared"], "transform.json"), "w") as handle:
            json.dump({"path_csv": path_csv, "seed": task["seed"],
                       "filter": spec["filter"],
                       "schedule": spec["schedule"]}, handle)
    return {"setup_s": setup_s}


def read_panel_csv(path):
    """{j: (a_j, shifts, coeffs)} from a panel CSV, read independently."""
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    out = {}
    for j in np.unique(arr[:, 0]):
        block = arr[arr[:, 0] == j]
        block = block[np.argsort(block[:, 1])]
        out[int(j)] = (float(block[0, 2]), block[:, 3], block[:, 4])
    return out


def read_estimates_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def cli_cell_checks(sp, path, filt, schedule, panel, rng, cells=64):
    """Recompute sampled cells of every level of a CLI panel."""
    checks = []
    for lv in schedule.levels:
        if lv.j not in panel:
            checks.append({"name": "panel level %d" % lv.j, "ok": False,
                           "detail": "missing"})
            continue
        _, shifts, coeffs = panel[lv.j]
        expected_shifts = lv.shifts()
        if shifts.shape != expected_shifts.shape or np.any(
                shifts != expected_shifts):
            checks.append({"name": "panel level %d" % lv.j, "ok": False,
                           "detail": "shifts differ from the schedule"})
            continue
        idx = np.arange(lv.m_j)
        if lv.m_j > cells:
            idx = np.unique(np.concatenate(
                [[0, lv.m_j - 1], rng.choice(lv.m_j, cells, replace=False)]))
        expected = [sp.filter_transform(path, filt, lv.a_j, shifts[i])
                    for i in idx]
        checks.append(cells_agree("panel level %d" % lv.j, expected,
                                  coeffs[idx]))
    return checks


def cli_estimate_checks(panel, estimates):
    """Each estimate row's statistics match the panel it was read from."""
    js = sorted(panel)
    if len(estimates) != len(js) - 1:
        return [{"name": "estimate rows", "ok": False,
                 "detail": "%d rows for %d levels" % (len(estimates), len(js))}]
    mean_sq = {j: float(np.mean(panel[j][2] ** 2)) for j in js}
    rows = [(int(r["j"]), js[js.index(int(r["j"])) + 1], r) for r in estimates]
    diffs = [(mean_sq[j] - mean_sq[k])
             / (panel[j][0] ** -2.0 - panel[k][0] ** -2.0) for j, k, _ in rows]
    return [
        cells_agree("estimate mean squares", [mean_sq[j] for j, _, _ in rows],
                    [float(r["delta_bar"]) for _, _, r in rows]),
        cells_agree("estimate differences", diffs,
                    [float(r["ddelta"]) for _, _, r in rows]),
    ]


def task_cli_check(task):
    sp = _import_package(task["root"])
    spec = workload(task["workload"], task["smoke"])
    filt, schedule = _cli_inputs(sp, spec)
    path = _regenerate_path(sp, spec, filt, schedule, task["seed"])
    rng = np.random.default_rng(abs(task["seed"]))
    checks = []
    for cycle in task["cycles"]:
        panel = read_panel_csv(os.path.join(cycle, "transform", "panel.csv"))
        estimates = read_estimates_csv(
            os.path.join(cycle, "estimate", "estimates.csv"))
        checks += cli_cell_checks(sp, path, filt, schedule, panel, rng)
        checks += cli_estimate_checks(panel, estimates)
        checks.append(roundtrip_check("estimates.csv", estimates,
                                      filt.c2, filt.c3))
    return {"checks": checks}


def task_cli_trace(task):
    """Replay the CLI analysis in process, traced, and time every layer."""
    sp = _import_package(task["root"])
    spec = workload(task["workload"], task["smoke"])
    seed = task["seed"]
    out = {}
    filt, out["model.builtin_filter_s"] = _timed(sp.filter_from_json,
                                                spec["filter"])
    schedule = sp.schedule_from_json(spec["schedule"])
    tracer = Tracer()
    tracer.wrap(sp, "path_from_csv", "simulate.path_from_csv")
    tracer.wrap(sp, "panel_to_csv", "simulate.panel_to_csv")
    tracer.wrap(sp, "panel_from_csv", "simulate.panel_from_csv")
    tracer.wrap(sp, "estimate", "estimator.estimate")
    tracer.wrap(sp.estimator, "lambert_w0", "specfun.lambert_w0")
    panel_csv = os.path.join(task["dir"], "replay_panel.csv")
    try:
        with tracer.span("cli.replay", trace=seed, root=True):
            path = sp.path_from_csv(os.path.join(task["shared"], "path.csv"),
                                    seed)
            with tracer.span("transform.panel_from_path"):
                panel = _panel_from_path(sp, path, filt, schedule)
            sp.panel_to_csv(panel, panel_csv)
            panel = sp.panel_from_csv(panel_csv, "path-transform", seed)
            results = sp.estimate(panel, filt)
    finally:
        tracer.unwrap_all()
    tracer.dump(os.path.join(task["dir"], "trace.json"))
    span_s = lambda name: sum(_durations(tracer.named(name)))
    out["transform.panel_s"] = span_s("transform.panel_from_path")
    out["simulate.csv_read_s"] = (span_s("simulate.path_from_csv")
                                  + span_s("simulate.panel_from_csv"))
    _, out["simulate.path_s"] = _timed(_regenerate_path, sp, spec, filt,
                                       schedule, seed)
    out.update(_transform_counts(sp, spec, out["transform.panel_s"]))
    out.update(_estimator_layers(
        sp, panel, filt, [r.point.case_applied for r in results]))
    out["estimator.estimate_s"] = span_s("estimator.estimate")
    _, csv_layers = _csv_layers(sp, path, panel, task["dir"])
    out["simulate.csv_write_s"] = csv_layers["simulate.csv_write_s"]
    out.update(_exact_layers(sp, PROBE_EXACT, seed))
    out.update(_mc_probe_layers(sp, task["dir"], seed))
    return {"layers": out, "self_s": tracer.self_times()}


TASKS = {
    "mc": task_mc,
    "setup": task_setup,
    "cli-setup": task_cli_setup,
    "cli-check": task_cli_check,
    "cli-trace": task_cli_trace,
}


def main():
    task = json.loads(sys.argv[1])
    warnings.simplefilter("ignore")
    result = TASKS[task["task"]](task)
    with open(task["result"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
