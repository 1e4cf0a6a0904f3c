"""Smoke test of the benchmark itself, at shrunken sizes.

    python3 perfbench/smoke.py

Run from the repository root.  Runs every workload through run.py with
``--smoke`` in both modes, requires a correct result that names exactly
the metrics of BENCHMARK.json, then corrupts outputs and requires each
check to catch it, and runs run.py in a checkout without a source tree
and in one whose package fails to import.  Exits non-zero on the first
failure.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import specpole  # noqa: E402

import child  # noqa: E402
from checks import (cells_agree, level_moments, mean_square_checks,  # noqa: E402
                    roundtrip_check)
from workloads import WORKLOADS, workload  # noqa: E402


def fail(message):
    print("smoke: FAIL %s" % message)
    sys.exit(1)


def check_runs(bench):
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                fail("%s trace %d exit %d:\n%s%s" % (
                    name, trace, proc.returncode, proc.stdout, proc.stderr))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (name, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                fail("%s trace %d not correct: %s" % (name, trace, result))
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                fail("%s trace %d metrics differ from BENCHMARK.json: "
                     "missing %s, extra %s" % (
                         name, trace, sorted(set(wanted) - set(got)),
                         sorted(set(got) - set(wanted))))
            print("smoke: %s trace %d ok (%d attempted)"
                  % (name, trace, result["attempted"]))


def check_broken_checkouts(tmp):
    """Without a source tree run.py prints no result; with a broken one it
    reports each failed process in a result line with correct false."""
    base = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            "exact-c6", "--seed", "1", "--seconds", "1", "--smoke"]
    for name, package in (("bare", None), ("broken", "raise SystemExit(3)\n")):
        root = os.path.join(tmp, name)
        os.makedirs(root)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
        if package is not None:
            os.makedirs(os.path.join(root, "src", "specpole"))
            with open(os.path.join(root, "src", "specpole", "__init__.py"),
                      "w") as handle:
                handle.write(package)
        proc = subprocess.run(base, cwd=root, capture_output=True, text=True,
                              timeout=120)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0:
            fail("%s checkout: exit 0" % name)
        if package is None:
            if lines and lines[-1].startswith("{"):
                fail("bare checkout printed a result")
            continue
        result = json.loads(lines[-1])
        if result["correct"] or result["failed"] < 1:
            fail("broken checkout not reported as failed: %s" % result)
    print("smoke: broken checkouts are reported")


def check_exact_corruption(tmp):
    spec = workload("exact-c6", smoke=True)
    doc = dict(spec["doc"], base_seed=5, replications=40,
               out_dir=os.path.join(tmp, "mc"))
    table = specpole.run_experiment(specpole.experiment_from_json(doc))
    model = specpole.model_from_json(doc["model"])
    filt = specpole.builtin_filter(doc["filter"]["name"])
    moments = level_moments(table.rows)
    targets = {k: specpole.scale_second_moment(model, filt, float(k))
               for k in moments}
    if not all(c["ok"] for c in mean_square_checks(moments, targets)):
        fail("mean-square check rejects a clean run")
    bad = copy.deepcopy(moments)
    key = sorted(bad)[0]
    n, s, ss = bad[key]
    shift = 0.2 * s / n
    bad[key] = [n, s + n * shift, ss + 2 * shift * s + n * shift * shift]
    if all(c["ok"] for c in mean_square_checks(bad, targets)):
        fail("mean-square check misses a level mean shifted by 20%")
    check_roundtrip(table.rows, filt)
    if not child._artifact_check(doc, table)["ok"]:
        fail("artifact check rejects a clean run")
    path = os.path.join(doc["out_dir"], "replications.csv")
    with open(path) as handle:
        lines = handle.readlines()
    with open(path, "w") as handle:
        handle.writelines(lines[:-1])
    if child._artifact_check(doc, table)["ok"]:
        fail("artifact check misses a truncated replications.csv")
    print("smoke: exact checks catch corrupted outputs")


def check_roundtrip(rows, filt):
    """The estimate round trip passes clean rows and catches bad ones."""
    if not roundtrip_check("clean", rows, filt.c2, filt.c3)["ok"]:
        fail("round-trip check rejects clean estimates")
    index = next(i for i, r in enumerate(rows) if r["case"] == "none")
    for key, how in (("s0_hat", 1 + 1e-8), ("alpha_hat", 1 - 1e-8),
                     ("case", "case1")):
        bad = copy.deepcopy(list(rows))
        if key == "case":
            bad[index][key] = how
        else:
            bad[index][key] = float(bad[index][key]) * how
        if roundtrip_check("bad", bad, filt.c2, filt.c3)["ok"]:
            fail("round-trip check misses a corrupted %s" % key)


def check_cli_corruption(tmp):
    # Uses the panel and estimates written by the cli-analyze smoke run.
    spec = workload("cli-analyze", smoke=True)
    cycle = os.path.join(ROOT, ".bench_runs", "cli-analyze", "cycle-00")
    filt, schedule = child._cli_inputs(specpole, spec)
    path = child._regenerate_path(specpole, spec, filt, schedule, 1)
    panel_csv = os.path.join(cycle, "transform", "panel.csv")
    panel = child.read_panel_csv(panel_csv)
    estimates = child.read_estimates_csv(
        os.path.join(cycle, "estimate", "estimates.csv"))
    rng = child.np.random.default_rng(1)
    clean = (child.cli_cell_checks(specpole, path, filt, schedule, panel, rng)
             + child.cli_estimate_checks(panel, estimates))
    if not all(c["ok"] for c in clean):
        fail("CLI checks reject a clean panel: %s" % clean)
    if not roundtrip_check("clean", estimates, filt.c2, filt.c3)["ok"]:
        fail("round-trip check rejects clean CLI estimates")
    bad = copy.deepcopy(estimates)
    bad[0]["alpha_hat"] = repr(float(bad[0]["alpha_hat"]) * (1 + 1e-8))
    if roundtrip_check("bad", bad, filt.c2, filt.c3)["ok"]:
        fail("round-trip check misses a corrupted CLI alpha_hat")
    shutil.copy(panel_csv, os.path.join(tmp, "panel.csv"))
    with open(os.path.join(tmp, "panel.csv")) as handle:
        lines = handle.readlines()
    fields = lines[-1].rstrip("\n").split(",")
    fields[4] = repr(float(fields[4]) + 1e-6)
    lines[-1] = ",".join(fields) + "\n"
    with open(os.path.join(tmp, "panel.csv"), "w") as handle:
        handle.writelines(lines)
    bad = child.read_panel_csv(os.path.join(tmp, "panel.csv"))
    if all(c["ok"] for c in child.cli_cell_checks(
            specpole, path, filt, schedule, bad, rng)):
        fail("CLI cell check misses a corrupted coefficient")
    if all(c["ok"] for c in child.cli_estimate_checks(bad, estimates)):
        fail("CLI estimate check misses a panel that no longer matches")
    if cells_agree("x", [1.0, 2.0], [1.0, 2.0 + 1e-9])["ok"]:
        fail("cells_agree accepts a 5e-10 relative difference")
    print("smoke: CLI checks catch corrupted outputs")


def main():
    warnings.simplefilter("ignore")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    check_runs(bench)
    tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_runs"))
    try:
        check_broken_checkouts(tmp)
        check_exact_corruption(tmp)
        check_cli_corruption(tmp)
    finally:
        shutil.rmtree(tmp)
    print("smoke: all ok")


if __name__ == "__main__":
    main()
