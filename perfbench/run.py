"""specpole benchmark: the parent process of every run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is used straight from
``src/`` (there is nothing to build).  Every measurement runs in a fresh
child interpreter, one at a time, because specpole keeps a process-global
factor cache and every ``specpole montecarlo`` call pays its cold cost.
Children are started until the next one would end past ``--seconds``.

With ``--trace 0`` the last line of output reports the end-to-end
metrics of BENCHMARK.json (medians over the run's children, CLI steps,
warm calls and set-ups); with
``--trace 1`` it reports the per-layer metrics of one traced child.
Work files go to ``.bench_runs/<workload>/`` and are replaced by the next
run of that workload.  See NOTES.md for what each workload is for.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from checks import mean_square_checks, pool_moments
from tracing import Tracer
from workloads import WORKLOADS, workload

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_CHILDREN = 2
CLI_SETUPS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")


class Run:
    """One benchmark invocation: its children, checks and counters."""

    def __init__(self, root, args):
        self.root = root
        self.name = args.workload
        self.seed = args.seed
        self.smoke = args.smoke
        self.spec = workload(args.workload, args.smoke)
        self.dir = os.path.join(root, ".bench_runs", args.workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        src = os.path.join(root, "src")
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.deadline = time.monotonic() + args.seconds
        self.children = []
        self.checks = []
        self.attempted = 0
        self.failed = 0

    def spawn(self, cmd, label):
        """Run one process to completion; its wall and CPU time, peak RSS.

        Every process counts as attempted, and as failed if it exits
        non-zero.
        """
        n = len(self.children)
        log_path = os.path.join(self.dir, "%03d-%s.log" % (n, label))
        load_before = os.getloadavg()
        with open(log_path, "w") as log:
            t_launch = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t_launch
        proc.returncode = os.waitstatus_to_exitcode(status)
        entry = {
            "label": label, "exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "load_before": load_before, "load_after": os.getloadavg(),
            "log": os.path.relpath(log_path, self.root),
        }
        self.children.append(entry)
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            self.checks.append({"name": "%s exit" % label, "ok": False,
                                "detail": "exit code %d, see %s"
                                % (proc.returncode, entry["log"])})
        return entry

    def child(self, task, **fields):
        """Run child.py on one task; (spawn entry, result or None)."""
        directory = os.path.join(self.dir, "%03d-%s" % (len(self.children),
                                                        task))
        os.makedirs(directory)
        fields.update(task=task, workload=self.name, smoke=self.smoke,
                      root=self.root, dir=directory, shared=self.dir,
                      result=os.path.join(directory, "result.json"))
        fields["t_launch"] = time.monotonic()
        entry = self.spawn([sys.executable, CHILD, json.dumps(fields)], task)
        entry["dir"] = directory
        if entry["exit"] != 0:
            return entry, None
        with open(fields["result"]) as handle:
            result = json.load(handle)
        self.add_checks(result.get("checks", ()))
        return entry, result

    def cli(self, args, label):
        return self.spawn([sys.executable, "-m", "specpole.cli"] + args, label)

    def add_checks(self, checks):
        for check in checks:
            self.checks.append(check)
            self.attempted += 1
            self.failed += 0 if check["ok"] else 1

    def next_fits(self, durations):
        return time.monotonic() + max(durations) <= self.deadline


def base_seed(seed, index):
    """Disjoint replication seed ranges for each child of each run."""
    return (seed << 32) + (index << 24)


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


def _mc_child(run, index, trace):
    entry, result = run.child("mc", base_seed=base_seed(run.seed, index),
                              trace=trace)
    if result is not None:
        run.attempted += result["reps"]
        run.failed += result["failed_reps"]
        entry["cold_wall_s"] = result["wall_s"]
        entry["warm_chunk_s"] = result["warm_chunk_s"]
    return entry, result


def _pooled_checks(run, results):
    """Mean squares pooled over the run's children (exact backend only)."""
    parts = [r["moments"] for r in results if "moments" in r]
    if parts:
        targets = {}
        for r in results:
            targets.update(r["targets"])
        run.add_checks(mean_square_checks(pool_moments(parts), targets))


def mc_end_to_end(run):
    # Set-up-only children come first, so the deadline covers them.
    setups = []
    for index in range(SETUP_CHILDREN):
        _, result = run.child("setup", base_seed=base_seed(run.seed, index))
        if result is None:
            return {}
        setups.append(result["setup_s"])
    done = []
    while True:
        entry, result = _mc_child(run, SETUP_CHILDREN + len(done), trace=False)
        if result is None:
            break
        done.append((entry, result))
        if not run.next_fits([e["wall_s"] for e, _ in done]):
            break
    _pooled_checks(run, [r for _, r in done])
    if not done:
        return {}
    setups += [r["setup_s"] for _, r in done]
    # Medians over the whole run: of the children's times to result, of
    # every warm call and of every set-up.  The fastest child or call is
    # an outlier of the host's short fast spells (see NOTES.md).
    chunk_s = [t for _, r in done for t in r["warm_chunk_s"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for _, r in done),
        "setup_s": statistics.median(setups),
        "reps_per_s": done[0][1]["warm_chunk"] / statistics.median(chunk_s),
        "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e, _ in done),
    }


def mc_layers(run):
    _, plain = _mc_child(run, 0, trace=False)
    traced_entry, traced = _mc_child(run, 1, trace=True)
    _pooled_checks(run, [r for r in (plain, traced) if r])
    if plain is None or traced is None:
        return {}, {}
    layers = dict(traced["layers"])
    layers.update(_cli_probes(run, traced_entry["dir"]))
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return layers, traced["self_s"]


def _cli_probes(run, directory):
    """CLI start-up, transform and estimate on the traced child's inputs."""
    version = run.cli(["--version"], "cli-version")
    tr = run.cli(["transform", "--config",
                  os.path.join(directory, "cli_transform.json"),
                  "--out", os.path.join(directory, "cli_transform")],
                 "cli-transform")
    est = run.cli(["estimate", "--config",
                   os.path.join(directory, "cli_estimate.json"),
                   "--out", os.path.join(directory, "cli_estimate")],
                  "cli-estimate")
    return {"cli.startup_s": version["wall_s"],
            "cli.transform_s": tr["wall_s"],
            "cli.estimate_s": est["wall_s"]}


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


def _cli_cycle(run, tracer=None):
    """`specpole transform` then `specpole estimate` on the run's path."""
    cycle = os.path.join(run.dir, "cycle-%02d" % sum(
        1 for c in run.children if c["label"] == "cli-transform"))
    os.makedirs(cycle)
    est_config = os.path.join(cycle, "estimate.json")
    with open(est_config, "w") as handle:
        json.dump({"panel_csv": os.path.join(cycle, "transform", "panel.csv"),
                   "filter": run.spec["filter"], "seed": run.seed}, handle)
    steps = (
        ("cli-transform", ["transform", "--config",
                           os.path.join(run.dir, "transform.json"),
                           "--out", os.path.join(cycle, "transform")]),
        ("cli-estimate", ["estimate", "--config", est_config,
                          "--out", os.path.join(cycle, "estimate")]),
    )
    entries = []
    for label, args in steps:
        if tracer is None:
            entries.append(run.cli(args, label))
        else:
            with tracer.span(label.replace("-", "."), trace=cycle):
                entries.append(run.cli(args, label))
    return cycle, entries, all(e["exit"] == 0 for e in entries)


def _cli_check(run, cycles):
    run.child("cli-check", seed=run.seed, cycles=cycles)


def _cli_setups(run):
    """Set-up times of CLI_SETUPS children; the first writes the path CSV."""
    setups = []
    for i in range(CLI_SETUPS):
        _, result = run.child("cli-setup", seed=run.seed, write=i == 0)
        if result is None:
            break
        setups.append(result["setup_s"])
    return setups


def cli_end_to_end(run):
    setups = _cli_setups(run)
    if len(setups) < CLI_SETUPS:
        return {}
    cycles, steps, rss = [], [], []
    while True:
        cycle, entries, ok = _cli_cycle(run)
        cycles.append(cycle)
        if not ok:
            break
        steps.append([e["wall_s"] for e in entries])
        rss.append(max(e["peak_rss_mb"] for e in entries))
        if not run.next_fits([sum(s) for s in steps]):
            break
    _cli_check(run, cycles)
    if not steps:
        return {}
    # The median transform plus the median estimate; panels per second
    # is derived from the same time.
    wall = sum(statistics.median(column) for column in zip(*steps))
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "reps_per_s": 1.0 / wall,
        "peak_rss_mb": statistics.median(rss),
    }


def cli_layers(run):
    _, setup = run.child("cli-setup", seed=run.seed, write=True)
    if setup is None:
        return {}, {}
    plain_cycle, plain, ok_plain = _cli_cycle(run)
    tracer = Tracer()
    with tracer.span("cli.cycle", trace=run.seed, root=True):
        traced_cycle, traced, ok_traced = _cli_cycle(run, tracer)
    tracer.dump(os.path.join(run.dir, "cli_spans.json"))
    version = run.cli(["--version"], "cli-version")
    _cli_check(run, [plain_cycle, traced_cycle])
    _, replay = run.child("cli-trace", seed=run.seed)
    if not (ok_plain and ok_traced and version["exit"] == 0 and replay):
        return {}, {}
    layers = dict(replay["layers"])
    layers.update({
        "cli.startup_s": version["wall_s"],
        "cli.transform_s": traced[0]["wall_s"],
        "cli.estimate_s": traced[1]["wall_s"],
        "trace.overhead_s": (sum(e["wall_s"] for e in traced)
                             - sum(e["wall_s"] for e in plain)),
    })
    return layers, replay["self_s"]


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def _versions():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
    }


def reference_s(repeats=3):
    """Fastest of a few runs of a fixed pure-Python loop (0.1 to 0.2 s).

    Written to the run record before and after each run, so that two
    runs can be compared for host speed apart from the code under test.
    """
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def _record(run, args, load_before, ref_before):
    doc = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "workers": (run.spec["doc"]["workers"] if run.spec["kind"] == "mc"
                    else 1),
        "load_before": load_before, "load_after": os.getloadavg(),
        "reference_s_before": ref_before, "reference_s_after": reference_s(),
        "children": run.children,
        "checks": run.checks,
    }
    doc.update(_versions())
    path = os.path.join(run.dir, "record.json")
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)
    return path


def _print_self_times(self_s):
    total = sum(self_s.values()) or 1.0
    print("self time by span (traced child):")
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print("  %-36s %10.4f s %6.1f %%" % (name, value, 100 * value / total))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken sizes, for smoke.py")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "specpole",
                                       "__init__.py")):
        print("run.py: no specpole source at %s; run from the repository "
              "root" % os.path.join(root, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    load_before = os.getloadavg()
    ref_before = reference_s()
    run = Run(root, args)
    mc = run.spec["kind"] == "mc"
    self_s = None
    if args.trace:
        values, self_s = (mc_layers if mc else cli_layers)(run)
    else:
        values = (mc_end_to_end if mc else cli_end_to_end)(run)
    record = _record(run, args, load_before, ref_before)

    for check in run.checks:
        if not check["ok"]:
            print("FAILED %s: %s" % (check["name"], check["detail"]))
    if self_s:
        _print_self_times(self_s)
    print("record: %s" % os.path.relpath(record, root))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("run.py: metrics not produced: %s" % ", ".join(missing),
              file=sys.stderr)
    correct = (run.failed == 0 and not missing
               and all(c["ok"] for c in run.checks))
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
