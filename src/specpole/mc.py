"""Replication harness for the estimation experiment.

Runs many independent realizations of a configured pipeline, estimates
each, and aggregates mean squared errors against the known limits.
Both generation back-ends plug in here: the exact Gaussian sampler
(needs a closed spectral density) and the simulated-path route (needs a
moving-average recipe pushed through the time-domain filter).

Replication i has seed base_seed + i.  Replications run in batches of
up to _BATCH stacked coefficients, in the calling thread: a batch is one
panel of (R, m_j) blocks, sampled with one matrix product per level on
the exact backend (or stacked from per-seed path panels), and estimated
as arrays.  A batch that fails numerically is rerun one replication at
a time, so failures are still recorded per replication.  Every heavy
step is BLAS or numpy, which already uses the cores.
"""

import json
import numbers
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .estimator import estimate
from .model import (
    ConfigError,
    GegenbauerSpec,
    SpectralModel,
    _document,
    _field,
    _filter_args,
    builtin_filter,
    filter_to_json,
    model_from_json,
    model_to_json,
)
from .simulate import (
    PROVENANCES,
    CoefficientPanel,
    PanelLevel,
    exact_coefficient_sample,
    gegenbauer_path,
)
from .transform import (
    lattice_window,
    panel_from_path,
    schedule_from_json,
    schedule_to_json,
)

__all__ = [
    "ExperimentConfig",
    "MseTable",
    "run_experiment",
    "summarize",
    "summary_json",
    "write_outputs",
    "experiment_from_json",
    "experiment_to_json",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Full description of one replication experiment."""

    model: object
    filter_name: str
    schedule: object
    backend: str
    replications: int
    base_seed: int
    sigma: float = 1.0
    out_dir: str = None

    def __post_init__(self):
        if self.backend not in PROVENANCES:
            raise ValueError(
                "ExperimentConfig: backend must be one of %r" % (PROVENANCES,)
            )
        for name in ("replications", "base_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError("ExperimentConfig: %s must be an integer" % name)
            object.__setattr__(self, name, int(value))
        if self.replications < 1:
            raise ValueError("ExperimentConfig: replications must be >= 1")
        filt = builtin_filter(self.filter_name, sigma=self.sigma)
        if self.backend == "exact-gaussian":
            if not isinstance(self.model, SpectralModel):
                raise TypeError(
                    "ExperimentConfig: the exact-gaussian backend needs a "
                    "SpectralModel; a moving-average spec has no closed "
                    "density to integrate"
                )
        else:
            if not isinstance(self.model, GegenbauerSpec):
                raise TypeError(
                    "ExperimentConfig: the path-transform backend needs a "
                    "GegenbauerSpec recipe; use exact-gaussian for density "
                    "models"
                )
            if filt.psi is None:
                raise ValueError(
                    "ExperimentConfig: filter %r has no time-domain form, "
                    "so it cannot transform simulated paths" % self.filter_name
                )

    def targets(self):
        """Nominal (s0, alpha) and the limits of the two statistics.

        The statistics converge to c2 f(0) and c3 f''(0)/4 of the model's
        own density.  For a unit-h pole density these equal the paper's
        map of the nominal (s0, alpha); for the truncated Gegenbauer
        moving average they do not, and its nominal pair is reported as is.
        """
        f0, f2 = self.model.zero_limits()
        filt = builtin_filter(self.filter_name, sigma=self.sigma)
        return {
            "s0": self.model.s0,
            "alpha": self.model.alpha,
            "delta_bar": filt.c2 * f0,
            "ddelta": filt.c3 * f2,
        }


def experiment_from_json(doc, pointer=""):
    """Build a config from its JSON document form."""
    doc = _document(doc, pointer)

    def section(key):
        return _field(doc, pointer, key, "object"), "%s/%s" % (pointer, key)

    model = model_from_json(*section("model"))
    name, sigma = _filter_args(*section("filter"))
    schedule = schedule_from_json(*section("schedule"))
    backend = _field(doc, pointer, "backend", "string")
    if backend not in PROVENANCES:
        raise ConfigError(
            pointer + "/backend", "must be one of %s" % (sorted(PROVENANCES),)
        )
    return ExperimentConfig(
        model=model,
        filter_name=name,
        sigma=sigma,
        schedule=schedule,
        backend=backend,
        replications=_field(doc, pointer, "replications", "integer"),
        base_seed=_field(doc, pointer, "base_seed", "integer"),
        out_dir=_field(doc, pointer, "out_dir", "string", required=False),
    )


def experiment_to_json(config):
    """JSON document form of a config (inverse of experiment_from_json)."""
    doc = {
        "model": model_to_json(config.model),
        "filter": filter_to_json(
            builtin_filter(config.filter_name, sigma=config.sigma)
        ),
        "schedule": schedule_to_json(config.schedule),
        "backend": config.backend,
        "replications": config.replications,
        "base_seed": config.base_seed,
    }
    if config.out_dir is not None:
        doc["out_dir"] = str(config.out_dir)
    return doc


# ---------------------------------------------------------------------------
# Replication execution
# ---------------------------------------------------------------------------


# Most coefficients one batch of replications holds (8 MB of float64):
# a batch takes as many replications as fit, and at least one.
_BATCH = 1 << 20


def _batched_panel(config, filt, seeds):
    """One panel of the replications drawn from ``seeds``, a tuple."""
    if config.backend == "exact-gaussian":
        return exact_coefficient_sample(config.model, filt, config.schedule, seeds)
    t_lo, t_hi = lattice_window(filt, config.schedule)
    panels = [
        panel_from_path(
            gegenbauer_path(config.model, t_hi - t_lo + 1, float(t_lo), 1.0, seed),
            filt,
            config.schedule,
        )
        for seed in seeds
    ]
    levels = tuple(
        PanelLevel(j=lvs[0].j, a_j=lvs[0].a_j, shifts=lvs[0].shifts,
                   coeffs=np.stack([lv.coeffs for lv in lvs]))
        for lvs in zip(*(p.levels for p in panels))
    )
    return CoefficientPanel(levels=levels, provenance=config.backend, seed=seeds)


def _replicate(config, filt, reps):
    """Sample and estimate the replications ``reps`` as one batch.

    Returns their indices and (levels, R) arrays of the statistics, the
    estimates and the adjustment cases; the last level has no successor,
    so it has only its mean square.
    """
    reps = list(reps)
    panel = _batched_panel(config, filt, tuple(config.base_seed + r for r in reps))
    results = estimate(panel, filt)
    return {
        "rep": np.array(reps),
        "delta_bar": np.array([r.row.delta_bar for r in results]
                              + [results[-1].row.delta_bar_next]),
        "ddelta": np.array([r.row.ddelta for r in results]),
        "s0_hat": np.array([r.s0_hat for r in results]),
        "alpha_hat": np.array([r.alpha_hat for r in results]),
        "case": np.array([r.point.case_applied for r in results]),
    }


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MseTable:
    """Aggregated mean squared errors, one entry per scale level."""

    js: tuple
    a_js: tuple
    counts: tuple
    mse_delta_bar: tuple
    mse_ddelta: tuple
    mse_s0_hat: tuple
    mse_alpha_hat: tuple
    targets: dict
    replications: int
    failures: tuple
    rows: tuple = field(repr=False)


def _aggregate(config, batches, failures):
    targets = config.targets()
    js = tuple(lv.j for lv in config.schedule.levels)
    a_js = tuple(lv.a_j for lv in config.schedule.levels)
    cols = {key: np.concatenate([b[key] for b in batches], axis=-1)
            for key in batches[0]}
    mse = {
        key: tuple(np.mean((cols[key] - targets[target]) ** 2, axis=1).tolist())
        for key, target in (("delta_bar", "delta_bar"), ("ddelta", "ddelta"),
                            ("s0_hat", "s0"), ("alpha_hat", "alpha"))
    }
    cols = {key: col.tolist() for key, col in cols.items()}
    rows = []
    for k, rep in enumerate(cols["rep"]):
        for i, j in enumerate(js):
            last = i == len(js) - 1
            rows.append(
                {
                    "rep": rep,
                    "seed": config.base_seed + rep,
                    "j": j,
                    "a_j": a_js[i],
                    "delta_bar": cols["delta_bar"][i][k],
                    "ddelta": None if last else cols["ddelta"][i][k],
                    "s0_hat": None if last else cols["s0_hat"][i][k],
                    "alpha_hat": None if last else cols["alpha_hat"][i][k],
                    "case": "" if last else cols["case"][i][k],
                }
            )
    return MseTable(
        js=js,
        a_js=a_js,
        counts=(len(cols["rep"]),) * len(js),
        mse_delta_bar=mse["delta_bar"],
        mse_ddelta=mse["ddelta"] + (None,),
        mse_s0_hat=mse["s0_hat"] + (None,),
        mse_alpha_hat=mse["alpha_hat"] + (None,),
        targets=targets,
        replications=config.replications,
        failures=tuple(failures),
        rows=tuple(rows),
    )


def run_experiment(config):
    """Run all replications, aggregate, and write outputs if configured.

    Replications run in batches of as many as hold about _BATCH
    coefficients, each sampled and estimated as arrays.  A batch that
    fails numerically is rerun one replication at a time, so each
    failure is recorded and skipped on its own; more than 20% of them
    aborts the experiment.  With out_dir set, writes replications.csv,
    mse_table.csv and summary.json.
    """
    filt = builtin_filter(config.filter_name, sigma=config.sigma)
    n_rep = config.replications
    size = max(1, _BATCH // sum(lv.m_j for lv in config.schedule.levels))
    batches, failures = [], []
    for first in range(0, n_rep, size):
        reps = range(first, min(first + size, n_rep))
        try:
            batches.append(_replicate(config, filt, reps))
            continue
        except (ArithmeticError, ValueError):
            pass
        for rep in reps:
            try:
                batches.append(_replicate(config, filt, [rep]))
            except (ArithmeticError, ValueError) as exc:
                failures.append((rep, "%s: %s" % (type(exc).__name__, exc)))
    if len(failures) > 0.2 * n_rep:
        raise RuntimeError(
            "run_experiment: %d of %d replications failed (over 20%%); "
            "first error: %s" % (len(failures), n_rep, failures[0][1])
        )
    if failures:
        warnings.warn(
            "run_experiment: %d of %d replications failed and were skipped"
            % (len(failures), n_rep)
        )
    table = _aggregate(config, batches, failures)
    if config.out_dir is not None:
        write_outputs(table, config.out_dir)
    return table


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _fmt(value):
    return "" if value is None else "%.17g" % value


def write_outputs(table, out_dir):
    """Write replications.csv, mse_table.csv and summary.json."""
    os.makedirs(out_dir, exist_ok=True)
    rep_path = os.path.join(out_dir, "replications.csv")
    with open(rep_path, "w") as handle:
        handle.write("rep,seed,j,a_j,delta_bar,ddelta,s0_hat,alpha_hat,case\n")
        for row in table.rows:
            handle.write(
                "%d,%d,%d,%s,%s,%s,%s,%s,%s\n"
                % (
                    row["rep"],
                    row["seed"],
                    row["j"],
                    _fmt(row["a_j"]),
                    _fmt(row["delta_bar"]),
                    _fmt(row["ddelta"]),
                    _fmt(row["s0_hat"]),
                    _fmt(row["alpha_hat"]),
                    row["case"],
                )
            )
    mse_path = os.path.join(out_dir, "mse_table.csv")
    with open(mse_path, "w") as handle:
        handle.write("j,a_j,n,mse_delta_bar,mse_ddelta,mse_s0_hat,mse_alpha_hat\n")
        for i, j in enumerate(table.js):
            handle.write(
                "%d,%s,%d,%s,%s,%s,%s\n"
                % (
                    j,
                    _fmt(table.a_js[i]),
                    table.counts[i],
                    _fmt(table.mse_delta_bar[i]),
                    _fmt(table.mse_ddelta[i]),
                    _fmt(table.mse_s0_hat[i]),
                    _fmt(table.mse_alpha_hat[i]),
                )
            )
    with open(os.path.join(out_dir, "summary.json"), "w") as handle:
        json.dump(summary_json(table), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return rep_path, mse_path


def summary_json(table):
    """Machine-readable form of the aggregated table."""
    return {
        "replications": table.replications,
        "failed": len(table.failures),
        "failures": [list(f) for f in table.failures],
        "targets": dict(table.targets),
        "per_j": [
            {
                "j": table.js[i],
                "a_j": table.a_js[i],
                "n": table.counts[i],
                "mse_delta_bar": table.mse_delta_bar[i],
                "mse_ddelta": table.mse_ddelta[i],
                "mse_s0_hat": table.mse_s0_hat[i],
                "mse_alpha_hat": table.mse_alpha_hat[i],
            }
            for i in range(len(table.js))
        ],
    }


def summarize(table):
    """Aligned text report, one block per scale level."""
    if not table.js:
        raise ValueError("summarize: table has no levels")
    t = table.targets
    lines = [
        "replications: %d (%d failed)"
        % (table.replications, len(table.failures)),
        "targets: s0 = %.6g, alpha = %.6g, mean square -> %.6g, "
        "difference -> %.6g"
        % (t["s0"], t["alpha"], t["delta_bar"], t["ddelta"]),
        "",
        "%3s %8s %5s %14s %14s %14s %14s"
        % ("j", "a_j", "n", "mse(mean sq)", "mse(diff)", "mse(s0)", "mse(alpha)"),
    ]
    for i, j in enumerate(table.js):
        def cell(value):
            return "%14.6g" % value if value is not None else "%14s" % "-"

        lines.append(
            "%3d %8g %5d %s %s %s %s"
            % (
                j,
                table.a_js[i],
                table.counts[i],
                cell(table.mse_delta_bar[i]),
                cell(table.mse_ddelta[i]),
                cell(table.mse_s0_hat[i]),
                cell(table.mse_alpha_hat[i]),
            )
        )
    return "\n".join(lines) + "\n"
