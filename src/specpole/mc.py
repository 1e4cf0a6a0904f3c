"""Replication harness for the estimation experiment.

Runs many independent realizations of a configured pipeline, estimates
each, and aggregates mean squared errors against the known limits.
Both generation back-ends plug in here: the exact Gaussian sampler
(needs a closed spectral density) and the simulated-path route (needs a
moving-average recipe pushed through the time-domain filter).

Replication i has seed base_seed + i.  Replications run in batches of
up to _BATCH coefficients, in the calling thread.  A batch keeps, at
each level, only the R mean squares that the estimator reads (a
LevelMeans), and is estimated as arrays.  The exact backend reduces
each level's one triangular product of R rows; the path backend sums
each seed's squared coefficients as the transform computes them, block
by block, so no batch holds a coefficient panel.  A batch that fails
numerically is rerun one replication at a time, so failures are still
recorded per replication.  Every heavy step is BLAS or numpy, which
already uses the cores.
"""

import numbers
import operator
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .estimator import estimate
from .model import (
    _FILTER,
    _MODEL,
    _REQUIRED,
    ConfigError,
    FilterSpec,
    GegenbauerSpec,
    SpectralModel,
    _read_config,
    _write_csv,
    _write_json,
    filter_to_json,
    model_to_json,
)
from .simulate import (
    PROVENANCES,
    CoefficientPanel,
    LevelMeans,
    exact_coefficient_sample,
    gegenbauer_path,
)
from .transform import _SCHEDULE, _level_blocks, lattice_window, schedule_to_json

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
    # A built FilterSpec, passed to every step of the experiment
    filt: object
    schedule: object
    backend: str
    replications: int
    base_seed: int
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
        if not isinstance(self.filt, FilterSpec):
            raise TypeError(
                "ExperimentConfig: filt must be a FilterSpec, such as "
                "builtin_filter(name) gives"
            )
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
            if self.filt.psi is None:
                raise ValueError(
                    "ExperimentConfig: filter %r has no time-domain form, "
                    "so it cannot transform simulated paths" % self.filt.name
                )

    def targets(self):
        """Nominal (s0, alpha) and the limits of the two statistics.

        The statistics converge to c2 f(0) and c3 f''(0)/4 of the model's
        own density.  For a unit-h pole density these equal the paper's
        map of the nominal (s0, alpha); for the truncated Gegenbauer
        moving average they do not, and its nominal pair is reported as is.
        """
        f0, f2 = self.model.zero_limits()
        return {
            "s0": self.model.s0,
            "alpha": self.model.alpha,
            "delta_bar": self.filt.c2 * f0,
            "ddelta": self.filt.c3 * f2,
        }


# The keys of an experiment document, in the order of ExperimentConfig's
# fields, as model._read_config reads them
_KEYS = (
    ("model", _MODEL, _REQUIRED), ("filter", _FILTER, _REQUIRED),
    ("schedule", _SCHEDULE, _REQUIRED), ("backend", "string", _REQUIRED),
    ("replications", "integer", _REQUIRED), ("base_seed", "integer", _REQUIRED),
    ("out_dir", "string", None),
)


def _read_experiment(doc, pointer):
    """The config of doc and the manifest's form of what was read."""
    *values, read = _read_config(doc, pointer, *_KEYS)
    if read["backend"] not in PROVENANCES:
        raise ConfigError(
            pointer + "/backend", "must be one of %s" % (sorted(PROVENANCES),)
        )
    return ExperimentConfig(*values), read


def experiment_from_json(doc, pointer=""):
    """Build a config from its JSON document form; other keys are ignored."""
    return _read_experiment(doc, pointer)[0]


def experiment_to_json(config):
    """JSON document form of a config (inverse of experiment_from_json)."""
    doc = {
        "model": model_to_json(config.model),
        "filter": filter_to_json(config.filt),
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


# Most coefficients one batch of replications samples at once (8 MB of
# float64): a batch takes as many replications as fit, and at least one.
# The exact backend holds one level's (R, m_j) product at a time; the
# path backend holds one seed's path and one transform block.  Either
# keeps only R mean squares per level.
_BATCH = 1 << 20


def _batched_panel(config, seeds):
    """One panel of the replications drawn from ``seeds``, a tuple: at
    each level, a LevelMeans of their mean squares."""
    if config.backend == "exact-gaussian":
        return exact_coefficient_sample(config.model, config.filt, config.schedule, seeds)
    # each seed's path, its squared coefficients summed block by block
    t_lo, t_hi = lattice_window(config.filt, config.schedule)
    sums = {lv.j: np.zeros(len(seeds)) for lv in config.schedule.levels}
    for r, seed in enumerate(seeds):
        path = gegenbauer_path(config.model, t_hi - t_lo + 1, float(t_lo), 1.0, seed)
        for lv, _, _, coeffs in _level_blocks(path, config.filt, config.schedule):
            sums[lv.j][r] += np.sum(coeffs**2)
    levels = tuple(LevelMeans(lv.j, lv.a_j, sums[lv.j] / lv.m_j)
                   for lv in config.schedule.levels)
    return CoefficientPanel(levels=levels, provenance=config.backend, seed=seeds)


def _replicate(config, reps):
    """Sample and estimate the replications ``reps`` as one batch.

    Returns their indices and (levels, R) arrays of the statistics, the
    estimates and the adjustment cases; the last level has no successor,
    so it has only its mean square.
    """
    reps = list(reps)
    panel = _batched_panel(config, tuple(config.base_seed + r for r in reps))
    results = estimate(panel, config.filt)
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

    Replications run in batches of as many as sample about _BATCH
    coefficients, each reduced to mean squares and estimated as arrays.
    A batch that fails numerically is rerun one replication at a time,
    so each failure is recorded and skipped on its own; more than 20% of
    them aborts the experiment.  With out_dir set, writes replications.csv,
    mse_table.csv and summary.json.
    """
    n_rep = config.replications
    size = max(1, _BATCH // sum(lv.m_j for lv in config.schedule.levels))
    batches, failures = [], []
    for first in range(0, n_rep, size):
        reps = range(first, min(first + size, n_rep))
        try:
            batches.append(_replicate(config, reps))
            continue
        except (ArithmeticError, ValueError):
            pass
        for rep in reps:
            try:
                batches.append(_replicate(config, [rep]))
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


# The files that write_outputs writes into its directory.
_OUTPUTS = ("replications.csv", "mse_table.csv", "summary.json")

# The columns of replications.csv, keys of MseTable.rows.
_ROW_FIELDS = (
    "rep", "seed", "j", "a_j", "delta_bar", "ddelta", "s0_hat", "alpha_hat", "case",
)

# A replications.csv row as one %-format of model._cell's fields (a call
# per field took 0.145 s for 40,000 rows); the last level has five.
_ROW = "%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
_LAST_ROW = "%d,%d,%d,%.17g,%.17g,,,,\n"

# The per-level fields of an MseTable: the column of mse_table.csv and
# summary.json's per_j, the MseTable attribute, and the heading, width
# and conversion of summarize's table.
_LEVEL_FIELDS = (
    ("j", "js", "j", 3, "d"),
    ("a_j", "a_js", "a_j", 8, "g"),
    ("n", "counts", "n", 5, "d"),
    ("mse_delta_bar", "mse_delta_bar", "mse(mean sq)", 14, ".6g"),
    ("mse_ddelta", "mse_ddelta", "mse(diff)", 14, ".6g"),
    ("mse_s0_hat", "mse_s0_hat", "mse(s0)", 14, ".6g"),
    ("mse_alpha_hat", "mse_alpha_hat", "mse(alpha)", 14, ".6g"),
)


def _per_level(table):
    """One {column: value} record per level, columns as in _LEVEL_FIELDS."""
    return [
        {name: getattr(table, attr)[i] for name, attr, *_ in _LEVEL_FIELDS}
        for i in range(len(table.js))
    ]


def write_outputs(table, out_dir):
    """Write replications.csv, mse_table.csv and summary.json."""
    os.makedirs(out_dir, exist_ok=True)
    rep_path, mse_path, summary_path = (os.path.join(out_dir, name) for name in _OUTPUTS)
    with open(rep_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_ROW_FIELDS) + "\n")
        fh.writelines(_ROW % v if v[5] is not None else _LAST_ROW % v[:5]
                      for v in map(operator.itemgetter(*_ROW_FIELDS), table.rows))
    _write_csv(mse_path, [f[0] for f in _LEVEL_FIELDS],
               (level.values() for level in _per_level(table)))
    _write_json(summary_path, summary_json(table))
    return rep_path, mse_path


def summary_json(table):
    """Machine-readable form of the aggregated table."""
    return {
        "replications": table.replications,
        "failed": len(table.failures),
        "failures": [list(f) for f in table.failures],
        "targets": dict(table.targets),
        "per_j": _per_level(table),
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
        " ".join("%*s" % (width, head) for _, _, head, width, _ in _LEVEL_FIELDS),
    ]
    for level in _per_level(table):
        lines.append(" ".join(
            "%*s" % (width, "-") if level[name] is None
            else ("%*" + conv) % (width, level[name])
            for name, _, _, width, conv in _LEVEL_FIELDS
        ))
    return "\n".join(lines) + "\n"
