"""Command-line entry point for the pole-spectrum toolkit.

One executable with six subcommands:

    constants    write a built-in filter's effective band limit and moments
    spectrum     tabulate the spectral density (and optionally covariances)
    simulate     draw a moving-average path and write it as CSV
    transform    filter a path into a per-scale coefficient panel
    estimate     turn a panel CSV into pole/exponent estimates
    montecarlo   run a replication experiment and aggregate MSE tables

Each takes two flags, both required: it reads its one input, a JSON
document, from ``--config`` and writes its files into the directory
``--out``.  Every other setting is a key of the config.  Next to its
files it writes ``manifest.json``, capturing the artifact version, the
configuration the command read (defaults filled in; ``montecarlo``'s
also records ``--out`` as its ``out_dir``) and the seed, so any output
can be reproduced exactly from its manifest alone.

Exit codes: 0 on success, 1 on domain errors (invalid parameter ranges,
unknown filter names, quadrature failures), 2 on usage errors (bad
flags, missing or malformed config files, schema violations, an
``--out`` that cannot be a directory).  Schema problems are reported
with the JSON-pointer path of the offending key, so
``"config error at /schedule/j_max: missing required key"`` points
into the document.
"""

import argparse
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .estimator import estimate, results_to_csv
from .mc import _OUTPUTS, _read_experiment, run_experiment, summarize
from .model import (
    _FILTER,
    _MODEL,
    _REQUIRED,
    ConfigError,
    SpectralModel,
    _document,
    _read_config,
    _write_csv,
    _write_json,
)
from .simulate import (
    PROVENANCES,
    _write_panel,
    gegenbauer_path,
    panel_from_csv,
    path_from_csv,
    path_to_csv,
)
from .transform import _SCHEDULE, _check_coverage, _level_blocks, lattice_window

__all__ = ["ConfigError", "build_parser", "main"]


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def _load_config(path_str):
    """The config document at path_str; a file that cannot be read as
    UTF-8 text, such as a directory, is a ConfigError naming the path."""
    try:
        with open(path_str, "r", encoding="utf-8") as fh:
            return _document(fh.read(), "")
    except FileNotFoundError:
        raise ConfigError("", "config file %r does not exist" % path_str)
    except OSError as exc:
        raise ConfigError("", "cannot read config file %r: %s" % (path_str, exc.strerror or exc))
    except UnicodeDecodeError as exc:
        raise ConfigError("", "config file %r is not UTF-8 text: %s" % (path_str, exc))


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _write_manifest(out_dir, command, config_doc, seed, outputs):
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "artifact_version": __version__,
        "command": command,
        "config": config_doc,
        "seed": seed,
        "outputs": sorted(outputs),
    })


def _ensure_out(out_dir):
    """out_dir, made if missing; a path that cannot be a directory, such
    as a file or a path under one, is a ConfigError naming it."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("", "cannot make output directory %r: %s"
                              % (out_dir, exc.strerror or exc))
    return out_dir


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def cmd_constants(args):
    filt, config = _read_config(
        _load_config(args.config), "", ("filter", _FILTER, _REQUIRED))
    out_dir = _ensure_out(args.out)
    _write_json(os.path.join(out_dir, "constants.json"), {
        "name": filt.name,
        "A_effective": filt.band_limit_A,
        "c2": filt.c2,
        "c3": filt.c3,
    })
    _write_manifest(out_dir, "constants", config, None, ["constants.json"])
    print("wrote constants.json to %s" % out_dir)
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args):
    model, lam_max, n_grid, cov_lags, config = _read_config(
        _load_config(args.config), "",
        ("model", _MODEL, _REQUIRED), ("lam_max", "number", None),
        ("n_grid", "integer", 401), ("cov_lags", "integer", 0),
    )
    # Only the closed-form density has a pole on the real line and a band
    # edge; the moving average's density is smooth and 2*pi-periodic.
    pole = isinstance(model, SpectralModel)
    if lam_max is None:
        lam_max = config["lam_max"] = 1.5 * model.envelope if pole else math.pi
    if not (lam_max > 0.0 and math.isfinite(lam_max)):
        raise ValueError("spectrum: lam_max must be a positive real")
    if n_grid < 2:
        raise ValueError("spectrum: n_grid must be at least 2")
    if cov_lags < 0:
        raise ValueError("spectrum: cov_lags must be non-negative")
    lam = np.linspace(-lam_max, lam_max, n_grid)
    if pole and np.any(np.abs(np.abs(lam) - model.s0) == 0.0):
        warnings.warn(
            "spectrum: grid hits the singular frequencies at +-%g; "
            "shifting every point by half a grid step" % model.s0
        )
        lam = lam + 0.5 * (lam[1] - lam[0])
    # Each table's header and rows, by the file name it takes under --out
    tables = {
        "spectrum.csv": (("lam", "f"), zip(lam.tolist(), model.density(lam).tolist()))
    }
    if cov_lags > 0:
        lags = np.arange(cov_lags + 1, dtype=float)
        tables["covariance.csv"] = (
            ("r", "B"), zip(lags.tolist(), model.covariances(lags).tolist()))
    out_dir = _ensure_out(args.out)
    for name, (header, rows) in tables.items():
        _write_csv(os.path.join(out_dir, name), header, rows)
    _write_manifest(out_dir, "spectrum", config, None, tables)
    print("wrote %s to %s" % (", ".join(sorted(tables)), out_dir))
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args):
    model, n_points, t0, dt, seed, config = _read_config(
        _load_config(args.config), "",
        ("model", _MODEL, _REQUIRED), ("n_points", "integer", _REQUIRED),
        ("t0", "number", 0.0), ("dt", "number", 1.0), ("seed", "integer", _REQUIRED),
    )
    path = gegenbauer_path(model, n_points, t0, dt, seed)
    out_dir = _ensure_out(args.out)
    path_to_csv(path, os.path.join(out_dir, "path.csv"))
    _write_manifest(out_dir, "simulate", config, seed, ["path.csv"])
    print("wrote path.csv (%d samples) to %s" % (n_points, out_dir))
    return 0


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def cmd_transform(args):
    doc = _load_config(args.config)
    # The path is read from path_csv, or simulated from the model
    from_csv = "path_csv" in doc
    if from_csv:
        if "model" in doc:
            raise ConfigError("", "a transform config holds either path_csv or "
                                  "model, not both")
        source = ("path_csv", "string", _REQUIRED), ("seed", "integer", 0)
    else:
        source = ("model", _MODEL, _REQUIRED), ("seed", "integer", _REQUIRED)
    filt, schedule, src, seed, config = _read_config(
        doc, "",
        ("filter", _FILTER, _REQUIRED), ("schedule", _SCHEDULE, _REQUIRED), *source,
    )
    if from_csv:
        path = path_from_csv(src, seed)
    else:
        t_lo, t_hi = lattice_window(filt, schedule)
        path = gegenbauer_path(src, t_hi - t_lo + 1, float(t_lo), 1.0, seed)
    _check_coverage(path, filt, schedule)
    out_dir = _ensure_out(args.out)

    # The bytes of panel_to_csv(panel_from_path(...)), one kernel block at
    # a time: a block is computed only once the block before is written,
    # so beside the path one block lives.
    _write_panel(os.path.join(out_dir, "panel.csv"), _level_blocks(path, filt, schedule))
    _write_manifest(out_dir, "transform", config, seed, ["panel.csv"])
    print("wrote panel.csv (%d levels) to %s" % (len(schedule.levels), out_dir))
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def cmd_estimate(args):
    panel_csv, filt, provenance, seed, config = _read_config(
        _load_config(args.config), "",
        ("panel_csv", "string", _REQUIRED), ("filter", _FILTER, _REQUIRED),
        ("provenance", "string", "path-transform"), ("seed", "integer", 0),
    )
    if provenance not in PROVENANCES:
        raise ConfigError(
            "/provenance", "must be one of %s" % (sorted(PROVENANCES),)
        )
    panel = panel_from_csv(panel_csv, provenance, seed)
    results = estimate(panel, filt)
    if not results:
        raise ValueError(
            "estimate: no level pair of %s can be estimated; every level "
            "with a successor has zero mean square" % panel_csv
        )
    out_dir = _ensure_out(args.out)
    results_to_csv(results, os.path.join(out_dir, "estimates.csv"))
    _write_manifest(out_dir, "estimate", config, seed, ["estimates.csv"])
    for res in results:
        print(
            "level %d (a=%g): s0_hat=%.6f alpha_hat=%.6f (adjustment %s)"
            % (res.j, res.row.a_j, res.s0_hat, res.alpha_hat,
               res.point.case_applied)
        )
    return 0


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


def cmd_montecarlo(args):
    # --out is the experiment's out_dir, so the manifest's config holds it
    config, read = _read_experiment(
        dict(_load_config(args.config), out_dir=args.out), "")
    # a bad --out fails before the replications run, not after
    _ensure_out(config.out_dir)
    table = run_experiment(config)
    _write_manifest(config.out_dir, "montecarlo", read, config.base_seed, _OUTPUTS)
    print(summarize(table))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specpole",
        description="Simulate, transform and estimate processes whose "
        "spectral density blows up at a non-zero frequency.",
    )
    parser.add_argument(
        "--version", action="version", version="specpole " + __version__
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    # Each subcommand's function, its help and what its config holds
    for name, func, summary, keys in (
        ("constants", cmd_constants,
         "write a filter's effective band limit and moment constants",
         "a filter (name, and sigma for the mexican hat)"),
        ("spectrum", cmd_spectrum,
         "tabulate the spectral density and optional covariances as CSV",
         "a model, and optionally lam_max, n_grid and cov_lags"),
        ("simulate", cmd_simulate,
         "draw a moving-average path and write path.csv",
         "model, n_points and seed, and optionally t0 and dt"),
        ("transform", cmd_transform,
         "filter a path into a coefficient panel and write panel.csv",
         "filter, schedule and a model+seed or a path_csv to read"),
        ("estimate", cmd_estimate,
         "estimate the pole and exponent from a panel CSV",
         "panel_csv, filter, and optionally provenance and seed"),
        ("montecarlo", cmd_montecarlo,
         "run a replication experiment and write MSE tables",
         "model, filter, schedule, backend, replications and base_seed"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="JSON config with " + keys)
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        if exc.pointer:
            print("config error at %s: %s" % (exc.pointer, exc.message),
                  file=sys.stderr)
        else:
            print("config error: %s" % exc.message, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, ArithmeticError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
