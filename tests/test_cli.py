"""End-to-end tests of the command-line interface.

Commands run in-process through ``main`` so exit codes, stdout and
written files can all be inspected without subprocess overhead.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import specpole
from specpole.cli import build_parser, main


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_table(path):
    """Rows of a CSV with mixed column types, as dicts keyed by header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_cli(*args):
    """Run the tool in a fresh interpreter, so stderr holds what a user
    sees, warnings included."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(specpole.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "specpole.cli", *args],
                          capture_output=True, text=True, env=env)


def assert_one_error_line(result, name):
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert name in lines[0]


GEGEN_MODEL = {"family": "gegenbauer", "d": 0.1, "u": 0.3, "truncation": 40}
INDICATOR_MODEL = {"family": "indicator", "s0": 2.0, "alpha": 0.2, "M": 4.0}
# the moving average with its default truncation of 40 terms
MA_MODEL = {"family": "gegenbauer", "d": 0.1, "u": 0.3}


# ---------------------------------------------------------------------------
# Parser surface
# ---------------------------------------------------------------------------


def subcommand_parsers():
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return parser, action.choices
    raise AssertionError("no subparsers registered")


class TestParser:
    def test_every_flag_is_documented(self):
        parser, subs = subcommand_parsers()
        assert set(subs) == {
            "constants", "spectrum", "simulate",
            "transform", "estimate", "montecarlo",
        }
        for name, sub in subs.items():
            text = sub.format_help()
            for action in sub._actions:
                assert action.help, (
                    "flag %s of %s lacks help text" % (action.option_strings, name)
                )
                for opt in action.option_strings:
                    assert opt in text, "%s missing from %s --help" % (opt, name)

    def test_every_subcommand_takes_only_config_and_out(self):
        _, subs = subcommand_parsers()
        for name, sub in subs.items():
            options = {opt: action for action in sub._actions
                       for opt in action.option_strings}
            assert set(options) == {"-h", "--help", "--config", "--out"}, name
            assert options["--config"].required and options["--out"].required, name

    def test_unknown_flag_is_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "const.json", {"filter": {"name": "shannon-father"}})
        with pytest.raises(SystemExit) as err:
            main(["constants", "--config", cfg, "--out", str(tmp_path / "o"), "--bogus"])
        assert err.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("spectrum", "--family", "indicator"), ("spectrum", "--s0", "2.0"),
        ("spectrum", "--alpha", "0.2"), ("spectrum", "--M", "4.0"),
        ("spectrum", "--d", "0.1"), ("spectrum", "--u", "0.3"),
        ("spectrum", "--sigma-eps", "1.0"), ("spectrum", "--truncation", "30"),
        ("estimate", "--panel", "panel.csv"), ("estimate", "--filter", "mexican-hat"),
        ("estimate", "--sigma", "1.5"),
        ("spectrum", "--lam-max", "6.0"), ("spectrum", "--n-grid", "9"),
        ("spectrum", "--cov-lags", "2"), ("simulate", "--seed", "99"),
        ("transform", "--seed", "12"), ("montecarlo", "--seed", "12345"),
        ("constants", "--filter", "shannon-father"), ("constants", "--sigma", "2"),
    ])
    def test_model_and_panel_flags_are_gone(self, tmp_path, capsys, command,
                                            flag, value):
        # the config is the one input path; argparse refuses before it is read
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as err:
            main([command, "--config", str(tmp_path / "c.json"), "--out", str(out),
                  flag, value])
        assert err.value.code == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err
        assert not out.exists()

    def test_missing_subcommand_is_rejected(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert specpole.__version__ in capsys.readouterr().out


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def run_constants(tmp_path, filt, name="out"):
    """Run constants on a config holding filt, writing under tmp_path/name."""
    cfg = write_json(tmp_path / (name + ".json"), {"filter": filt})
    return main(["constants", "--config", cfg, "--out", str(tmp_path / name)])


class TestConstants:
    def run_json(self, tmp_path, filt, name="out"):
        assert run_constants(tmp_path, filt, name) == 0
        return read_json(tmp_path / name / "constants.json")

    def test_shannon_father_values(self, tmp_path):
        doc = self.run_json(tmp_path, {"name": "shannon-father"})
        assert set(doc) == {"name", "A_effective", "c2", "c3"}
        assert doc["name"] == "shannon-father"
        np.testing.assert_allclose(doc["c2"], 2.0 * math.pi, rtol=1e-6)
        np.testing.assert_allclose(doc["c3"], (4.0 / 3.0) * math.pi**3, rtol=1e-6)
        manifest = read_json(tmp_path / "out" / "manifest.json")
        assert manifest["command"] == "constants"
        assert manifest["config"]["filter"]["name"] == "shannon-father"
        assert manifest["outputs"] == ["constants.json"]

    def test_mexican_hat_moment_ratio(self, tmp_path):
        doc = self.run_json(tmp_path, {"name": "mexican-hat", "sigma": 1})
        np.testing.assert_allclose(doc["c3"] / doc["c2"], 5.0, rtol=1e-6)

    def test_sigma_rescales_band_limit(self, tmp_path):
        one = self.run_json(tmp_path, {"name": "mexican-hat"}, "one")
        two = self.run_json(tmp_path, {"name": "mexican-hat", "sigma": 2}, "two")
        np.testing.assert_allclose(
            two["A_effective"], one["A_effective"] / 2.0, rtol=1e-12
        )

    def test_sigma_of_a_filter_without_width_is_config_error(self, tmp_path, capsys):
        assert run_constants(tmp_path, {"name": "shannon-father", "sigma": 3}) == 2
        assert "config error at /filter/sigma" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_filter_is_domain_error(self, tmp_path, capsys):
        assert run_constants(tmp_path, {"name": "haar"}) == 1
        assert "unknown filter" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def spectrum_config(tmp_path, model, **keys):
    return write_json(tmp_path / "spec.json", {"model": model, **keys})


def run_spectrum(tmp_path, model, **keys):
    """Run spectrum on a config holding model and keys, and read back
    spectrum.csv."""
    out = tmp_path / "out"
    assert main(["spectrum", "--config", spectrum_config(tmp_path, model, **keys),
                 "--out", str(out)]) == 0
    return read_csv(out / "spectrum.csv")


class TestSpectrum:
    def test_indicator_grid_even_and_zero_outside_band(self, tmp_path):
        arr = run_spectrum(tmp_path, INDICATOR_MODEL, lam_max=6.0, n_grid=9)
        with open(tmp_path / "out" / "spectrum.csv") as fh:
            assert fh.readline() == "lam,f\n"
        lam, f = arr[:, 0], arr[:, 1]
        np.testing.assert_allclose(f, f[::-1], rtol=1e-15)
        assert np.all(f[np.abs(lam) > 4.0] == 0.0)
        assert np.all(f[np.abs(lam) <= 4.0] > 0.0)

    def test_grid_hitting_pole_is_shifted_with_warning(self, tmp_path):
        with pytest.warns(UserWarning, match="singular"):
            arr = run_spectrum(tmp_path, INDICATOR_MODEL, lam_max=4.0, n_grid=5)
        assert not np.any(np.abs(arr[:, 0]) == 2.0)
        assert np.all(np.isfinite(arr[:, 1]))

    def test_indicator_covariance_at_zero_matches_quadrature(self, tmp_path):
        cfg = spectrum_config(tmp_path, INDICATOR_MODEL, cov_lags=2, n_grid=11)
        out = str(tmp_path / "out")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        cov = read_csv(os.path.join(out, "covariance.csv"))
        model = specpole.model_from_json(INDICATOR_MODEL)
        np.testing.assert_allclose(
            cov[0, 1], model.covariances([0.0])[0], rtol=1e-8
        )
        assert cov.shape == (3, 2)

    def test_ma_covariance_at_zero_is_coefficient_energy(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main([
            "spectrum", "--config", spectrum_config(tmp_path, MA_MODEL, cov_lags=1),
            "--out", out,
        ])
        assert rc == 0
        cov = read_csv(os.path.join(out, "covariance.csv"))
        coeffs = specpole.gegenbauer_coeffs(39, 0.1, 0.3)
        np.testing.assert_allclose(cov[0, 1], np.dot(coeffs, coeffs), rtol=1e-12)

    def test_ma_density_integrates_to_lag_zero_covariance(self, tmp_path):
        arr = run_spectrum(tmp_path, MA_MODEL, n_grid=8193)
        coeffs = specpole.gegenbauer_coeffs(39, 0.1, 0.3)
        total = np.trapezoid(arr[:, 1], arr[:, 0])
        np.testing.assert_allclose(total, np.dot(coeffs, coeffs), rtol=1e-5)

    def test_manifest_lists_written_files(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main([
            "spectrum", "--config", spectrum_config(tmp_path, MA_MODEL, cov_lags=2),
            "--out", out,
        ])
        assert rc == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "spectrum"
        assert manifest["artifact_version"] == specpole.__version__
        assert manifest["outputs"] == ["covariance.csv", "spectrum.csv"]
        for name in manifest["outputs"]:
            assert os.path.exists(os.path.join(out, name))

    @pytest.mark.parametrize("missing", ["--config", "--out"])
    def test_config_and_out_are_required(self, tmp_path, capsys, missing):
        given = {"--config": spectrum_config(tmp_path, MA_MODEL),
                 "--out": str(tmp_path / "out")}
        del given[missing]
        (flag, value), = given.items()
        with pytest.raises(SystemExit) as err:
            main(["spectrum", flag, value])
        assert err.value.code == 2
        assert missing in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def simulate_config(tmp_path, **overrides):
    doc = {"model": GEGEN_MODEL, "n_points": 500, "t0": 0, "dt": 1.0, "seed": 11}
    doc.update(overrides)
    return write_json(tmp_path / "sim.json", doc)


class TestSimulate:
    def test_writes_path_and_manifest(self, tmp_path):
        cfg = simulate_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        arr = read_csv(os.path.join(out, "path.csv"))
        assert arr.shape == (500, 2)
        np.testing.assert_allclose(np.diff(arr[:, 0]), 1.0)
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 11
        assert manifest["config"]["model"]["family"] == "gegenbauer"
        assert manifest["outputs"] == ["path.csv"]

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = simulate_config(tmp_path)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", cfg, "--out", out_a]) == 0
        assert main(["simulate", "--config", cfg, "--out", out_b]) == 0
        for name in ("path.csv", "manifest.json"):
            assert read_bytes(os.path.join(out_a, name)) == read_bytes(
                os.path.join(out_b, name)
            )

    def test_manifest_config_reproduces_output(self, tmp_path):
        cfg = simulate_config(tmp_path)
        out_a = str(tmp_path / "a")
        assert main(["simulate", "--config", cfg, "--out", out_a]) == 0
        with open(os.path.join(out_a, "manifest.json")) as fh:
            manifest = json.load(fh)
        replay = write_json(tmp_path / "replay.json", manifest["config"])
        out_b = str(tmp_path / "b")
        assert main(["simulate", "--config", replay, "--out", out_b]) == 0
        assert read_bytes(os.path.join(out_a, "path.csv")) == read_bytes(
            os.path.join(out_b, "path.csv")
        )

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_directory_as_config_is_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config file %r" % str(tmp_path))
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        # a config written in Latin-1: its e-acute is not UTF-8
        doc = {"model": GEGEN_MODEL, "n_points": 50, "seed": 11, "note": "caf\xe9"}
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        rc = main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config file %r is not UTF-8" % str(cfg))
        assert not (tmp_path / "out").exists()

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        rc = main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_json_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        rc = main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error: expected an object, got list" in capsys.readouterr().err

    def test_missing_key_reports_json_pointer(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json",
                         {"model": GEGEN_MODEL, "seed": 1})
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "/n_points" in err and "missing" in err

    def test_wrong_type_reports_json_pointer(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path, n_points="many")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "/n_points" in err and "expected an integer" in err

    def test_unknown_model_family_reports_pointer(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path, model={"family": "brownian"})
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "/model/family" in capsys.readouterr().err

    def test_density_model_is_domain_error(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path, model=INDICATOR_MODEL)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "sampling recipe" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def transform_config(tmp_path, **overrides):
    doc = {
        "model": GEGEN_MODEL,
        "filter": {"name": "mexican-hat", "sigma": 1.0},
        "schedule": {"rule": "linear", "j_max": 3, "kappa": 3.0},
        "seed": 11,
    }
    doc.update(overrides)
    return write_json(tmp_path / "tra.json", doc)


class TestTransform:
    def test_panel_matches_library_composition(self, tmp_path):
        cfg = transform_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["transform", "--config", cfg, "--out", out]) == 0
        arr = read_csv(os.path.join(out, "panel.csv"))

        filt = specpole.builtin_filter("mexican-hat")
        schedule = specpole.linear_schedule(3, kappa=3.0)
        t_lo, t_hi = specpole.lattice_window(filt, schedule)
        model = specpole.model_from_json(GEGEN_MODEL)
        path = specpole.gegenbauer_path(model, t_hi - t_lo + 1, float(t_lo), 1.0, 11)
        panel = specpole.panel_from_path(path, filt, schedule)
        expect = np.concatenate([lv.coeffs for lv in panel.levels])
        np.testing.assert_array_equal(arr[:, 4], expect)

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = transform_config(tmp_path)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["transform", "--config", cfg, "--out", out_a]) == 0
        assert main(["transform", "--config", cfg, "--out", out_b]) == 0
        assert read_bytes(os.path.join(out_a, "panel.csv")) == read_bytes(
            os.path.join(out_b, "panel.csv")
        )

    def test_reads_simulated_path_from_csv(self, tmp_path):
        filt = specpole.builtin_filter("mexican-hat")
        schedule = specpole.linear_schedule(2, kappa=3.0)
        t_lo, t_hi = specpole.lattice_window(filt, schedule)
        sim_cfg = simulate_config(
            tmp_path, n_points=t_hi - t_lo + 1, t0=t_lo, seed=5
        )
        sim_out = str(tmp_path / "sim_out")
        assert main(["simulate", "--config", sim_cfg, "--out", sim_out]) == 0

        cfg = transform_config(
            tmp_path,
            schedule={"rule": "linear", "j_max": 2, "kappa": 3.0},
            path_csv=os.path.join(sim_out, "path.csv"),
            seed=5,
        )
        del_model = read_json(cfg)
        del del_model["model"]
        cfg = write_json(tmp_path / "tra2.json", del_model)
        out = str(tmp_path / "out")
        assert main(["transform", "--config", cfg, "--out", out]) == 0

        model = specpole.model_from_json(GEGEN_MODEL)
        path = specpole.gegenbauer_path(model, t_hi - t_lo + 1, float(t_lo), 1.0, 5)
        panel = specpole.panel_from_path(path, filt, schedule)
        arr = read_csv(os.path.join(out, "panel.csv"))
        expect = np.concatenate([lv.coeffs for lv in panel.levels])
        np.testing.assert_allclose(arr[:, 4], expect, rtol=1e-12)

    def test_short_path_is_domain_error(self, tmp_path, capsys):
        sim_cfg = simulate_config(tmp_path, n_points=40, t0=0, seed=5)
        sim_out = str(tmp_path / "sim_out")
        assert main(["simulate", "--config", sim_cfg, "--out", sim_out]) == 0
        cfg = transform_config(tmp_path, path_csv=os.path.join(sim_out, "path.csv"))
        doc = read_json(cfg)
        del doc["model"]
        cfg = write_json(tmp_path / "tra2.json", doc)
        rc = main(["transform", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "covers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_path_csv_and_model_conflict(self, tmp_path, capsys):
        path_csv = tmp_path / "path.csv"
        path_csv.write_text("t,x\n0,0.1\n1,0.2\n")
        cfg = transform_config(tmp_path, path_csv=str(path_csv))
        out = tmp_path / "o"
        rc = main(["transform", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert "either path_csv or model, not both" in capsys.readouterr().err
        assert not out.exists()

    def test_non_uniform_path_csv_is_domain_error(self, tmp_path, capsys):
        path_csv = tmp_path / "gappy.csv"
        path_csv.write_text("t,x\n0,0.1\n1,0.2\n5,0.3\n6,0.4\n")
        doc = read_json(transform_config(tmp_path, path_csv=str(path_csv)))
        del doc["model"]
        cfg = write_json(tmp_path / "tra2.json", doc)
        rc = main(["transform", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "uniform" in capsys.readouterr().err

    def test_single_column_path_csv_is_domain_error(self, tmp_path, capsys):
        path_csv = tmp_path / "times.csv"
        path_csv.write_text("t\n0\n1\n2\n")
        doc = read_json(transform_config(tmp_path, path_csv=str(path_csv)))
        del doc["model"]
        cfg = write_json(tmp_path / "tra2.json", doc)
        rc = main(["transform", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "times.csv" in capsys.readouterr().err

    def test_non_finite_path_csv_is_domain_error(self, tmp_path, capsys):
        path_csv = tmp_path / "holey.csv"
        path_csv.write_text("t,x\n0,0.1\n1,nan\n2,0.3\n")
        doc = read_json(transform_config(tmp_path, path_csv=str(path_csv)))
        del doc["model"]
        cfg = write_json(tmp_path / "tra2.json", doc)
        out = tmp_path / "o"
        rc = main(["transform", "--config", cfg, "--out", str(out)])
        assert rc == 1
        assert "holey.csv" in capsys.readouterr().err
        assert not (out / "panel.csv").exists()

    def test_header_only_path_csv_prints_one_error_line(self, tmp_path):
        path_csv = tmp_path / "empty_path.csv"
        path_csv.write_text("t,x\n")
        doc = read_json(transform_config(tmp_path, path_csv=str(path_csv)))
        del doc["model"]
        cfg = write_json(tmp_path / "tra2.json", doc)
        result = run_cli("transform", "--config", cfg, "--out", str(tmp_path / "o"))
        assert_one_error_line(result, "empty_path.csv")

    def test_frequency_only_filter_is_domain_error(self, tmp_path, capsys):
        cfg = transform_config(tmp_path, filter={"name": "meyer-father"})
        rc = main(["transform", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "time-domain" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def streamed_config(tmp_path, source, schedule):
        """A transform config over ``schedule`` whose path comes from the
        model and seed 11 or from a CSV of that path, with the path it
        transforms and its filter."""
        filt = specpole.filter_from_json({"name": "mexican-hat", "sigma": 1.0})
        t_lo, t_hi = specpole.lattice_window(filt, specpole.schedule_from_json(schedule))
        path = specpole.gegenbauer_path(specpole.model_from_json(GEGEN_MODEL),
                                        t_hi - t_lo + 1, float(t_lo), 1.0, 11)
        if source == "model":
            return transform_config(tmp_path, schedule=schedule), path, filt
        path_csv = tmp_path / "path.csv"
        specpole.path_to_csv(path, path_csv)
        doc = read_json(transform_config(tmp_path, schedule=schedule, path_csv=str(path_csv)))
        del doc["model"]
        return write_json(tmp_path / "tra2.json", doc), specpole.path_from_csv(path_csv, 11), filt

    @pytest.mark.parametrize("source", ["model", "path_csv"])
    def test_streamed_panel_is_the_library_panel_byte_for_byte(self, tmp_path, source):
        # level 3 holds ceil(3^8.5) = 11,364 shifts: two whole kernel
        # blocks and part of a third, each computed as it is written
        schedule = {"rule": "linear", "j_max": 3, "kappa": 8.5}
        cfg, path, filt = self.streamed_config(tmp_path, source, schedule)
        panel = specpole.panel_from_path(path, filt, specpole.schedule_from_json(schedule))
        assert panel.levels[-1].coeffs.size > 2 * specpole.simulate._ROW_BLOCK
        specpole.panel_to_csv(panel, tmp_path / "library.csv")
        out = tmp_path / "out"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
        assert read_bytes(out / "panel.csv") == read_bytes(tmp_path / "library.csv")

    @pytest.mark.parametrize("source", ["model", "path_csv"])
    def test_traced_peak_is_the_path_and_one_block(self, tmp_path, source):
        # Beside the path the command holds one kernel block of shifts
        # and coefficients, never the level's 16 bytes per cell: on this
        # 198,669-cell level (a 1.59 MB path) the traced peak measured the
        # path plus 1.44 MB from the model (gegenbauer_path's block) and
        # plus 0.81 MB from a path CSV, against plus 4.36 and 4.19 MB
        # when the whole panel was built and then written.
        schedule = {"rule": "linear", "j_max": 2, "kappa": 17.6}
        cfg, path, _ = self.streamed_config(tmp_path, source, schedule)
        tracemalloc.start()
        try:
            rc = main(["transform", "--config", cfg, "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= path.values.nbytes + 2e6

    def test_failing_block_leaves_no_panel_or_manifest(self, tmp_path, monkeypatch, capsys):
        # level 3's second block raises after the rows before it went to
        # panel.csv: the partial file is removed and no manifest written
        kernel = specpole.transform._transform_level
        out = tmp_path / "o"
        written = []

        def failing(path, filt, a, shifts):
            if a == 3.0 and shifts[0] > specpole.simulate._ROW_BLOCK:
                written.append((out / "panel.csv").stat().st_size)
                raise RuntimeError("kernel failed")
            return kernel(path, filt, a, shifts)

        monkeypatch.setattr(specpole.transform, "_transform_level", failing)
        cfg = transform_config(tmp_path, schedule={"rule": "linear", "j_max": 3, "kappa": 8.5})
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 1
        assert "kernel failed" in capsys.readouterr().err
        assert written and written[0] > 0
        assert list(out.iterdir()) == []

    def test_bad_schedule_rule_reports_pointer(self, tmp_path, capsys):
        cfg = transform_config(tmp_path, schedule={"rule": "fibonacci"})
        rc = main(["transform", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "/schedule/rule" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def panel_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("panel")
    cfg = transform_config(tmp)
    out = str(tmp / "out")
    assert main(["transform", "--config", cfg, "--out", out]) == 0
    return out


def estimate_config(tmp_path, panel_csv, filter_name="mexican-hat"):
    return write_json(tmp_path / "est.json", {
        "panel_csv": str(panel_csv), "filter": {"name": filter_name},
    })


class TestEstimate:
    def test_estimates_from_config(self, panel_dir, tmp_path, capsys):
        cfg = write_json(tmp_path / "est.json", {
            "panel_csv": os.path.join(panel_dir, "panel.csv"),
            "filter": {"name": "mexican-hat", "sigma": 1.0},
        })
        out = str(tmp_path / "out")
        assert main(["estimate", "--config", cfg, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("s0_hat=") == 2
        with open(os.path.join(out, "estimates.csv")) as fh:
            header = fh.readline().strip()
        assert header.startswith("j,a_j,delta_bar")
        rows = read_table(os.path.join(out, "estimates.csv"))
        assert len(rows) == 2
        assert [float(r["s0_hat"]) for r in rows]

    def test_needs_config_or_panel(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--out", str(tmp_path / "o")])
        assert err.value.code == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        "1,1,2\n",
        "1,1,2,2,inf\n",
        "1,1,8,1,0.5\n1,2,8,2,0.4\n1.5,1,16,1,0.3\n1.5,2,16,2,0.2\n",
        "1,1,8,1,0.5\n1,2,9,2,0.4\n2,1,16,1,0.3\n2,2,16,2,0.2\n",
        "1,1,8,1,0.5\n1,1,8,1,0.4\n1,3,8,3,0.3\n2,1,16,1,0.3\n2,2,16,2,0.2\n",
    ], ids=["3 columns", "non-finite", "fractional j", "two a_j", "duplicate k"])
    def test_malformed_panel_csv_is_domain_error(self, tmp_path, capsys, body):
        panel_csv = tmp_path / "bad_panel.csv"
        panel_csv.write_text("j,k,a_j,b_jk,delta_jk\n" + body)
        rc = main(["estimate", "--config", estimate_config(tmp_path, panel_csv),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "bad_panel.csv" in capsys.readouterr().err

    def test_header_only_panel_csv_prints_one_error_line(self, tmp_path):
        panel_csv = tmp_path / "empty_panel.csv"
        panel_csv.write_text("j,k,a_j,b_jk,delta_jk\n")
        cfg = estimate_config(tmp_path, panel_csv, "shannon-father")
        result = run_cli("estimate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert_one_error_line(result, "empty_panel.csv")

    def test_panel_with_no_estimable_pair_is_domain_error(self, tmp_path):
        panel_csv = tmp_path / "zero_panel.csv"
        panel_csv.write_text("j,k,a_j,b_jk,delta_jk\n1,1,1,1,0\n2,1,2,1,0\n")
        out = tmp_path / "o"
        cfg = estimate_config(tmp_path, panel_csv, "shannon-father")
        result = run_cli("estimate", "--config", cfg, "--out", str(out))
        assert result.returncode == 1
        errors = [ln for ln in result.stderr.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "zero_panel.csv" in errors[0], result.stderr
        assert result.stderr.splitlines()[-1] == errors[0]
        assert not (out / "estimates.csv").exists()

    def test_bad_provenance_reports_pointer(self, panel_dir, tmp_path, capsys):
        cfg = write_json(tmp_path / "est.json", {
            "panel_csv": os.path.join(panel_dir, "panel.csv"),
            "filter": {"name": "mexican-hat"},
            "provenance": "oracle",
        })
        rc = main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "/provenance" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# manifest replay
# ---------------------------------------------------------------------------


def path_csv_transform_config(tmp_path):
    """A transform config that reads a simulated path covering its window."""
    sim_cfg = simulate_config(tmp_path, n_points=120, t0=-40, seed=5)
    sim_out = str(tmp_path / "sim")
    assert main(["simulate", "--config", sim_cfg, "--out", sim_out]) == 0
    doc = read_json(transform_config(
        tmp_path, path_csv=os.path.join(sim_out, "path.csv"), seed=5,
        schedule={"rule": "linear", "j_max": 4, "kappa": 2.0},
    ))
    del doc["model"]
    return write_json(tmp_path / "tra_csv.json", doc)


# Each case's command line but --out, from (tmp_path, panel_dir)
REPLAY_CASES = {
    "constants-config": lambda tmp, panel: [
        "constants", "--config",
        write_json(tmp / "const.json", {"filter": {"name": "mexican-hat", "sigma": 2.0}}),
    ],
    "spectrum-config": lambda tmp, panel: [
        "spectrum", "--config", write_json(
            tmp / "spec.json", {"model": INDICATOR_MODEL, "cov_lags": 2, "n_grid": 11}),
    ],
    "spectrum-family": lambda tmp, panel: [
        "spectrum", "--config", spectrum_config(
            tmp, {"family": "gegenbauer", "d": 0.1, "u": 0.3, "truncation": 30},
            cov_lags=3),
    ],
    "simulate-config": lambda tmp, panel: [
        "simulate", "--config", simulate_config(tmp, n_points=60, seed=99),
    ],
    "transform-model": lambda tmp, panel: [
        "transform", "--config", transform_config(tmp, seed=12),
    ],
    "transform-path-csv": lambda tmp, panel: [
        "transform", "--config", path_csv_transform_config(tmp),
    ],
    "estimate-config": lambda tmp, panel: [
        "estimate", "--config", write_json(tmp / "est.json", {
            "panel_csv": os.path.join(panel, "panel.csv"),
            "filter": {"name": "mexican-hat"},
            "provenance": "exact-gaussian",
        }),
    ],
    "estimate-panel": lambda tmp, panel: [
        "estimate", "--config", write_json(tmp / "est.json", {
            "panel_csv": os.path.join(panel, "panel.csv"),
            "filter": {"name": "mexican-hat", "sigma": 1.5},
        }),
    ],
    "montecarlo-path": lambda tmp, panel: [
        "montecarlo", "--config", write_json(tmp / "mc.json", {
            "model": GEGEN_MODEL,
            "filter": {"name": "mexican-hat", "sigma": 1.5},
            "schedule": {"rule": "linear", "j_max": 3, "kappa": 2.0},
            "backend": "path-transform",
            "replications": 2,
            "base_seed": 41,
        }),
    ],
}


@pytest.mark.parametrize("case", REPLAY_CASES)
def test_manifest_config_replays_outputs(case, panel_dir, tmp_path):
    argv = REPLAY_CASES[case](tmp_path, panel_dir)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([*argv, "--out", str(out_a)]) == 0
    with open(out_a / "manifest.json") as fh:
        manifest = json.load(fh)
    replay = write_json(tmp_path / "replay.json", manifest["config"])
    assert main([argv[0], "--config", replay, "--out", str(out_b)]) == 0
    for name in manifest["outputs"]:
        assert read_bytes(out_a / name) == read_bytes(out_b / name), name
    # montecarlo's config records the output directory that --out moves
    expected = read_bytes(out_a / "manifest.json").replace(
        json.dumps(str(out_a)).encode(), json.dumps(str(out_b)).encode())
    assert read_bytes(out_b / "manifest.json") == expected


@pytest.mark.parametrize("case", REPLAY_CASES)
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_that_cannot_be_a_directory_is_usage_error(case, under, panel_dir,
                                                       tmp_path, capsys):
    # --out naming a file, or a path under one, writes nothing
    dest = tmp_path / "dest"
    dest.mkdir()
    (dest / "afile").write_text("kept\n")
    out = str(dest / "afile" / "o" if under else dest / "afile")
    argv = REPLAY_CASES[case](tmp_path, panel_dir)
    assert main([*argv, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("config error: cannot make output directory %r" % out)
    assert os.listdir(dest) == ["afile"]
    assert (dest / "afile").read_text() == "kept\n"


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


def montecarlo_config(tmp_path, **overrides):
    doc = {
        "model": {"family": "indicator", "s0": 1.2661036727794992,
                  "alpha": 0.1, "M": 3.0},
        "filter": {"name": "shannon-father"},
        "schedule": {"rule": "geometric", "j_max": 2, "a0": 4.0,
                     "rho": 2.0, "kappa": 2.0, "m_cap": 32},
        "backend": "exact-gaussian",
        "replications": 3,
        "base_seed": 700,
    }
    doc.update(overrides)
    return write_json(tmp_path / "mc.json", doc)


MC_OUTPUTS = ("replications.csv", "mse_table.csv", "summary.json", "manifest.json")


class TestMontecarlo:
    def test_writes_tables_and_summary(self, tmp_path, capsys):
        cfg = montecarlo_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["montecarlo", "--config", cfg, "--out", out]) == 0
        for name in MC_OUTPUTS:
            assert os.path.exists(os.path.join(out, name)), name
        stdout = capsys.readouterr().out
        assert "replications: 3 (0 failed)" in stdout
        assert "mse" in stdout
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["replications"] == 3
        assert len(summary["per_j"]) == 2
        # replication i has seed base_seed + i
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert manifest["seed"] == manifest["config"]["base_seed"] == 700
        rows = read_table(os.path.join(out, "replications.csv"))
        assert [int(r["seed"]) for r in rows[::2]] == [700, 701, 702]

    def test_manifest_config_reproduces_tables(self, tmp_path):
        cfg = montecarlo_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["montecarlo", "--config", cfg, "--out", out]) == 0
        first = {n: read_bytes(os.path.join(out, n)) for n in MC_OUTPUTS}
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        replay = write_json(tmp_path / "replay.json", manifest["config"])
        assert main(["montecarlo", "--config", replay, "--out", out]) == 0
        for name in MC_OUTPUTS:
            assert read_bytes(os.path.join(out, name)) == first[name], name

    def test_workers_flag_is_gone(self, tmp_path):
        cfg = montecarlo_config(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o"),
                  "--workers", "2"])
        assert err.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_unknown_backend_reports_pointer(self, tmp_path, capsys):
        cfg = montecarlo_config(tmp_path, backend="bootstrap")
        rc = main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "/backend" in capsys.readouterr().err

    def test_missing_replications_reports_pointer(self, tmp_path, capsys):
        cfg = montecarlo_config(tmp_path)
        doc = read_json(cfg)
        del doc["replications"]
        cfg = write_json(tmp_path / "mc2.json", doc)
        rc = main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "/replications" in capsys.readouterr().err

    def test_output_directory_is_required_somewhere(self, tmp_path, capsys):
        # --out is required and names the directory; a config's out_dir
        # is replaced by it
        cfg = montecarlo_config(tmp_path, out_dir=str(tmp_path / "from_config"))
        with pytest.raises(SystemExit) as err:
            main(["montecarlo", "--config", cfg])
        assert err.value.code == 2
        assert "--out" in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 0
        assert read_json(out / "manifest.json")["config"]["out_dir"] == str(out)
        assert not (tmp_path / "from_config").exists()

    def test_out_of_range_parameter_is_domain_error(self, tmp_path, capsys):
        cfg = montecarlo_config(
            tmp_path,
            model={"family": "indicator", "s0": 1.2661036727794992,
                   "alpha": 0.6, "M": 3.0},
        )
        rc = main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
