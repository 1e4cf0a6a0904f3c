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

    def test_unknown_flag_is_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["constants", "--filter", "shannon-father", "--bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("spectrum", "--family", "indicator"), ("spectrum", "--s0", "2.0"),
        ("spectrum", "--alpha", "0.2"), ("spectrum", "--M", "4.0"),
        ("spectrum", "--d", "0.1"), ("spectrum", "--u", "0.3"),
        ("spectrum", "--sigma-eps", "1.0"), ("spectrum", "--truncation", "30"),
        ("estimate", "--panel", "panel.csv"), ("estimate", "--filter", "mexican-hat"),
        ("estimate", "--sigma", "1.5"),
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


class TestConstants:
    def run_json(self, argv, capsys):
        rc = main(argv)
        assert rc == 0
        return json.loads(capsys.readouterr().out)

    def test_shannon_father_values(self, capsys):
        doc = self.run_json(["constants", "--filter", "shannon-father"], capsys)
        assert set(doc) == {"name", "A_effective", "c2", "c3"}
        assert doc["name"] == "shannon-father"
        np.testing.assert_allclose(doc["c2"], 2.0 * math.pi, rtol=1e-6)
        np.testing.assert_allclose(doc["c3"], (4.0 / 3.0) * math.pi**3, rtol=1e-6)

    def test_mexican_hat_moment_ratio(self, capsys):
        doc = self.run_json(
            ["constants", "--filter", "mexican-hat", "--sigma", "1"], capsys
        )
        np.testing.assert_allclose(doc["c3"] / doc["c2"], 5.0, rtol=1e-6)

    def test_sigma_rescales_band_limit(self, capsys):
        one = self.run_json(["constants", "--filter", "mexican-hat"], capsys)
        two = self.run_json(
            ["constants", "--filter", "mexican-hat", "--sigma", "2"], capsys
        )
        np.testing.assert_allclose(
            two["A_effective"], one["A_effective"] / 2.0, rtol=1e-12
        )

    def test_sigma_of_a_filter_without_width_is_config_error(self, capsys):
        rc = main(["constants", "--filter", "shannon-father", "--sigma", "3"])
        assert rc == 2
        assert "config error at /sigma" in capsys.readouterr().err

    def test_unknown_filter_is_domain_error(self, capsys):
        rc = main(["constants", "--filter", "haar"])
        assert rc == 1
        assert "unknown filter" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def spectrum_config(tmp_path, model, **keys):
    return write_json(tmp_path / "spec.json", {"model": model, **keys})


def run_spectrum(tmp_path, model, *flags):
    """Run spectrum on a config holding model, and read back spectrum.csv."""
    out = tmp_path / "out"
    assert main(["spectrum", "--config", spectrum_config(tmp_path, model),
                 *flags, "--out", str(out)]) == 0
    return read_csv(out / "spectrum.csv")


class TestSpectrum:
    def test_indicator_grid_even_and_zero_outside_band(self, tmp_path):
        arr = run_spectrum(tmp_path, INDICATOR_MODEL, "--lam-max", "6.0", "--n-grid", "9")
        with open(tmp_path / "out" / "spectrum.csv") as fh:
            assert fh.readline() == "lam,f\n"
        lam, f = arr[:, 0], arr[:, 1]
        np.testing.assert_allclose(f, f[::-1], rtol=1e-15)
        assert np.all(f[np.abs(lam) > 4.0] == 0.0)
        assert np.all(f[np.abs(lam) <= 4.0] > 0.0)

    def test_grid_hitting_pole_is_shifted_with_warning(self, tmp_path):
        with pytest.warns(UserWarning, match="singular"):
            arr = run_spectrum(tmp_path, INDICATOR_MODEL,
                               "--lam-max", "4.0", "--n-grid", "5")
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
            "spectrum", "--config", spectrum_config(tmp_path, MA_MODEL),
            "--cov-lags", "1", "--out", out,
        ])
        assert rc == 0
        cov = read_csv(os.path.join(out, "covariance.csv"))
        coeffs = specpole.gegenbauer_coeffs(39, 0.1, 0.3)
        np.testing.assert_allclose(cov[0, 1], np.dot(coeffs, coeffs), rtol=1e-12)

    def test_ma_density_integrates_to_lag_zero_covariance(self, tmp_path):
        arr = run_spectrum(tmp_path, MA_MODEL, "--n-grid", "8193")
        coeffs = specpole.gegenbauer_coeffs(39, 0.1, 0.3)
        total = np.trapezoid(arr[:, 1], arr[:, 0])
        np.testing.assert_allclose(total, np.dot(coeffs, coeffs), rtol=1e-5)

    def test_manifest_lists_written_files(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main([
            "spectrum", "--config", spectrum_config(tmp_path, MA_MODEL),
            "--cov-lags", "2", "--out", out,
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

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = simulate_config(tmp_path)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", cfg, "--out", out_a]) == 0
        assert main(["simulate", "--config", cfg, "--out", out_b,
                     "--seed", "99"]) == 0
        path_a = read_csv(os.path.join(out_a, "path.csv"))
        path_b = read_csv(os.path.join(out_b, "path.csv"))
        assert not np.array_equal(path_a[:, 1], path_b[:, 1])
        with open(os.path.join(out_b, "manifest.json")) as fh:
            assert json.load(fh)["seed"] == 99

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
    "spectrum-config": lambda tmp, panel: [
        "spectrum", "--config",
        write_json(tmp / "spec.json", {"model": INDICATOR_MODEL, "cov_lags": 2}),
        "--n-grid", "11",
    ],
    "spectrum-family": lambda tmp, panel: [
        "spectrum", "--config", spectrum_config(
            tmp, {"family": "gegenbauer", "d": 0.1, "u": 0.3, "truncation": 30}),
        "--cov-lags", "3",
    ],
    "transform-model": lambda tmp, panel: [
        "transform", "--config", transform_config(tmp), "--seed", "12",
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
            "base_seed": 3,
        }),
        "--seed", "41",
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

    def test_manifest_config_reproduces_tables(self, tmp_path):
        cfg = montecarlo_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["montecarlo", "--config", cfg, "--out", out]) == 0
        first = {n: read_bytes(os.path.join(out, n)) for n in MC_OUTPUTS}
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        replay = write_json(tmp_path / "replay.json", manifest["config"])
        assert main(["montecarlo", "--config", replay]) == 0
        for name in MC_OUTPUTS:
            assert read_bytes(os.path.join(out, name)) == first[name], name

    def test_workers_flag_is_gone(self, tmp_path):
        cfg = montecarlo_config(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o"),
                  "--workers", "2"])
        assert err.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_seed_flag_overrides_base_seed(self, tmp_path):
        cfg = montecarlo_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["montecarlo", "--config", cfg, "--out", out,
                     "--seed", "12345"]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["config"]["base_seed"] == 12345
        assert manifest["seed"] == 12345
        rows = read_table(os.path.join(out, "replications.csv"))
        assert float(rows[0]["seed"]) == 12345.0

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
        cfg = montecarlo_config(tmp_path)
        rc = main(["montecarlo", "--config", cfg])
        assert rc == 2
        assert "output directory" in capsys.readouterr().err

    def test_out_of_range_parameter_is_domain_error(self, tmp_path, capsys):
        cfg = montecarlo_config(
            tmp_path,
            model={"family": "indicator", "s0": 1.2661036727794992,
                   "alpha": 0.6, "M": 3.0},
        )
        rc = main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
