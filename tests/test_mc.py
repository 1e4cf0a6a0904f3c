"""Tests for the replication harness."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from specpole.mc import (
    ExperimentConfig,
    run_experiment,
    experiment_from_json,
    experiment_to_json,
    summarize,
    summary_json,
)
import specpole.mc
from specpole import simulate
from specpole.model import GegenbauerSpec, builtin_filter, indicator_model
from specpole.specfun import QuadratureSpec
from specpole.transform import (
    ScaleSchedule,
    ScheduleLevel,
    geometric_schedule,
    linear_schedule,
)


def small_schedule(sizes=((8.0, 32), (16.0, 64))):
    return ScaleSchedule(
        levels=tuple(
            ScheduleLevel(j=i + 1, a_j=a, gamma_j=a, m_j=m, r_j=a**-2.5)
            for i, (a, m) in enumerate(sizes)
        )
    )


def exact_config(**overrides):
    base = dict(
        model=indicator_model(1.2661, 0.1, 3.0),
        filter_name="shannon-father",
        schedule=small_schedule(),
        backend="exact-gaussian",
        replications=4,
        base_seed=900,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def path_config(**overrides):
    base = dict(
        model=GegenbauerSpec(d=0.1, u=0.3, truncation=40),
        filter_name="mexican-hat",
        schedule=linear_schedule(4, kappa=3.0),
        backend="path-transform",
        replications=3,
        base_seed=10,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_backend_model_pairing(self):
        with pytest.raises(TypeError, match="closed"):
            exact_config(model=GegenbauerSpec(d=0.1, u=0.3))
        with pytest.raises(TypeError, match="recipe"):
            path_config(model=indicator_model(1.5, 0.1, 3.0))

    def test_backend_enum(self):
        with pytest.raises(ValueError, match="backend"):
            exact_config(backend="bootstrap")

    def test_replications_positive(self):
        with pytest.raises(ValueError, match="replications"):
            exact_config(replications=0)

    @pytest.mark.parametrize("field, value", [
        ("replications", True),
        ("replications", 2.0),
        ("base_seed", True),
        ("base_seed", 1.5),
        ("base_seed", "7"),
    ])
    def test_counts_and_seeds_are_integers(self, field, value):
        with pytest.raises(ValueError, match="%s must be an integer" % field):
            exact_config(**{field: value})

    def test_numpy_integers_are_plain_ints(self):
        cfg = path_config(replications=np.int64(2), base_seed=np.uint32(7))
        assert type(cfg.replications) is int and type(cfg.base_seed) is int
        assert json.loads(json.dumps(experiment_to_json(cfg)))["base_seed"] == 7

    def test_path_backend_needs_time_domain_filter(self):
        with pytest.raises(ValueError, match="time-domain"):
            path_config(filter_name="meyer-father")

    def test_unknown_filter(self):
        with pytest.raises(ValueError, match="unknown filter"):
            exact_config(filter_name="haar")

    def test_targets(self):
        t = path_config().targets()
        np.testing.assert_allclose(t["s0"], math.acos(0.3), rtol=1e-15)
        assert t["alpha"] == 0.1
        # The path statistics converge to c2 f(0) and c3 f''(0)/4 of the
        # truncated moving average's own density.
        hat = builtin_filter("mexican-hat")
        np.testing.assert_allclose(t["delta_bar"], hat.c2 * 0.148244, rtol=5e-6)
        np.testing.assert_allclose(t["ddelta"], hat.c3 * 0.203569, rtol=5e-6)
        t = exact_config().targets()
        assert (t["s0"], t["alpha"]) == (1.2661, 0.1)
        filt_c2 = 2.0 * math.pi
        np.testing.assert_allclose(
            t["delta_bar"], filt_c2 * 1.2661 ** (-0.4), rtol=1e-6
        )
        shannon = builtin_filter("shannon-father")
        np.testing.assert_allclose(
            t["ddelta"], 0.1 * shannon.c3 * 1.2661 ** (-2.4), rtol=1e-12
        )

    def test_json_round_trip(self):
        cfg = path_config()
        doc = json.loads(json.dumps(experiment_to_json(cfg)))
        back = experiment_from_json(doc)
        assert back.model == cfg.model
        assert back.schedule.levels == cfg.schedule.levels
        assert back.backend == cfg.backend
        assert back.replications == cfg.replications
        assert back.base_seed == cfg.base_seed

    def test_leftover_workers_key_is_ignored(self, tmp_path):
        doc = experiment_to_json(path_config())
        outputs = ("replications.csv", "mse_table.csv", "summary.json")
        runs = []
        for name, extra in (("plain", {}), ("workers", {"workers": 2})):
            out = tmp_path / name
            run_experiment(experiment_from_json(dict(doc, out_dir=str(out), **extra)))
            runs.append([(out / f).read_bytes() for f in outputs])
        assert runs[0] == runs[1]


class TestRunExact:
    def test_single_replication_table_is_squared_error(self):
        cfg = exact_config(replications=1)
        table = run_experiment(cfg)
        assert table.counts == (1, 1)
        t = table.targets
        by_j = {r["j"]: r for r in table.rows}
        for i, j in enumerate(table.js):
            np.testing.assert_allclose(
                table.mse_delta_bar[i],
                (by_j[j]["delta_bar"] - t["delta_bar"]) ** 2,
                rtol=1e-14,
            )
        assert table.mse_ddelta[-1] is None
        np.testing.assert_allclose(
            table.mse_s0_hat[0], (by_j[1]["s0_hat"] - t["s0"]) ** 2, rtol=1e-14
        )

    def test_seeds_fan_out_from_base(self):
        table = run_experiment(exact_config(replications=3))
        seeds = sorted({r["seed"] for r in table.rows})
        assert seeds == [900, 901, 902]

    def test_determinism_of_output_files(self, tmp_path):
        one = tmp_path / "one"
        two = tmp_path / "two"
        run_experiment(exact_config(out_dir=str(one)))
        run_experiment(exact_config(out_dir=str(two)))
        for name in ("replications.csv", "mse_table.csv", "summary.json"):
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_mse_values_nonnegative(self):
        table = run_experiment(exact_config())
        for series in (
            table.mse_delta_bar,
            table.mse_ddelta,
            table.mse_s0_hat,
            table.mse_alpha_hat,
        ):
            assert all(v is None or v >= 0.0 for v in series)

    def test_mse_stable_under_more_replications(self):
        # Quadrupling the replication count moves each per-level MSE of
        # the mean-square statistic by less than three of its own Monte
        # Carlo standard errors.
        small = run_experiment(exact_config(replications=25))
        large = run_experiment(exact_config(replications=100))
        target = small.targets["delta_bar"]
        for i, j in enumerate(small.js):
            sq = np.array(
                [
                    (r["delta_bar"] - target) ** 2
                    for r in small.rows
                    if r["j"] == j
                ]
            )
            se = sq.std(ddof=1) / math.sqrt(sq.size)
            assert abs(small.mse_delta_bar[i] - large.mse_delta_bar[i]) <= 3 * se

    def test_total_failure_aborts(self):
        sched = ScaleSchedule(
            levels=(
                ScheduleLevel(j=1, a_j=8.0, gamma_j=8.0, m_j=8200, r_j=0.5),
                ScheduleLevel(j=2, a_j=16.0, gamma_j=16.0, m_j=8201, r_j=0.25),
            )
        )
        cfg = exact_config(schedule=sched, replications=2)
        with pytest.raises(RuntimeError, match="20%"):
            run_experiment(cfg)

    def test_sparse_failures_recorded_and_skipped(self, monkeypatch):
        real = specpole.mc._replicate

        def flaky(config, filt, reps):
            if 0 in reps:
                raise ValueError("synthetic failure")
            return real(config, filt, reps)

        monkeypatch.setattr(specpole.mc, "_replicate", flaky)
        with pytest.warns(UserWarning, match="skipped"):
            table = run_experiment(exact_config(replications=10))
        assert table.counts == (9, 9)
        assert len(table.failures) == 1
        assert table.failures[0][0] == 0
        assert "synthetic failure" in table.failures[0][1]

    def test_failure_inside_a_batch_keeps_the_other_rows_in_order(self, monkeypatch):
        full = run_experiment(exact_config(replications=10))
        real = specpole.mc._replicate
        calls = []

        def flaky(config, filt, reps):
            calls.append(list(reps))
            if 5 in reps:
                raise ArithmeticError("synthetic failure")
            return real(config, filt, reps)

        monkeypatch.setattr(specpole.mc, "_replicate", flaky)
        with pytest.warns(UserWarning, match="1 of 10 replications failed"):
            table = run_experiment(exact_config(replications=10))
        # one batch, then each replication of it on its own
        assert calls == [list(range(10))] + [[rep] for rep in range(10)]
        assert table.failures == ((5, "ArithmeticError: synthetic failure"),)
        kept = [0, 1, 2, 3, 4, 6, 7, 8, 9]
        assert [r["rep"] for r in table.rows] == [rep for rep in kept for _ in range(2)]
        assert [r["seed"] for r in table.rows[::2]] == [900 + rep for rep in kept]
        expected = [r for r in full.rows if r["rep"] != 5]
        for got, want in zip(table.rows, expected):
            assert got["case"] == want["case"]
            for key in ("delta_bar", "ddelta", "s0_hat", "alpha_hat"):
                if want[key] is None:
                    assert got[key] is None
                else:
                    np.testing.assert_allclose(got[key], want[key], rtol=1e-12)

    @pytest.mark.parametrize("bad_rep", [1, 2])
    def test_programming_errors_propagate(self, monkeypatch, bad_rep):
        # A programming error aborts the run even after earlier
        # replications succeeded; it is never recorded as a skip.
        real = specpole.mc._replicate

        def broken(config, filt, reps):
            if bad_rep in reps:
                raise TypeError("synthetic bug")
            return real(config, filt, reps)

        monkeypatch.setattr(specpole.mc, "_replicate", broken)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_experiment(exact_config(replications=4))

    @pytest.mark.parametrize("bad_rep", [1, 2])
    def test_programming_errors_in_a_rerun_propagate(self, monkeypatch, bad_rep):
        # The batch fails numerically, and the rerun of one replication
        # then hits a programming error: it still aborts the run.
        real = specpole.mc._replicate

        def broken(config, filt, reps):
            if bad_rep in reps:
                if len(reps) == 1:
                    raise TypeError("synthetic bug")
                raise ValueError("synthetic failure")
            return real(config, filt, reps)

        monkeypatch.setattr(specpole.mc, "_replicate", broken)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_experiment(exact_config(replications=4))


class TestBatches:
    def test_rows_do_not_depend_on_the_batch_size(self, monkeypatch):
        big = run_experiment(exact_config(replications=10))
        # 96 coefficients per replication: batches of 3, 3, 3 and 1
        monkeypatch.setattr(specpole.mc, "_BATCH", 3 * 96 + 50)
        small = run_experiment(exact_config(replications=10))
        assert len(small.rows) == len(big.rows)
        for got, want in zip(small.rows, big.rows):
            assert (got["rep"], got["seed"], got["j"], got["case"]) == (
                want["rep"], want["seed"], want["j"], want["case"])
            for key in ("delta_bar", "ddelta", "s0_hat", "alpha_hat"):
                if want[key] is None:
                    assert got[key] is None
                else:
                    np.testing.assert_allclose(got[key], want[key], rtol=1e-12)
        np.testing.assert_allclose(small.mse_delta_bar, big.mse_delta_bar, rtol=1e-12)

    def test_path_backend_batch_matches_single_replications(self):
        cfg = path_config(replications=3)
        table = run_experiment(cfg)
        for rep in range(3):
            single = run_experiment(path_config(replications=1, base_seed=10 + rep))
            rows = [r for r in table.rows if r["rep"] == rep]
            for got, want in zip(rows, single.rows):
                assert got["case"] == want["case"]
                assert (got["delta_bar"], got["ddelta"]) == (want["delta_bar"], want["ddelta"])
                if want["s0_hat"] is not None:
                    # exp and log may take another vector path at another size
                    np.testing.assert_allclose([got["s0_hat"], got["alpha_hat"]],
                                               [want["s0_hat"], want["alpha_hat"]], rtol=1e-15)

    def test_thousands_of_replications_stay_in_bounded_memory(self):
        # 512 coefficients a replication: 8000 of them would stack 4.1M
        # coefficients (32 MB) at once; batches of at most 2^20 keep the
        # traced peak under 24 MB, rows of the table included.
        cfg = exact_config(
            schedule=small_schedule(((8.0, 256), (16.0, 256))), replications=8000
        )
        run_experiment(dataclasses.replace(cfg, replications=1))  # build the factors
        tracemalloc.start()
        try:
            table = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.counts == (8000, 8000)
        assert peak < 24e6, peak / 1e6


class TestRunPath:
    def test_desk_run_completes_and_is_positive(self):
        table = run_experiment(path_config())
        assert table.counts == (3, 3, 3, 3)
        assert all(r["delta_bar"] > 0.0 for r in table.rows)

    def test_rerun_bit_exact(self):
        one = run_experiment(path_config())
        two = run_experiment(path_config())
        assert one.rows == two.rows
        assert one.mse_delta_bar == two.mse_delta_bar

    def test_mean_square_errors_decay_on_exact_backend(self):
        # Qualitative decay of the mean-square MSE across scales, with
        # one inversion allowed.
        sizes = ((8.0, 512), (16.0, 1024), (32.0, 1024))
        table = run_experiment(
            exact_config(schedule=small_schedule(sizes), replications=20)
        )
        mse = table.mse_delta_bar
        inversions = sum(mse[i + 1] > mse[i] for i in range(len(mse) - 1))
        assert inversions <= 1


class TestExactMse:
    def test_criterion_6_ladder_decreases_strictly(self):
        # Exact MSE of delta_bar against c2 f(0) on criterion 6's ladder:
        # squared bias of the variance c_0 plus 2 ||Sigma||_F^2 / m^2, with
        # ||Sigma||_F^2 = m c_0^2 + 2 sum_k (m - k) c_k^2 from the Toeplitz
        # column.  Successive levels 2-4 differ by only 0.7 % and 0.1 %.
        model = indicator_model(1.2661036727794992, 0.1, 3.0)
        filt = builtin_filter("shannon-father")
        with pytest.warns(UserWarning, match="divergent"):
            schedule = geometric_schedule(4, 4.0, 2.0, 3.0, m_cap=4096)
        target = filt.c2 * model.zero_limits()[0]
        mse = []
        for lv in schedule.levels:
            col = simulate._dct_column(
                model, filt, lv.a_j, lv.gamma_j, lv.m_j, QuadratureSpec()
            )
            m = lv.m_j
            frobenius_sq = m * col[0] ** 2 + 2.0 * np.sum(
                (m - np.arange(1, m)) * col[1:] ** 2
            )
            mse.append((col[0] - target) ** 2 + 2.0 * frobenius_sq / m**2)
        np.testing.assert_allclose(
            mse, [0.130839, 0.016098, 0.015979, 0.015964], rtol=0.0, atol=1e-6
        )
        assert all(lo > hi for lo, hi in zip(mse, mse[1:]))


class TestReports:
    def test_summarize_one_block_per_level(self):
        table = run_experiment(path_config(replications=1))
        text = summarize(table)
        data_lines = [
            ln for ln in text.splitlines() if ln.strip()[:1].isdigit()
        ]
        assert len(data_lines) == 4
        assert "targets" in text

    def test_six_levels_give_six_blocks(self):
        cfg = path_config(schedule=linear_schedule(6, kappa=1.0), replications=1)
        text = summarize(run_experiment(cfg))
        data_lines = [
            ln for ln in text.splitlines() if ln.strip()[:1].isdigit()
        ]
        assert len(data_lines) == 6

    def test_summary_json_round_trips(self):
        table = run_experiment(path_config(replications=2))
        doc = summary_json(table)
        assert json.loads(json.dumps(doc)) == doc
        assert len(doc["per_j"]) == 4
        assert doc["replications"] == 2 and doc["failed"] == 0

    def test_output_files_match_table(self, tmp_path):
        cfg = exact_config(out_dir=str(tmp_path / "run"))
        table = run_experiment(cfg)
        mse_lines = (tmp_path / "run" / "mse_table.csv").read_text().splitlines()
        assert mse_lines[0] == "j,a_j,n,mse_delta_bar,mse_ddelta,mse_s0_hat,mse_alpha_hat"
        first = mse_lines[1].split(",")
        assert int(first[0]) == table.js[0]
        np.testing.assert_allclose(float(first[3]), table.mse_delta_bar[0])
        rep_lines = (tmp_path / "run" / "replications.csv").read_text().splitlines()
        assert len(rep_lines) == 1 + len(table.rows)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary == summary_json(table)
