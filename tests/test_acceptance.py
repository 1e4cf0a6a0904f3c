"""Acceptance suite: eight gate criteria, one test and one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every test pins its tolerances inline and asserts its own runtime
budget, so a pass here certifies both correctness and practicality on a
desk-scale machine.
"""

import math
import os
import time

import mpmath as mp
import numpy as np
import pytest

import specpole


def report(num, elapsed, cap, detail):
    assert elapsed < cap, (
        "criterion %d exceeded its %gs budget (took %.1fs)" % (num, cap, elapsed)
    )
    print("criterion %d: PASS in %.2fs (budget %gs) %s" % (num, elapsed, cap, detail))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def single_level_schedule(a, m=1):
    return specpole.ScaleSchedule(
        levels=(
            specpole.ScheduleLevel(j=1, a_j=float(a), gamma_j=1.0, m_j=m),
        )
    )


# ---------------------------------------------------------------------------
# 1. Special functions
# ---------------------------------------------------------------------------


def gegenbauer_direct_sum(n, d, u):
    """High-precision direct-sum oracle for the polynomial coefficients."""
    with mp.workdps(40):
        gamma_d = mp.gamma(d)
        total = mp.mpf(0)
        for k in range(n // 2 + 1):
            total += (
                (-1) ** k
                * mp.gamma(d + n - k)
                / (gamma_d * mp.factorial(k) * mp.factorial(n - 2 * k))
                * (2 * mp.mpf(u)) ** (n - 2 * k)
            )
        return float(total)


def test_criterion_1_special_functions():
    start = time.perf_counter()

    x = np.geomspace(1e-6, 1e8 + 1.0 / math.e, 10**4) - 1.0 / math.e
    w = specpole.lambert_w0(x)
    defect = np.abs(w * np.exp(w) - x)
    bound = 1e-12 * np.maximum(1.0, np.abs(x))
    assert np.all(defect <= bound)

    worst = 0.0
    for d in (-0.3, -0.1, -0.05, 0.05, 0.1, 0.3, 0.49):
        for u in (-0.9, -0.3, 0.0, 0.3, 0.9):
            values = specpole.gegenbauer_coeffs(20, d, u)
            for n in range(21):
                oracle = gegenbauer_direct_sum(n, d, u)
                if oracle == 0.0:
                    assert values[n] == 0.0, (n, d, u)
                else:
                    rel = abs(values[n] - oracle) / abs(oracle)
                    worst = max(worst, rel)
                    assert rel <= 1e-10, (n, d, u, rel)

    report(
        1, time.perf_counter() - start, 5.0,
        "- W defect max %.1e, polynomial rel err max %.1e"
        % (np.max(defect / bound) * 1e-12, worst),
    )


# ---------------------------------------------------------------------------
# 2. Filter constants
# ---------------------------------------------------------------------------


def test_criterion_2_filter_constants():
    start = time.perf_counter()

    father = specpole.builtin_filter("shannon-father")
    np.testing.assert_allclose(father.c2, 2.0 * math.pi, rtol=1e-6)
    np.testing.assert_allclose(father.c3, (4.0 / 3.0) * math.pi**3, rtol=1e-6)

    mother = specpole.builtin_filter("shannon-mother")
    np.testing.assert_allclose(mother.c2, 2.0 * math.pi, rtol=1e-6)
    np.testing.assert_allclose(mother.c3, (28.0 / 3.0) * math.pi**3, rtol=1e-6)

    hat = specpole.builtin_filter("mexican-hat", sigma=1.0)
    assert abs(hat.c3 / hat.c2 - 5.0) <= 1e-6

    report(
        2, time.perf_counter() - start, 10.0,
        "- shannon pair and mexican-hat ratio all within 1e-6",
    )


# ---------------------------------------------------------------------------
# 3. Solver round trip
# ---------------------------------------------------------------------------


def test_criterion_3_solver_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    s0s = rng.uniform(1.01, 10.0, 1000)
    alphas = rng.uniform(0.01, 0.49, 1000)
    worst = 0.0
    for s0, alpha in zip(s0s, alphas):
        y1, y2 = specpole.forward_map(s0, alpha)
        assert specpole.in_feasible_region(y1, y2)
        s0_back, alpha_back = specpole.solve(specpole.FeasiblePoint(y1=y1, y2=y2))
        rel = max(abs(s0_back - s0) / s0, abs(alpha_back - alpha) / alpha)
        worst = max(worst, rel)
        assert rel <= 1e-8, (s0, alpha, rel)
    report(
        3, time.perf_counter() - start, 5.0,
        "- 1000 round trips, worst rel err %.1e" % worst,
    )


# ---------------------------------------------------------------------------
# 4. Adjustment
# ---------------------------------------------------------------------------


def test_criterion_4_adjustment():
    start = time.perf_counter()

    a = specpole.adjust(0.8, 0.5)
    assert (a.y1, a.y2) == (0.8, max(0.8**2 - 0.5, 0.25 * 0.8**2))
    assert abs(a.y2 - 0.16) < 1e-15
    b = specpole.adjust(0.5, -0.1)
    assert (b.y1, b.y2) == (0.5, 0.0625)

    n_identity = 0
    for y1 in np.linspace(-1.0, 3.0, 100):
        for y2 in np.linspace(-1.0, 2.0, 100):
            p = specpole.adjust(y1, y2)
            assert specpole.in_feasible_region(p.y1, p.y2), (y1, y2, p)
            again = specpole.adjust(p.y1, p.y2)
            assert (again.y1, again.y2) == (p.y1, p.y2)
            assert not again.adjusted
            if specpole.in_feasible_region(y1, y2):
                assert (p.y1, p.y2) == (y1, y2) and not p.adjusted
                n_identity += 1
    assert n_identity > 0

    report(
        4, time.perf_counter() - start, 5.0,
        "- total/idempotent on 10^4 grid, identity on %d interior points"
        % n_identity,
    )


# ---------------------------------------------------------------------------
# 5. Covariance/variance consistency
# ---------------------------------------------------------------------------


def test_criterion_5_variance_consistency():
    start = time.perf_counter()
    n_draws = 10**4
    configs = (
        (specpole.indicator_model(1.2661036727794992, 0.1, 3.0),
         "shannon-father", 8.0, 0),
        (specpole.indicator_model(2.0, 0.3, 5.0),
         "shannon-mother", 16.0, 20000),
        (specpole.indicator_model(1.5, 0.25, 4.0),
         "mexican-hat", 16.0, 40000),
    )
    pulls = []
    for model, name, a, seed_base in configs:
        filt = specpole.builtin_filter(name)
        schedule = single_level_schedule(a)
        j_value = specpole.scale_second_moment(model, filt, a)
        draws = np.array([
            specpole.exact_coefficient_sample(
                model, filt, schedule, seed_base + rep
            ).levels[0].coeffs[0]
            for rep in range(n_draws)
        ])
        variance = float(np.mean(draws**2))
        se = j_value * math.sqrt(2.0 / n_draws)
        pulls.append(abs(variance - j_value) / se)
        assert abs(variance - j_value) <= 3.0 * se, (name, variance, j_value)

    model = configs[0][0]
    filt = specpole.builtin_filter("shannon-father")
    target = model.s0 ** (-4.0 * model.alpha)
    errs = [
        abs(specpole.scale_second_moment(model, filt, a) / filt.c2 - target)
        for a in (8.0, 32.0)
    ]
    assert errs[1] <= 0.25 * errs[0], errs

    report(
        5, time.perf_counter() - start, 120.0,
        "- worst variance pull %.2f sigma; decay factor %.1f over 8 -> 32"
        % (max(pulls), errs[0] / errs[1]),
    )


# ---------------------------------------------------------------------------
# 6. End-to-end estimation consistency
# ---------------------------------------------------------------------------


def test_criterion_6_end_to_end_estimation():
    start = time.perf_counter()
    s0, alpha = 1.2661036727794992, 0.1
    with pytest.warns(UserWarning, match="divergent"):
        schedule = specpole.geometric_schedule(4, 4.0, 2.0, 3.0, m_cap=4096)
    assert [lv.a_j for lv in schedule.levels] == [8.0, 16.0, 32.0, 64.0]
    assert [lv.m_j for lv in schedule.levels] == [512, 4096, 4096, 4096]

    config = specpole.ExperimentConfig(
        model=specpole.indicator_model(s0, alpha, 3.0),
        filt=specpole.builtin_filter("shannon-father"),
        schedule=schedule,
        backend="exact-gaussian",
        replications=20,
        base_seed=27026,
    )
    table = run = specpole.run_experiment(config)
    assert run.failures == ()

    top = [row for row in table.rows if row["j"] == 3]
    assert len(top) == 20
    mean_s0_err = float(np.mean([abs(row["s0_hat"] - s0) for row in top]))
    mean_alpha_err = float(np.mean([abs(row["alpha_hat"] - alpha) for row in top]))
    assert mean_s0_err <= 0.15, mean_s0_err
    assert mean_alpha_err <= 0.05, mean_alpha_err

    mse = list(table.mse_delta_bar)
    inversions = sum(1 for lo, hi in zip(mse, mse[1:]) if hi > lo)
    assert inversions <= 1, mse

    report(
        6, time.perf_counter() - start, 600.0,
        "- mean |s0 err| %.3f, mean |alpha err| %.3f, %d MSE inversion(s)"
        % (mean_s0_err, mean_alpha_err, inversions),
    )


# ---------------------------------------------------------------------------
# 7. Path-transform backend smoke
# ---------------------------------------------------------------------------


def test_criterion_7_path_backend_smoke(tmp_path):
    start = time.perf_counter()
    schedule = specpole.linear_schedule(4, kappa=3.0)
    outputs = ("replications.csv", "mse_table.csv", "summary.json")
    snapshots = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        config = specpole.ExperimentConfig(
            model=specpole.GegenbauerSpec(d=0.1, u=0.3, truncation=40),
            filt=specpole.builtin_filter("mexican-hat"),
            schedule=schedule,
            backend="path-transform",
            replications=1,
            base_seed=77,
            out_dir=str(run_dir),
        )
        table = specpole.run_experiment(config)
        assert table.failures == ()
        assert all(row["delta_bar"] > 0.0 for row in table.rows)
        snapshots.append(
            {name: read_bytes(os.path.join(str(run_dir), name)) for name in outputs}
        )
    assert snapshots[0] == snapshots[1]

    report(
        7, time.perf_counter() - start, 300.0,
        "- 4 levels positive and bit-identical across reruns",
    )


# ---------------------------------------------------------------------------
# 8. Transform correctness
# ---------------------------------------------------------------------------


def test_criterion_8_transform_correctness():
    start = time.perf_counter()
    filt = specpole.builtin_filter("shannon-father")
    a, b = 4.0, 3.0
    values = {}
    for dt in (0.02, 0.01, 0.005):
        lo, hi = specpole.required_extent(filt, a, b, b)
        n = int(math.ceil((hi - lo) / dt)) + 1
        path = specpole.PathRealization(
            t0=lo, dt=dt, values=np.ones(n), seed=0
        )
        values[dt] = specpole.filter_transform(path, filt, a, b)

    for dt in (0.01, 0.005):
        assert abs(values[dt] - math.sqrt(a)) <= 1e-2, (dt, values[dt])
    coarse = abs(values[0.02] - values[0.01])
    fine = abs(values[0.01] - values[0.005])
    assert coarse >= 1.5 * fine, (coarse, fine)

    report(
        8, time.perf_counter() - start, 30.0,
        "- |d - sqrt(a)| = %.1e, refinement ratio %.1f"
        % (abs(values[0.005] - 2.0), coarse / fine),
    )
