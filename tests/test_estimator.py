"""Tests for the statistics, the adjustment rules and the closed-form solver."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from specpole.estimator import (
    ADJUSTMENT_CASES,
    EstimateResult,
    FeasiblePoint,
    StatisticsRow,
    adjust,
    estimate,
    first_statistic,
    forward_map,
    in_feasible_region,
    results_to_csv,
    results_to_json,
    second_statistic,
    solve,
)
from specpole.model import builtin_filter, indicator_model
from specpole.specfun import lambert_w0
from specpole.simulate import (
    CoefficientPanel,
    PanelLevel,
    exact_coefficient_sample,
    scale_second_moment,
)
from specpole.transform import ScaleSchedule, ScheduleLevel


def panel_of(levels_spec, provenance="exact-gaussian", seed=0):
    levels = tuple(
        PanelLevel(
            j=i + 1,
            a_j=a,
            shifts=np.arange(1.0, len(coeffs) + 1.0) * a,
            coeffs=np.asarray(coeffs, dtype=float),
        )
        for i, (a, coeffs) in enumerate(levels_spec)
    )
    return CoefficientPanel(levels=levels, provenance=provenance, seed=seed)


class TestStatistics:
    def test_first_statistic_examples(self):
        panel = panel_of([(1.0, [1.0, -1.0, 1.0, -1.0]), (2.0, [3.0, 4.0])])
        assert first_statistic(panel, 1) == 1.0
        assert first_statistic(panel, 2) == 12.5
        zeros = panel_of([(1.0, [0.0, 0.0])])
        assert first_statistic(zeros, 1) == 0.0

    def test_first_statistic_missing_level(self):
        panel = panel_of([(1.0, [1.0])])
        with pytest.raises(KeyError):
            first_statistic(panel, 7)

    def test_second_statistic_examples(self):
        assert second_statistic(2.0, 1.0, 1.0, 2.0) == pytest.approx(4.0 / 3.0)
        assert second_statistic(5.0, 5.0, 1.0, 2.0) == 0.0

    def test_second_statistic_rejects_bad_scales(self):
        with pytest.raises(ValueError, match="increasing"):
            second_statistic(2.0, 1.0, 2.0, 2.0)
        with pytest.raises(ValueError, match="increasing"):
            second_statistic(2.0, 1.0, 4.0, 2.0)

    def test_second_statistic_converges_on_quadrature_values(self):
        # Feeding exact second moments through the difference statistic
        # should approach its limit at the quadratic rate in 1/a.
        s0, alpha = 1.2661, 0.1
        model = indicator_model(s0, alpha, 3.0)
        filt = builtin_filter("shannon-father")
        limit = alpha * filt.c3 * s0 ** (-4.0 * alpha - 2.0)
        second = {
            a: scale_second_moment(model, filt, a) for a in (8.0, 16.0, 32.0, 64.0)
        }
        errs = [
            abs(second_statistic(second[a], second[2 * a], a, 2 * a) - limit)
            for a in (8.0, 16.0, 32.0)
        ]
        assert errs[1] <= errs[0] / 3.0
        assert errs[2] <= errs[1] / 3.0
        assert errs[2] <= 0.01 * limit


class TestForwardMap:
    def test_closed_form_example(self):
        y1, y2 = forward_map(math.sqrt(math.e), 0.25)
        np.testing.assert_allclose(y1, math.exp(-0.5), rtol=1e-12)
        np.testing.assert_allclose(y2, 0.25 * math.exp(-1.5), rtol=1e-12)

    def test_vanishing_memory_limit(self):
        y1, y2 = forward_map(2.0, 1e-8)
        assert abs(y1 - 1.0) <= 1e-6
        assert 0.0 < y2 <= 1e-8

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="pole"):
            forward_map(1.0, 0.2)
        with pytest.raises(ValueError, match="exponent"):
            forward_map(2.0, 0.5)
        with pytest.raises(ValueError, match="exponent"):
            forward_map(2.0, 0.0)

    def test_image_strictly_feasible(self):
        rng = np.random.default_rng(314)
        s0 = 1.01 + 9.0 * rng.random(500)
        alpha = 0.01 + 0.48 * rng.random(500)
        for s, al in zip(s0, alpha):
            y1, y2 = forward_map(s, al)
            assert in_feasible_region(y1, y2)
            assert y2 < 0.5 * y1 * y1


class TestAdjust:
    def test_identity_inside_region(self):
        point = adjust(0.5, 0.05)
        assert (point.y1, point.y2) == (0.5, 0.05)
        assert not point.adjusted and point.case_applied == "none"

    def test_case1_reflection(self):
        point = adjust(0.8, 0.5)
        assert point.case_applied == "case1"
        assert point.y1 == 0.8
        assert point.y2 == max(0.8**2 - 0.5, 0.25 * 0.8**2)
        np.testing.assert_allclose(point.y2, 0.16, rtol=1e-12)

    def test_case2_reflection(self):
        point = adjust(0.5, -0.1)
        assert point.case_applied == "case2"
        assert (point.y1, point.y2) == (0.5, 0.0625)

    def test_case3_reflection(self):
        point = adjust(1.2, 0.3)
        assert point.case_applied == "case3"
        assert point.y2 == 0.3
        expected = 0.5 * (1.0 + math.sqrt(0.6))
        np.testing.assert_allclose(point.y1, expected, rtol=1e-15)
        np.testing.assert_allclose(point.y1, 0.887298, atol=1e-6)

    def test_case4_computes_y2_first(self):
        point = adjust(1.2, 0.7)
        assert point.case_applied == "case4"
        assert point.y2 == max(1.0 - 0.7, 0.25)
        np.testing.assert_allclose(
            point.y1, max(0.8, 0.5 * (1.0 + math.sqrt(0.6))), rtol=1e-15
        )

    def test_case5_computes_y2_first(self):
        point = adjust(1.5, -2.0)
        assert point.case_applied == "case5"
        assert point.y2 == 0.25
        np.testing.assert_allclose(
            point.y1, 0.5 * (1.0 + math.sqrt(0.5)), rtol=1e-15
        )

    def test_boundary_hits_are_nudged_inward(self):
        # Upper parabola: reflection of (y1, y1^2/2) lands back on it.
        point = adjust(0.8, 0.5 * 0.8**2)
        assert point.case_applied == "case1"
        assert 0.0 < point.y2 < 0.5 * point.y1**2
        assert point.y2 >= 0.25 * 0.8**2

        # Zero second coordinate reflects to zero.
        point = adjust(0.5, 0.0)
        assert point.case_applied == "case2"
        assert 0.0 < point.y2 < 0.5 * 0.25

        # First coordinate exactly 1 reflects to 1.
        point = adjust(1.0, 0.3)
        assert point.case_applied == "case3"
        assert 0.0 < point.y1 < 1.0

        # Both coordinates on their worst boundaries.
        point = adjust(1.0, 0.5)
        assert point.case_applied == "case4"
        assert in_feasible_region(point.y1, point.y2)

    def test_negative_and_zero_first_coordinate_fold(self):
        point = adjust(-0.5, 0.1)
        assert (point.y1, point.y2) == (0.5, 0.1)
        assert point.adjusted and point.case_applied == "none"
        point = adjust(0.0, 0.1)
        assert point.y1 == 0.5
        point = adjust(-1.2, 0.3)
        assert point.case_applied == "case3"

    def test_total_idempotent_and_strictly_inside(self):
        grid1 = np.linspace(-1.0, 3.0, 101)
        grid2 = np.linspace(-1.0, 2.0, 101)
        for y1 in grid1:
            for y2 in grid2:
                point = adjust(y1, y2)
                assert in_feasible_region(point.y1, point.y2)
                again = adjust(point.y1, point.y2)
                assert (again.y1, again.y2) == (point.y1, point.y2)
                assert not again.adjusted

    def test_feasible_point_validates(self):
        with pytest.raises(ValueError, match="strictly inside"):
            FeasiblePoint(y1=0.8, y2=0.4)
        with pytest.raises(ValueError, match="strictly inside"):
            FeasiblePoint(y1=1.0, y2=0.1)
        with pytest.raises(ValueError, match="case"):
            FeasiblePoint(y1=0.5, y2=0.05, case_applied="case9")


def reference_adjust(y1, y2):
    """The five reflection rules one pair at a time, in plain floats."""
    def feasible(y1, y2):
        return 0.0 < y1 < 1.0 and 0.0 < y2 < 0.5 * y1 * y1

    def nudge(value):
        return max(1e-12, 1e-9 * abs(value))

    folded = y1 <= 0.0
    if folded:
        y1 = 0.5 if y1 == 0.0 else -y1
    if not folded and feasible(y1, y2):
        return y1, y2, False, "none", False
    case = "none"
    if y1 < 1.0:
        if y2 >= 0.5 * y1 * y1:
            case, y2 = "case1", max(y1 * y1 - y2, 0.25 * y1 * y1)
        elif y2 <= 0.0:
            case, y2 = "case2", min(-y2, 0.25 * y1 * y1)
    else:
        if y2 <= 0.0:
            case, y2 = "case5", min(-y2, 0.25)
        elif y2 >= 0.5:
            case, y2 = "case4", max(1.0 - y2, 0.25)
        else:
            case = "case3"
        y1 = max(2.0 - y1, 0.5 * (1.0 + math.sqrt(2.0 * y2)))
    moved = case != "none" or folded
    nudged = not feasible(y1, y2)
    if nudged:
        if y1 >= 1.0:
            y1 = 1.0 - nudge(1.0)
        if y1 <= 0.0:
            y1 = nudge(y1)
        cap = 0.5 * y1 * y1
        if y2 >= cap:
            y2 = cap - min(nudge(cap), 0.5 * cap)
        elif y2 <= 0.0:
            y2 = min(nudge(y2), 0.5 * cap)
        moved = True
    return y1, y2, moved, case, nudged


class TestArrayForm:
    """adjust and solve on arrays agree with one pair at a time."""

    @staticmethod
    def grid():
        inf = math.inf
        firsts = [-inf, -3.0, -1.2, -0.5, -0.0, 0.0, 1e-150, 0.3, 0.5, 0.8,
                  1.0 - 1e-17, 1.0, 1.2, 1.5, 2.0, 1e200, inf]
        pairs = []
        for y1 in firsts:
            seconds = [-inf, -2.0, -0.1, -1e-200, 0.0, 1e-200, 0.02, 0.05, 0.3,
                       0.5, 0.7, 1.0, 2.0, 1e300, inf]
            y = abs(y1) if y1 else 0.5
            if math.isfinite(y):
                seconds += [0.5 * y * y, 0.25 * y * y, 0.5 * y * y * (1.0 + 1e-16)]
            pairs += [(y1, y2) for y2 in seconds]
        return np.array(pairs).T

    def test_grid_covers_every_case_fold_and_nudge(self):
        refs = [reference_adjust(a, b) for a, b in zip(*self.grid())]
        assert {r[3] for r in refs} == set(ADJUSTMENT_CASES)
        assert any(r[2] and r[3] == "none" for r in refs)  # folded only
        assert {r[3] for r in refs if r[4]} >= {"case1", "case2", "case3", "case4"}

    def test_adjust_matches_reference_and_scalar_calls(self):
        y1, y2 = self.grid()
        point = adjust(y1.reshape(-1, 3), y2.reshape(-1, 3))
        assert point.y1.shape == (y1.size // 3, 3)
        flat = [np.ravel(v) for v in (point.y1, point.y2, point.adjusted, point.case_applied)]
        for k, (a, b) in enumerate(zip(y1, y2)):
            scalar = adjust(a, b)
            assert type(scalar.y1) is float and type(scalar.adjusted) is bool
            assert type(scalar.case_applied) is str
            want = reference_adjust(float(a), float(b))[:4]
            got = tuple(v[k] for v in flat)
            assert got == want == (scalar.y1, scalar.y2, scalar.adjusted,
                                   scalar.case_applied), (a, b)

    def test_solve_matches_scalar_calls(self):
        point = adjust(*self.grid())
        s0, alpha = solve(point)
        assert s0.shape == alpha.shape == point.y1.shape
        for k in range(s0.size):
            one = FeasiblePoint(y1=float(point.y1[k]), y2=float(point.y2[k]))
            s, al = solve(one)
            assert type(s) is float and type(al) is float
            # exp and log may take another vector path at another size
            np.testing.assert_allclose((s0[k], alpha[k]), (s, al), rtol=1e-15)
            # the closed form in plain floats
            w = lambert_w0(-0.5 * (one.y1 / one.y2) * math.log(one.y1))
            np.testing.assert_allclose((s, al), (math.exp(0.5 * w), one.y2 / one.y1 * math.exp(w)),
                                       rtol=1e-15)

    def test_infeasible_array_points_are_rejected(self):
        with pytest.raises(ValueError, match=r"\(0\.8, 0\.4\) is not strictly inside"):
            FeasiblePoint(y1=np.array([0.5, 0.8]), y2=np.array([0.05, 0.4]))
        with pytest.raises(ValueError, match="strictly inside"):
            adjust(np.array([0.5, math.nan]), np.array([0.05, 0.1]))
        with pytest.raises(ValueError, match="strictly inside"):
            solve(SimpleNamespace(y1=np.array([0.5, 1.0]), y2=np.array([0.05, 0.1])))


class TestSolve:
    def test_closed_form_example(self):
        y1, y2 = forward_map(math.sqrt(math.e), 0.25)
        s0, alpha = solve(FeasiblePoint(y1=y1, y2=y2))
        np.testing.assert_allclose(s0, math.sqrt(math.e), rtol=1e-12)
        np.testing.assert_allclose(alpha, 0.25, rtol=1e-12)
        s0, alpha = solve(FeasiblePoint(y1=0.606531, y2=0.0557825))
        np.testing.assert_allclose(s0, 1.648721, atol=1e-5)
        np.testing.assert_allclose(alpha, 0.25, atol=1e-5)

    def test_round_trip_parameters(self):
        rng = np.random.default_rng(2024)
        s0 = 1.01 + (10.0 - 1.01) * rng.random(1000)
        alpha = 0.01 + (0.49 - 0.01) * rng.random(1000)
        for s, al in zip(s0, alpha):
            y1, y2 = forward_map(s, al)
            s_hat, al_hat = solve(FeasiblePoint(y1=y1, y2=y2))
            np.testing.assert_allclose(s_hat, s, rtol=1e-8)
            np.testing.assert_allclose(al_hat, al, rtol=1e-8)

    def test_round_trip_statistics(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            y1 = 0.01 + 0.98 * rng.random()
            y2 = (0.05 + 0.9 * rng.random()) * 0.5 * y1 * y1
            s0, alpha = solve(FeasiblePoint(y1=y1, y2=y2))
            back = forward_map(s0, alpha)
            np.testing.assert_allclose(back, (y1, y2), rtol=1e-9)

    def test_huge_lambert_argument_round_trips(self):
        # y2 = 1e-200 puts the Lambert W argument near 1.7e199
        s0, alpha = solve(adjust(0.5, -1e-200))
        np.testing.assert_allclose(forward_map(s0, alpha), (0.5, 1e-200), rtol=1e-10)

    def test_lambert_argument_positive_on_region(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            y1 = 0.01 + 0.98 * rng.random()
            y2 = (0.05 + 0.9 * rng.random()) * 0.5 * y1 * y1
            assert -0.5 * (y1 / y2) * math.log(y1) > 0.0


class TestEstimate:
    model = indicator_model(1.2661, 0.1, 3.0)
    filt = builtin_filter("shannon-father")

    def exact_panel(self, seed, sizes=((8.0, 512), (16.0, 2048), (32.0, 2048))):
        sched = ScaleSchedule(
            levels=tuple(
                ScheduleLevel(j=i + 1, a_j=a, gamma_j=a, m_j=m, r_j=a**-2.5)
                for i, (a, m) in enumerate(sizes)
            )
        )
        return exact_coefficient_sample(self.model, self.filt, sched, seed)

    def test_constructed_fixed_point(self):
        # Coefficients built so the raw statistics equal the forward map
        # of known parameters at level 1.
        c2, c3 = self.filt.c2, self.filt.c3
        y1, y2 = forward_map(2.0, 0.2)
        delta_1 = c2 * y1
        delta_2 = delta_1 - (1.0 - 0.25) * c3 * y2
        panel = panel_of(
            [(1.0, [math.sqrt(delta_1)]), (2.0, [math.sqrt(delta_2)])]
        )
        res = estimate(panel, self.filt)
        assert len(res) == 1
        np.testing.assert_allclose(res[0].s0_hat, 2.0, rtol=1e-8)
        np.testing.assert_allclose(res[0].alpha_hat, 0.2, rtol=1e-8)
        np.testing.assert_allclose(
            res[0].q_j, res[0].point.y2 / res[0].point.y1, rtol=0
        )

    def test_permuting_coefficients_changes_nothing(self):
        panel = self.exact_panel(3, sizes=((8.0, 64), (16.0, 64)))
        shuffled_levels = []
        rng = np.random.default_rng(0)
        for lv in panel.levels:
            perm = rng.permutation(lv.coeffs.size)
            shuffled_levels.append(
                PanelLevel(
                    j=lv.j, a_j=lv.a_j, shifts=lv.shifts, coeffs=lv.coeffs[perm]
                )
            )
        shuffled = CoefficientPanel(
            levels=tuple(shuffled_levels), provenance=panel.provenance, seed=panel.seed
        )
        first = estimate(panel, self.filt)
        second = estimate(shuffled, self.filt)
        # summation order differs, so equality holds to rounding only
        for r1, r2 in zip(first, second):
            np.testing.assert_allclose(r1.s0_hat, r2.s0_hat, rtol=1e-12)
            np.testing.assert_allclose(r1.alpha_hat, r2.alpha_hat, rtol=1e-12)

    def test_zero_level_skipped_with_warning(self):
        panel = panel_of([(1.0, [0.0, 0.0]), (2.0, [1.0]), (4.0, [1.5])])
        with pytest.warns(UserWarning, match="zero mean square"):
            res = estimate(panel, self.filt)
        assert [r.j for r in res] == [2]

    def test_batched_panel_matches_its_rows(self):
        seeds = (31, 32, 33, 34)
        rows = [self.exact_panel(s, sizes=((8.0, 64), (16.0, 64), (32.0, 64)))
                for s in seeds]
        batch = CoefficientPanel(
            levels=tuple(
                PanelLevel(j=lv.j, a_j=lv.a_j, shifts=lv.shifts,
                           coeffs=np.stack([p.levels[i].coeffs for p in rows]))
                for i, lv in enumerate(rows[0].levels)
            ),
            provenance="exact-gaussian",
            seed=seeds,
        )
        batched = estimate(batch, self.filt)
        assert [res.j for res in batched] == [1, 2]
        for r, panel in enumerate(rows):
            for res, one in zip(batched, estimate(panel, self.filt)):
                assert res.point.case_applied[r] == one.point.case_applied
                assert res.point.adjusted[r] == one.point.adjusted
                assert res.row.delta_bar[r] == one.row.delta_bar
                np.testing.assert_allclose(
                    [res.s0_hat[r], res.alpha_hat[r], res.q_j[r], res.row.ddelta[r],
                     res.point.y1[r], res.point.y2[r]],
                    [one.s0_hat, one.alpha_hat, one.q_j, one.row.ddelta,
                     one.point.y1, one.point.y2],
                    rtol=1e-15,
                )

    def test_zero_level_in_a_batch_raises(self):
        level = PanelLevel(j=1, a_j=1.0, shifts=[1.0, 2.0],
                           coeffs=[[1.0, 2.0], [0.0, 0.0]])
        nxt = PanelLevel(j=2, a_j=2.0, shifts=[2.0], coeffs=[[1.0], [1.5]])
        panel = CoefficientPanel(levels=(level, nxt), provenance="exact-gaussian",
                                 seed=(1, 2))
        with pytest.raises(ValueError, match="level 1 has zero mean square"):
            estimate(panel, self.filt)

    def test_needs_two_levels(self):
        panel = panel_of([(1.0, [1.0])])
        with pytest.raises(ValueError, match="two levels"):
            estimate(panel, self.filt)

    def test_scale_equivariance_of_constants(self):
        # Scaling the filter constants and the mean squares by one
        # power of two leaves every estimate bit-identical.
        panel = self.exact_panel(11, sizes=((8.0, 32), (16.0, 32)))
        scaled_levels = tuple(
            PanelLevel(j=lv.j, a_j=lv.a_j, shifts=lv.shifts, coeffs=2.0 * lv.coeffs)
            for lv in panel.levels
        )
        scaled_panel = CoefficientPanel(
            levels=scaled_levels, provenance=panel.provenance, seed=panel.seed
        )
        scaled_filt = dataclasses.replace(
            self.filt, c2=4.0 * self.filt.c2, c3=4.0 * self.filt.c3
        )
        base = estimate(panel, self.filt)
        scaled = estimate(scaled_panel, scaled_filt)
        for r1, r2 in zip(base, scaled):
            assert r1.s0_hat == r2.s0_hat
            assert r1.alpha_hat == r2.alpha_hat

    def test_recovers_known_parameters(self):
        errs_s0, errs_alpha, y1_first, y1_last = [], [], [], []
        y1_true = 1.2661 ** (-0.4)
        for seed in range(20):
            panel = self.exact_panel(1000 + seed)
            res = estimate(panel, self.filt)
            errs_s0.append(abs(res[-1].s0_hat - 1.2661))
            errs_alpha.append(abs(res[-1].alpha_hat - 0.1))
            y1_first.append(abs(res[0].row.y1_raw - y1_true))
            y1_last.append(
                abs(first_statistic(panel, 3) / self.filt.c2 - y1_true)
            )
        assert np.mean(errs_s0) <= 0.12
        assert np.mean(errs_alpha) <= 0.03
        assert np.mean(y1_last) <= np.mean(y1_first)

    def test_forward_map_reproduces_adjusted_point(self):
        panel = self.exact_panel(21, sizes=((8.0, 128), (16.0, 128)))
        for res in estimate(panel, self.filt):
            back = forward_map(res.s0_hat, res.alpha_hat)
            np.testing.assert_allclose(
                back, (res.point.y1, res.point.y2), rtol=1e-9
            )


class TestSerialization:
    def make_results(self):
        filt = builtin_filter("shannon-father")
        model = indicator_model(1.5, 0.2, 3.0)
        sched = ScaleSchedule(
            levels=(
                ScheduleLevel(j=1, a_j=8.0, gamma_j=8.0, m_j=16, r_j=8.0**-2.5),
                ScheduleLevel(j=2, a_j=16.0, gamma_j=16.0, m_j=16, r_j=16.0**-2.5),
            )
        )
        panel = exact_coefficient_sample(model, filt, sched, 6)
        return estimate(panel, filt)

    def test_json_records(self):
        records = results_to_json(self.make_results())
        assert len(records) == 1
        rec = records[0]
        assert rec["j"] == 1 and rec["a_j"] == 8.0
        assert rec["case"] in ("none", "case1", "case2", "case3", "case4", "case5")
        assert rec["s0_hat"] > 1.0 and 0.0 < rec["alpha_hat"] < 0.5

    def test_csv_round_trip_of_values(self, tmp_path):
        results = self.make_results()
        target = tmp_path / "estimates.csv"
        results_to_csv(results, target)
        lines = target.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "j",
            "a_j",
            "delta_bar",
            "ddelta",
            "y1_raw",
            "y2_raw",
            "y1_adj",
            "y2_adj",
            "case",
            "s0_hat",
            "alpha_hat",
        ]
        row = lines[1].split(",")
        assert float(row[9]) == results[0].s0_hat
        assert float(row[10]) == results[0].alpha_hat
