"""Tests for scale schedules and the path-to-coefficient transform."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from specpole.model import GegenbauerSpec, builtin_filter
from specpole.simulate import PathRealization, gegenbauer_path
from specpole.specfun import gegenbauer_coeffs
from specpole.transform import (
    ScaleSchedule,
    ScheduleLevel,
    _transform_level,
    filter_transform,
    geometric_schedule,
    lattice_window,
    linear_schedule,
    panel_from_path,
    schedule_from_json,
    schedule_to_json,
)

from adaptive_quadrature import QuadratureSpec, integrate


def constant_path(value, lo, hi, dt, seed=0):
    n = int(round((hi - lo) / dt)) + 1
    return PathRealization(t0=lo, dt=dt, values=np.full(n, float(value)), seed=seed)


def noise_path(lo, hi, dt, seed=0):
    n = int(round((hi - lo) / dt)) + 1
    values = np.random.default_rng(seed).standard_normal(n)
    return PathRealization(t0=lo, dt=dt, values=values, seed=seed)


def riemann_cell(path, filt, a, b):
    """One coefficient as a plain loop over every sample of the path."""
    edge = filt.time_support + 0.5
    total = 0.0
    for i, x in enumerate(path.values):
        u = (path.t0 + i * path.dt - b) / a
        if abs(u) < edge:
            total += float(filt.psi(u)) * min(edge - abs(u), 0.5) / 0.5 * x
    return path.dt / math.sqrt(a) * total


def cosine_path(freq, lo, hi, dt, seed=0):
    n = int(round((hi - lo) / dt)) + 1
    t = lo + dt * np.arange(n)
    return PathRealization(t0=lo, dt=dt, values=np.cos(freq * t), seed=seed)


class TestSchedules:
    def test_linear_schedule_examples(self):
        sched = linear_schedule(6, kappa=9.0)
        assert tuple(lv.a_j for lv in sched.levels) == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert tuple(lv.m_j for lv in sched.levels) == (
            1,
            512,
            19683,
            262144,
            1953125,
            10077696,
        )
        assert all(lv.gamma_j == 1.0 for lv in sched.levels)
        cubes = linear_schedule(3, kappa=3.0)
        assert tuple(lv.m_j for lv in cubes.levels) == (1, 8, 27)
        np.testing.assert_allclose(
            [lv.r_j for lv in cubes.levels], [1.0, 2.0**-2.5, 3.0**-2.5]
        )

    def test_linear_schedule_needs_two_levels(self):
        with pytest.raises(ValueError, match="j_max"):
            linear_schedule(1)

    def test_geometric_schedule_example(self):
        with pytest.warns(UserWarning, match="divergent"):
            sched = geometric_schedule(3, 4.0, 2.0, 2.0)
        assert tuple(lv.a_j for lv in sched.levels) == (8.0, 16.0, 32.0)
        assert tuple(lv.m_j for lv in sched.levels) == (64, 256, 1024)
        assert tuple(lv.gamma_j for lv in sched.levels) == (8.0, 16.0, 32.0)

    def test_geometric_schedule_m_cap(self):
        with pytest.warns(UserWarning, match="divergent"):
            sched = geometric_schedule(3, 4.0, 2.0, 2.0, m_cap=300)
        assert tuple(lv.m_j for lv in sched.levels) == (64, 256, 300)

    def test_geometric_schedule_large_kappa_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sched = geometric_schedule(2, 2.0, 2.0, 5.5)
        assert tuple(lv.m_j for lv in sched.levels) == (
            math.ceil(4.0**5.5),
            math.ceil(8.0**5.5),
        )

    def test_geometric_schedule_validation(self):
        with pytest.raises(ValueError, match="rho"):
            geometric_schedule(3, 4.0, 1.0, 6.0)
        with pytest.raises(ValueError, match="a0"):
            geometric_schedule(3, -1.0, 2.0, 6.0)

    def test_schedule_invariants_enforced(self):
        good = ScheduleLevel(j=1, a_j=2.0, gamma_j=1.0, m_j=4)
        with pytest.raises(ValueError, match="strictly increasing"):
            ScaleSchedule(
                levels=(
                    good,
                    ScheduleLevel(j=2, a_j=2.0, gamma_j=1.0, m_j=4),
                )
            )
        with pytest.raises(ValueError, match="m_j"):
            ScaleSchedule(
                levels=(ScheduleLevel(j=1, a_j=2.0, gamma_j=1.0, m_j=0),)
            )
        with pytest.raises(ValueError, match="gamma"):
            ScaleSchedule(
                levels=(ScheduleLevel(j=1, a_j=2.0, gamma_j=0.0, m_j=4),)
            )

    @pytest.mark.parametrize("j", [1.5, 1.0, True, "1", None])
    def test_level_index_must_be_an_integer(self, j):
        # panel_to_csv writes j with %d, so 1.5 would come back as 1
        with pytest.raises(ValueError, match="level index j = %r is not an integer" % (j,)):
            ScaleSchedule(levels=(ScheduleLevel(j=j, a_j=2.0, gamma_j=1.0, m_j=4),))

    @pytest.mark.parametrize("m", [2.5, 3.0, True, "4", 0])
    def test_shift_count_must_be_a_positive_integer(self, m):
        # m_j = 2.5 gave 3 path-backend coefficients and a TypeError in the
        # exact backend; True passed as m_j = 1
        with pytest.raises(ValueError, match="m_j = %r must be an integer >= 1 at level 2"
                           % (m,)):
            ScaleSchedule(levels=(ScheduleLevel(j=1, a_j=2.0, gamma_j=1.0, m_j=4),
                                  ScheduleLevel(j=2, a_j=4.0, gamma_j=1.0, m_j=m)))
        ScaleSchedule(levels=(ScheduleLevel(j=1, a_j=2.0, gamma_j=1.0, m_j=np.int64(4)),))

    @pytest.mark.parametrize("name", ["a_j", "gamma_j"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 0.0])
    def test_scale_and_spacing_must_be_finite_and_positive(self, name, value):
        # the check names the last level, where an infinite a_j still
        # leaves the scales increasing
        levels = {"j": 2, "a_j": 4.0, "gamma_j": 1.0, "m_j": 4, name: value}
        with pytest.raises(ValueError, match="%s = %r must be finite and positive "
                           "at level 2" % (name, value)):
            ScaleSchedule(levels=(ScheduleLevel(j=1, a_j=2.0, gamma_j=1.0, m_j=4),
                                  ScheduleLevel(**levels)))

    def test_level_index_must_not_repeat(self):
        # panel_from_csv cannot tell two levels with one j apart
        with pytest.raises(ValueError, match="level index j = 1 repeats"):
            ScaleSchedule(levels=(ScheduleLevel(j=1, a_j=2.0, gamma_j=1.0, m_j=4),
                                  ScheduleLevel(j=1, a_j=4.0, gamma_j=1.0, m_j=4)))
        ScaleSchedule(levels=(ScheduleLevel(j=np.int64(1), a_j=2.0, gamma_j=1.0, m_j=4),
                              ScheduleLevel(j=3, a_j=4.0, gamma_j=1.0, m_j=4)))

    def test_shifts_are_arithmetic(self):
        lv = ScheduleLevel(j=2, a_j=4.0, gamma_j=3.0, m_j=5)
        np.testing.assert_array_equal(lv.shifts(), [3.0, 6.0, 9.0, 12.0, 15.0])

    def test_schedule_json_round_trip(self):
        sched = linear_schedule(4, kappa=3.0)
        doc = schedule_to_json(sched)
        assert doc["rule"] == "linear" and doc["j_max"] == 4
        back = schedule_from_json(json.loads(json.dumps(doc)))
        assert back.levels == sched.levels

        with pytest.warns(UserWarning, match="divergent"):
            geo = geometric_schedule(3, 4.0, 2.0, 2.0, m_cap=300)
        doc = schedule_to_json(geo)
        assert doc["rule"] == "geometric" and doc["m_cap"] == 300
        with pytest.warns(UserWarning, match="divergent"):
            back = schedule_from_json(doc)
        assert back.levels == geo.levels

    def test_schedule_json_errors(self):
        hand_built = ScaleSchedule(
            levels=(ScheduleLevel(j=1, a_j=2.0, gamma_j=1.0, m_j=4),)
        )
        with pytest.raises(ValueError, match="rule"):
            schedule_to_json(hand_built)
        with pytest.raises(ValueError, match="unknown rule"):
            schedule_from_json({"rule": "fibonacci", "j_max": 3})

    def test_document_comes_from_the_builder(self):
        # a schedule holds its builder's rule and cannot be given another
        linear = linear_schedule(3)
        with pytest.warns(UserWarning, match="divergent"):
            geo = geometric_schedule(3, 4.0, 2.0, 2.0)
        with pytest.raises(TypeError):
            ScaleSchedule(levels=geo.levels, rule_doc=schedule_to_json(linear))
        with pytest.raises(ValueError, match="rule"):
            schedule_to_json(ScaleSchedule(levels=geo.levels))
        assert schedule_to_json(geo)["rule"] == "geometric"
        assert linear.doc == {"rule": "linear", "j_max": 3, "kappa": 3.0}

    def test_block_radius_follows_the_scale(self):
        with pytest.raises(TypeError):
            ScheduleLevel(j=1, a_j=2.0, gamma_j=1.0, m_j=4, r_j=0.5)
        with pytest.warns(UserWarning, match="divergent"):
            geo = geometric_schedule(3, 4.0, 2.0, 2.0)
        for lv in linear_schedule(3).levels + geo.levels:
            assert lv.r_j == lv.a_j**-2.5


class TestFilterTransform:
    def test_zero_path_gives_zero(self):
        filt = builtin_filter("mexican-hat")
        path = constant_path(0.0, -40.0, 40.0, 0.5)
        assert filter_transform(path, filt, 2.0, 1.0) == 0.0

    def test_zero_mean_filter_kills_constants(self):
        filt = builtin_filter("mexican-hat")
        path = constant_path(3.0, -40.0, 40.0, 0.01)
        assert abs(filter_transform(path, filt, 3.0, 1.0)) <= 1e-8

    def test_constant_path_shannon_father(self):
        # A unit path probes the filter mean: the transform should land
        # on sqrt(a) times the zero-frequency response, which is 2 here.
        filt = builtin_filter("shannon-father")
        a, b, dt = 4.0, 0.0, 0.01
        half = a * (filt.time_support + 1.0)
        path = constant_path(1.0, -half, half, dt)
        out = filter_transform(path, filt, a, b)
        assert abs(out - 2.0) <= 1e-2

    def test_halving_dt_shrinks_error(self):
        # Self-convergence check: successive dt halvings must contract
        # the difference by 1.5x or better (quadratic in practice).
        filt = builtin_filter("shannon-father")
        a, b = 4.0, 3.0
        half = a * (filt.time_support + 1.0) + abs(b)
        outs = [
            filter_transform(constant_path(1.0, -half, half, dt), filt, a, b)
            for dt in (0.02, 0.01, 0.005)
        ]
        coarse = abs(outs[0] - outs[1])
        fine = abs(outs[1] - outs[2])
        assert coarse >= 1.5 * fine

    def test_scale_covariance_identity(self):
        # Evaluating the path t -> X(ct) at scale a matches (1/sqrt(c))
        # times the original path at scale ca and shift cb, term by term.
        filt = builtin_filter("mexican-hat")
        c, a, b = 2.0, 3.0, 1.5
        squeezed = cosine_path(0.8, -30.0, 33.0, 0.01)
        original = cosine_path(0.4, -60.0, 66.0, 0.02)
        lhs = filter_transform(squeezed, filt, a, b)
        rhs = filter_transform(original, filt, c * a, c * b) / math.sqrt(c)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_insufficient_coverage_message(self):
        filt = builtin_filter("mexican-hat")
        path = constant_path(1.0, -5.0, 5.0, 0.1)
        with pytest.raises(ValueError, match="requires"):
            filter_transform(path, filt, 4.0, 0.0)

    def test_frequency_only_filter_rejected(self):
        filt = builtin_filter("meyer-father")
        path = constant_path(1.0, -50.0, 50.0, 0.1)
        with pytest.raises(ValueError, match="no time-domain form"):
            filter_transform(path, filt, 2.0, 0.0)

    def test_wide_window_memory_is_bounded(self):
        # Criterion 8's finest cell sums about 5.1 million samples; the
        # kernel works through them in blocks, so its transient memory
        # stays far below one window-sized array (41 MB).
        filt = builtin_filter("shannon-father")
        a, b, dt = 4.0, 3.0, 0.005
        half = a * (filt.time_support + 0.5) + abs(b)
        path = constant_path(1.0, -half, half, dt)
        assert path.values.size > 5_000_000
        tracemalloc.start()
        try:
            out = filter_transform(path, filt, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(out - 2.0) <= 1e-2
        assert peak <= 8e6


class TestPanelFromPath:
    def test_single_cell_matches_filter_transform(self):
        filt = builtin_filter("mexican-hat")
        path = cosine_path(0.5, -40.0, 60.0, 0.05, seed=21)
        sched = ScaleSchedule(
            levels=(ScheduleLevel(j=1, a_j=2.0, gamma_j=10.0, m_j=1),)
        )
        panel = panel_from_path(path, filt, sched)
        assert panel.provenance == "path-transform"
        assert panel.seed == 21
        np.testing.assert_array_equal(panel.levels[0].shifts, [10.0])
        assert panel.levels[0].coeffs[0] == filter_transform(path, filt, 2.0, 10.0)

    def test_rerun_is_bit_exact(self):
        filt = builtin_filter("mexican-hat")
        spec = GegenbauerSpec(d=0.1, u=0.3, truncation=40)
        path = gegenbauer_path(spec, 200, -60.0, 1.0, seed=8)
        sched = ScaleSchedule(
            levels=(
                ScheduleLevel(j=1, a_j=2.0, gamma_j=2.0, m_j=8),
                ScheduleLevel(j=2, a_j=4.0, gamma_j=4.0, m_j=4),
            )
        )
        one = panel_from_path(path, filt, sched)
        two = panel_from_path(path, filt, sched)
        for lv1, lv2 in zip(one.levels, two.levels):
            np.testing.assert_array_equal(lv1.coeffs, lv2.coeffs)

    @pytest.mark.parametrize(
        "dt, levels",
        [
            # lattice: shifts on grid points, one grid offset per level
            (1.0, ((2.0, 1.0, 30), (4.0, 3.0, 8))),
            # non-integer stride: shifts fall between grid points
            (0.05, ((1.5, 0.37, 25), (3.0, 1.13, 9))),
        ],
    )
    def test_levels_match_scalar_riemann_sum(self, dt, levels):
        filt = builtin_filter("mexican-hat")
        sched = ScaleSchedule(
            levels=tuple(
                ScheduleLevel(j=j, a_j=a, gamma_j=g, m_j=m)
                for j, (a, g, m) in enumerate(levels, start=1)
            )
        )
        path = noise_path(-40.0, 60.0, dt, seed=3)
        panel = panel_from_path(path, filt, sched)
        for lv in panel.levels:
            oracle = np.array([riemann_cell(path, filt, lv.a_j, b) for b in lv.shifts])
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(lv.coeffs - oracle)) <= 1e-13 * scale

    def test_one_psi_evaluation_per_grid_offset(self):
        # Shifts 0.37 k on a grid of step 0.05 fall at 5 distinct offsets
        # from the grid; float rounding of t0 + dt * i - b must not split
        # them further.
        filt = builtin_filter("mexican-hat")
        calls = []

        def psi(u):
            calls.append(np.size(u))
            return filt.psi(u)

        counting = dataclasses.replace(filt, psi=psi)
        sched = ScaleSchedule(
            levels=(ScheduleLevel(j=1, a_j=1.5, gamma_j=0.37, m_j=25),)
        )
        path = noise_path(-40.0, 60.0, 0.05, seed=3)
        panel = panel_from_path(path, counting, sched)
        assert len(calls) <= 5
        oracle = np.array([riemann_cell(path, filt, 1.5, b) for b in panel.levels[0].shifts])
        assert np.max(np.abs(panel.levels[0].coeffs - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_samples_outside_a_window_never_enter_it(self):
        filt = builtin_filter("mexican-hat")
        a, gamma, m = 2.0, 1.0, 40
        radius = a * (filt.time_support + 0.5)
        sched = ScaleSchedule(
            levels=(ScheduleLevel(j=1, a_j=a, gamma_j=gamma, m_j=m),)
        )
        clean = noise_path(-20.0, 62.0, 1.0, seed=4)
        t_bad = 30.0
        values = clean.values.copy()
        values[int(round(t_bad - clean.t0))] = np.nan
        dirty = PathRealization(t0=clean.t0, dt=clean.dt, values=values, seed=4)
        want = panel_from_path(clean, filt, sched).levels[0]
        got = panel_from_path(dirty, filt, sched).levels[0]
        inside = np.abs(got.shifts - t_bad) <= radius
        assert inside.any() and not inside.all()
        assert np.all(np.isnan(got.coeffs[inside]))
        np.testing.assert_array_equal(got.coeffs[~inside], want.coeffs[~inside])

    def test_long_ladder_memory_is_bounded(self):
        # The kernel groups its cells _CHUNK shifts at a time, so its
        # transient memory does not grow with the level's size: on this
        # kappa = 7 ladder (376,761 coefficients, whose outputs and shifts
        # take 6.0 MB) the traced peak measured 12.4 MB, against 37.6 MB
        # when every shift of a level was grouped at once.
        filt = builtin_filter("mexican-hat")
        sched = linear_schedule(6, kappa=7.0)
        lo, hi = lattice_window(filt, sched)
        path = gegenbauer_path(GegenbauerSpec(d=0.1, u=0.3), hi - lo + 1,
                               float(lo), 1.0, seed=11)
        tracemalloc.start()
        try:
            panel = panel_from_path(path, filt, sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert panel.levels[-1].coeffs.size == 6**7
        assert peak <= 20e6

    def test_level_scratch_is_block_sized(self):
        # A block takes _CHUNK // 16 = 4096 cells, so beside its output
        # the kernel holds under 1 MB: on this 200,000-cell lattice level
        # the traced peak measured the output plus 0.67 MB, against the
        # output plus 3.8 MB when a block took up to 65,536 cells.
        filt = builtin_filter("mexican-hat")
        level = ScheduleLevel(j=1, a_j=2.0, gamma_j=1.0, m_j=200_000)
        lo, hi = lattice_window(filt, ScaleSchedule(levels=(level,)))
        path = noise_path(lo, hi, 1.0, seed=5)
        shifts = level.shifts()
        tracemalloc.start()
        try:
            out = _transform_level(path, filt, level.a_j, shifts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for k in (0, 1, 4095, 4096, 199_999):  # cells on either side of block edges
            assert abs(out[k] - filter_transform(path, filt, level.a_j, shifts[k])) <= 1e-15
        assert peak <= out.nbytes + 1e6

    def test_coverage_prevalidation_names_level(self):
        filt = builtin_filter("mexican-hat")
        path = constant_path(1.0, -30.0, 30.0, 0.5)
        sched = ScaleSchedule(
            levels=(
                ScheduleLevel(j=1, a_j=2.0, gamma_j=2.0, m_j=2),
                ScheduleLevel(j=2, a_j=16.0, gamma_j=16.0, m_j=2),
            )
        )
        with pytest.raises(ValueError, match="level 2"):
            panel_from_path(path, filt, sched)

    def test_second_moment_approaches_quadrature(self):
        # Sample second moment of a dense panel against the quadrature
        # value of J(a) for the truncated moving-average density. The
        # shifts are correlated, so the tolerance is several naive
        # standard errors wide.
        spec = GegenbauerSpec(d=0.1, u=0.3, truncation=40)
        filt = builtin_filter("mexican-hat")
        a, gamma, m = 4.0, 16.0, 2000
        radius = a * (filt.time_support + 1.0)
        lo = math.floor(gamma - radius) - 2.0
        n = int(math.ceil(gamma * m + radius) - lo) + 3
        path = gegenbauer_path(spec, n, lo, 1.0, seed=99)
        sched = ScaleSchedule(
            levels=(ScheduleLevel(j=1, a_j=a, gamma_j=gamma, m_j=m),)
        )
        panel = panel_from_path(path, filt, sched)
        empirical = float(np.mean(panel.levels[0].coeffs ** 2))

        coeffs = gegenbauer_coeffs(spec.truncation - 1, spec.d, spec.u)

        def integrand(lam):
            phases = np.exp(-1j * np.outer(np.arange(coeffs.size), lam))
            transfer = np.abs(coeffs @ phases) ** 2 / (2.0 * math.pi)
            return np.abs(filt.psi_hat(a * lam)) ** 2 * transfer

        j_value = 2.0 * a * integrate(
            integrand, 0.0, filt.band_limit_A / a, QuadratureSpec()
        )
        assert abs(empirical - j_value) / j_value <= 0.15
