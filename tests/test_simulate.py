"""Tests for path simulation and exact coefficient sampling."""

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy.linalg import toeplitz

from specpole import simulate
from specpole.model import GegenbauerSpec, SpectralModel, builtin_filter, indicator_model
from specpole.simulate import (
    CoefficientPanel,
    PanelLevel,
    PathRealization,
    coefficient_covariance,
    exact_coefficient_sample,
    gaussian_stream,
    gegenbauer_path,
    panel_from_csv,
    panel_to_csv,
    path_from_csv,
    path_to_csv,
    scale_second_moment,
)
from specpole.specfun import (
    QuadratureConvergenceError,
    QuadratureSpec,
    gegenbauer_coeffs,
)
from specpole.transform import ScaleSchedule, ScheduleLevel


def single_level_schedule(a, m, gamma=None):
    gamma = a if gamma is None else gamma
    return ScaleSchedule(
        levels=(ScheduleLevel(j=1, a_j=a, gamma_j=gamma, m_j=m, r_j=a**-2.5),)
    )


def midpoint_rule(f, lo, hi, n, chunks=20):
    edges = np.linspace(lo, hi, chunks + 1)
    counts = np.full(chunks, n // chunks)
    counts[: n % chunks] += 1
    total = 0.0
    for a, b, k in zip(edges[:-1], edges[1:], counts):
        h = (b - a) / k
        mids = a + h * (np.arange(k) + 0.5)
        total += h * float(np.sum(f(mids)))
    return total


class TestGaussianStream:
    def test_moments(self):
        z = gaussian_stream(12345, 1, np.arange(1_000_000))
        n = z.size
        assert abs(z.mean()) <= 4.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 4.0 * math.sqrt(2.0 / n)
        frac = np.mean(np.abs(z) < 1.959964)
        assert abs(frac - 0.95) <= 4.0 * math.sqrt(0.95 * 0.05 / n)

    def test_subwindow_bit_exact(self):
        full = gaussian_stream(99, 2, np.arange(0, 5000))
        part = gaussian_stream(99, 2, np.arange(1700, 2400))
        np.testing.assert_array_equal(full[1700:2400], part)

    def test_negative_indices(self):
        sym = gaussian_stream(7, 1, np.arange(-100, 100))
        assert np.all(np.isfinite(sym))
        np.testing.assert_array_equal(
            sym[:100], gaussian_stream(7, 1, np.arange(-100, 0))
        )

    def test_streams_decorrelated(self):
        n = 100_000
        base = gaussian_stream(12345, 1, np.arange(n))
        other_tag = gaussian_stream(12345, 2, np.arange(n))
        other_seed = gaussian_stream(54321, 1, np.arange(n))
        assert abs(np.corrcoef(base, other_tag)[0, 1]) <= 6.0 / math.sqrt(n)
        assert abs(np.corrcoef(base, other_seed)[0, 1]) <= 6.0 / math.sqrt(n)

    def test_seed_array_matches_each_seed_bit_for_bit(self):
        # Seeds reduce modulo 2^64 as Python ints: 2^63 and 2^64 - 1 do
        # not fit an int64, and -1 wraps to 2^64 - 1.
        seeds = (-1, 0, 2**63 - 1, 2**63, 2**64 - 1)
        idx = np.arange(-3, 200)
        block = gaussian_stream(seeds, 2, idx[:, None])
        assert block.shape == (idx.size, len(seeds))
        for r, seed in enumerate(seeds):
            np.testing.assert_array_equal(block[:, r], gaussian_stream(seed, 2, idx))
        np.testing.assert_array_equal(block[:, 0], block[:, 4])
        np.testing.assert_array_equal(
            gaussian_stream(np.array([5, 6]), 1, idx[:, None]),
            gaussian_stream((5, 6), 1, idx[:, None]),
        )


class TestGegenbauerPath:
    def test_zero_noise_gives_zero_path(self):
        spec = GegenbauerSpec(d=0.1, u=0.3, sigma_eps=0.0)
        path = gegenbauer_path(spec, 100, 0.0, 1.0, seed=3)
        np.testing.assert_array_equal(path.values, 0.0)

    def test_single_term_is_white_noise(self):
        spec = GegenbauerSpec(d=0.1, u=0.3, sigma_eps=2.0, truncation=1)
        path = gegenbauer_path(spec, 500_000, 0.0, 1.0, seed=11)
        n = path.values.size
        np.testing.assert_allclose(
            path.values.var(), 4.0, atol=4.0 * 4.0 * math.sqrt(2.0 / n)
        )

    def test_variance_matches_coefficient_sum(self):
        # For the truncated MA the lag-0 covariance is sigma^2 sum C_n^2,
        # and the sample variance of n points has standard error
        # sqrt(2 sum_h B(h)^2 / n) exactly (Gaussian MA).
        spec = GegenbauerSpec(d=0.1, u=0.3, truncation=40)
        path = gegenbauer_path(spec, 1_000_000, 0.0, 1.0, seed=7)
        coeffs = gegenbauer_coeffs(39, 0.1, 0.3)
        target = float(np.sum(coeffs**2))
        acov = np.correlate(coeffs, coeffs, mode="full")
        se = math.sqrt(2.0 * float(np.sum(acov**2)) / path.values.size)
        assert abs(path.values.var() - target) <= 3.0 * se

    def test_bit_exact_reproduction(self):
        spec = GegenbauerSpec(d=0.2, u=-0.4, truncation=25)
        one = gegenbauer_path(spec, 1000, -50.0, 1.0, seed=42)
        two = gegenbauer_path(spec, 1000, -50.0, 1.0, seed=42)
        np.testing.assert_array_equal(one.values, two.values)

    def test_window_consistency(self):
        # The innovation stream is indexed by lattice position, so a
        # window of the same realization matches the long path exactly.
        spec = GegenbauerSpec(d=0.1, u=0.3, truncation=40)
        long = gegenbauer_path(spec, 1000, 0.0, 1.0, seed=7)
        short = gegenbauer_path(spec, 400, 250.0, 1.0, seed=7)
        np.testing.assert_array_equal(long.values[250:650], short.values)

    def test_fine_grid_interpolates_with_warning(self):
        spec = GegenbauerSpec(d=0.1, u=0.3, truncation=40)
        lattice = gegenbauer_path(spec, 11, 0.0, 1.0, seed=5)
        with pytest.warns(UserWarning, match="interpolat"):
            fine = gegenbauer_path(spec, 41, 0.0, 0.25, seed=5)
        np.testing.assert_array_equal(fine.values[::4], lattice.values)
        expected_mid = 0.5 * (lattice.values[:-1] + lattice.values[1:])
        np.testing.assert_allclose(fine.values[2::4], expected_mid, rtol=1e-12)

    def test_stationarity_between_windows(self):
        spec = GegenbauerSpec(d=0.1, u=0.3, truncation=40)
        path = gegenbauer_path(spec, 400_000, 0.0, 1.0, seed=13)
        half = path.values.size // 2
        w1, w2 = path.values[:half], path.values[half:]
        coeffs = gegenbauer_coeffs(39, 0.1, 0.3)
        acov = np.correlate(coeffs, coeffs, mode="full")
        se_mean = math.sqrt(float(np.sum(acov)) / half)
        assert abs(w1.mean()) <= 4.0 * se_mean
        assert abs(w2.mean()) <= 4.0 * se_mean
        se_acov = math.sqrt(2.0 * float(np.sum(acov**2)) / half)
        for lag in (1, 5):
            g1 = np.mean(w1[:-lag] * w1[lag:])
            g2 = np.mean(w2[:-lag] * w2[lag:])
            assert abs(g1 - g2) <= 6.0 * se_acov

    def test_argument_validation(self):
        spec = GegenbauerSpec(d=0.1, u=0.3)
        with pytest.raises(ValueError, match="two samples"):
            gegenbauer_path(spec, 1, 0.0, 1.0, seed=0)
        with pytest.raises(ValueError, match="dt"):
            gegenbauer_path(spec, 10, 0.0, 0.0, seed=0)


class TestCoefficientCovariance:
    model = indicator_model(1.2661, 0.1, 3.0)
    filt = builtin_filter("shannon-father")

    def test_single_shift_equals_second_moment(self):
        cov = coefficient_covariance(self.model, self.filt, 8.0, [5.0])
        np.testing.assert_allclose(
            cov, [[scale_second_moment(self.model, self.filt, 8.0)]], rtol=1e-12
        )

    def test_entry_against_midpoint_oracle(self):
        # Smooth integrand for a = 8 (the pole sits outside the band),
        # so a plain fine midpoint rule is an accurate oracle.
        a, delta = 8.0, 16.0
        upper = self.filt.band_limit_A / a
        s0sq = self.model.s0**2

        def g(lam):
            return np.cos(delta * lam) * np.abs(lam**2 - s0sq) ** -0.2

        oracle = 2.0 * a * midpoint_rule(g, 0.0, upper, 2_000_000)
        cov = coefficient_covariance(self.model, self.filt, a, [8.0, 24.0])
        np.testing.assert_allclose(cov[0, 1], oracle, rtol=1e-9)

    def test_toeplitz_structure_and_symmetry(self):
        cov = coefficient_covariance(self.model, self.filt, 8.0, 8.0 * np.arange(1, 9))
        np.testing.assert_array_equal(cov, cov.T)
        for k in range(1, 8):
            diag = np.diagonal(cov, offset=k)
            np.testing.assert_allclose(diag, diag[0], rtol=1e-12)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-10 * np.trace(cov)

    def entry_oracle(self, a, delta):
        """2a int_0^U cos(delta lam) f(lam) dlam to 30 digits, U the band
        edge pi/a as the float the package integrates to."""
        with mpmath.workdps(30):
            s0_sq = mpmath.mpf(self.model.s0) ** 2
            power = -2 * mpmath.mpf(self.model.alpha)
            f = lambda lam: mpmath.cos(delta * lam) * abs(lam * lam - s0_sq) ** power
            edges = mpmath.linspace(0, mpmath.mpf(self.filt.band_limit_A / a), 13)
            return float(2 * a * mpmath.quad(f, edges))

    def test_non_arithmetic_shifts_consistent(self):
        # The per-lag entries of the non-arithmetic grid and the DCT
        # columns of the two-shift grids, each against a 30-digit oracle.
        shifts = np.array([8.0, 24.0, 56.0])
        cov = coefficient_covariance(self.model, self.filt, 8.0, shifts)
        np.testing.assert_array_equal(cov, cov.T)
        for col, delta in ((1, 16.0), (2, 48.0)):
            pair = coefficient_covariance(self.model, self.filt, 8.0, [0.0, delta])
            oracle = self.entry_oracle(8.0, delta)
            np.testing.assert_allclose(cov[0, col], oracle, rtol=1e-12)
            np.testing.assert_allclose(pair[0, 1], oracle, rtol=1e-12)

    def test_second_moment_approaches_limit_quadratically(self):
        limit = self.filt.c2 * self.model.s0 ** (-4 * self.model.alpha)
        errs = [
            abs(scale_second_moment(self.model, self.filt, a) - limit)
            for a in (8.0, 16.0, 32.0)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] <= errs[0] / 2.5
        assert errs[2] <= errs[1] / 2.5

    def test_far_shifts_decorrelate(self):
        a = 8.0
        cov = coefficient_covariance(self.model, self.filt, a, [0.0, 1e6 * a])
        assert abs(cov[0, 1]) <= 1e-3 * cov[0, 0]

    def test_off_diagonal_decay_envelope(self):
        # |I(delta)| <= C * a / delta with one C fit on the small-delta
        # head; the normalized sequence must also decay monotonically.
        a = 8.0
        seps = a * 2.0 ** np.arange(0, 11)
        vals = np.array(
            [
                coefficient_covariance(self.model, self.filt, a, [0.0, d])[0, 1]
                for d in seps
            ]
        )
        normalized = np.abs(vals) * seps / a
        assert np.all(np.diff(normalized) < 0)
        c_fit = normalized[0]
        assert np.all(np.abs(vals) <= 1.0001 * c_fit * a / seps)

    def test_small_scale_warns(self):
        with pytest.warns(UserWarning, match="band limit"):
            coefficient_covariance(self.model, self.filt, 2.0, [1.0])

    def test_rejects_moving_average_spec(self):
        with pytest.raises(TypeError, match="SpectralModel"):
            coefficient_covariance(
                GegenbauerSpec(d=0.1, u=0.3), self.filt, 8.0, [1.0]
            )

    def test_nonconvergence_names_entry(self):
        starved = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=2)
        with pytest.warns(UserWarning, match="band limit"):
            with pytest.raises(QuadratureConvergenceError, match="shift separation"):
                coefficient_covariance(
                    self.model, self.filt, 0.5, [0.0, 1.0], starved
                )


class TestExactSample:
    model = indicator_model(1.2661, 0.1, 3.0)
    filt = builtin_filter("shannon-father")

    def test_scalar_variance_matches_quadrature(self):
        sched = single_level_schedule(8.0, 1)
        draws = np.array(
            [
                exact_coefficient_sample(self.model, self.filt, sched, seed)
                .levels[0]
                .coeffs[0]
                for seed in range(10_000)
            ]
        )
        target = scale_second_moment(self.model, self.filt, 8.0)
        assert abs(draws.var() - target) / target <= 0.05

    def test_same_seed_reproduces_panel(self):
        sched = single_level_schedule(8.0, 16)
        one = exact_coefficient_sample(self.model, self.filt, sched, 77)
        two = exact_coefficient_sample(self.model, self.filt, sched, 77)
        np.testing.assert_array_equal(one.levels[0].coeffs, two.levels[0].coeffs)
        assert one.provenance == "exact-gaussian"

    def test_sample_covariance_matches_target(self):
        sched = single_level_schedule(8.0, 4)
        n = 10_000
        draws = np.array(
            [
                exact_coefficient_sample(self.model, self.filt, sched, seed)
                .levels[0]
                .coeffs
                for seed in range(n)
            ]
        )
        sample = np.cov(draws.T, bias=True)
        target = coefficient_covariance(
            self.model, self.filt, 8.0, 8.0 * np.arange(1, 5)
        )
        se = np.sqrt(
            (np.outer(np.diag(target), np.diag(target)) + target**2) / n
        )
        assert np.max(np.abs(sample - target) / se) <= 3.0

    def test_mean_square_variance_shrinks_with_m(self):
        variances = {}
        for m in (16, 64):
            sched = single_level_schedule(8.0, m)
            stats = np.array(
                [
                    np.mean(
                        exact_coefficient_sample(
                            self.model, self.filt, sched, 40_000 + rep
                        )
                        .levels[0]
                        .coeffs
                        ** 2
                    )
                    for rep in range(200)
                ]
            )
            variances[m] = stats.var()
        assert variances[64] <= 0.5 * variances[16]

    def test_shared_pool_couples_scales(self):
        # With one normal pool per seed, scalar panels at two scales are
        # perfectly coupled: their ratio is the ratio of standard
        # deviations, deterministically.
        lo = single_level_schedule(8.0, 1)
        hi = single_level_schedule(16.0, 1)
        d_lo = exact_coefficient_sample(self.model, self.filt, lo, 5).levels[0].coeffs[0]
        d_hi = exact_coefficient_sample(self.model, self.filt, hi, 5).levels[0].coeffs[0]
        ratio = math.sqrt(
            scale_second_moment(self.model, self.filt, 16.0)
            / scale_second_moment(self.model, self.filt, 8.0)
        )
        np.testing.assert_allclose(d_hi / d_lo, ratio, rtol=1e-10)

    def test_size_guard(self):
        sched = single_level_schedule(8.0, 8193)
        with pytest.raises(ValueError, match="8192"):
            exact_coefficient_sample(self.model, self.filt, sched, 0)


class TestDctColumn:
    """The Toeplitz column from one DCT-I against per-lag quadrature."""

    model = indicator_model(1.2661036727794992, 0.1, 3.0)
    filt = builtin_filter("shannon-father")
    spec = QuadratureSpec()

    def per_lag(self, a, lags):
        return np.array([
            simulate._entry_integral(self.model, self.filt, a, k * a, self.spec)
            for k in lags
        ])

    def test_matches_quadrature_on_exact_c6_levels(self):
        # The benchmark's exact-c6 ladder: a = 8..64 with m capped at 768.
        for a, m in ((8.0, 512), (16.0, 768), (32.0, 768), (64.0, 768)):
            col = simulate._dct_column(self.model, self.filt, a, a, m, self.spec)
            assert col is not None and col.shape == (m,)
            oracle = self.per_lag(a, range(m))
            assert np.max(np.abs(col - oracle)) <= 1e-12 * oracle[0], a

    def test_matches_quadrature_at_criterion_6_size(self):
        # Criterion 6 runs a = 16..64 at m = 4096; check sampled lags,
        # the largest included.
        m = 4096
        lags = np.unique(np.concatenate([
            [0, 1, 2, m - 1],
            np.random.default_rng(6).choice(m, 56, replace=False),
        ]))
        for a in (16.0, 64.0):
            col = simulate._dct_column(self.model, self.filt, a, a, m, self.spec)
            assert col is not None
            oracle = self.per_lag(a, lags)
            assert np.max(np.abs(col[lags] - oracle)) <= 1e-12 * oracle[0], a

    @pytest.mark.parametrize(
        "case", ["pole in band", "non-integer P", "tolerance missed", "non-arithmetic"]
    )
    def test_per_lag_fallback_is_bit_identical(self, case, monkeypatch):
        a, filt, spec = 8.0, self.filt, self.spec
        shifts = a * np.arange(1, 7)
        if case == "pole in band":
            a = 2.0  # upper = pi/2 > s0
            shifts = a * np.arange(1, 7)
        elif case == "non-integer P":
            filt = builtin_filter("meyer-father")  # P = 4/3
        elif case == "tolerance missed":
            spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
        else:
            shifts = np.array([8.0, 24.0, 56.0, 64.0])
        results = []
        real = simulate._dct_column

        def spy(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(simulate, "_dct_column", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a = 2 is below 2A
            cov = coefficient_covariance(self.model, filt, a, shifts, spec)
            seps = np.abs(shifts[:, None] - shifts[None, :])
            oracle = np.vectorize(
                lambda d: simulate._entry_integral(self.model, filt, a, d, spec)
            )(seps)
        # a non-arithmetic grid never asks for a Toeplitz column
        assert results == ([] if case == "non-arithmetic" else [None])
        np.testing.assert_array_equal(cov, oracle)

    def test_far_shifts_stay_per_lag(self):
        # gamma = 1e6 a gives P = 1e6: the DCT would need 2^25 nodes.
        a = 8.0
        assert simulate._dct_column(
            self.model, self.filt, a, 1e6 * a, 2, self.spec
        ) is None


class TestLevelFactor:
    model = indicator_model(1.2661036727794992, 0.1, 3.0)
    filt = builtin_filter("shannon-father")

    def test_cache_key_holds_the_whole_spec(self, monkeypatch):
        monkeypatch.setattr(simulate, "_FACTORS", (None, None))
        sched = single_level_schedule(8.0, 6)
        plain = QuadratureSpec()
        base = simulate._panel_factors(self.model, self.filt, sched, plain)
        assert simulate._panel_factors(self.model, self.filt, sched, plain) is base
        # same tolerances, different budget and singularity list
        for spec in (
            QuadratureSpec(max_subdivisions=500),
            QuadratureSpec(singularities=(0.2,)),
        ):
            moved = simulate._panel_factors(self.model, self.filt, sched, spec)
            assert moved is not base
            assert simulate._FACTORS[1] is moved  # one entry, the last shape
        # a singularity in the band forces the per-lag column
        np.testing.assert_allclose(moved[0], base[0], rtol=1e-12)

    def test_jitter_is_reported(self):
        cov = np.ones((4, 4))  # rank one: no Cholesky factor without jitter
        expected = r"not positive definite; added diagonal jitter 1e-12 = 1e-12 \* trace/m"
        with pytest.warns(UserWarning, match=expected):
            factor = simulate._cholesky_with_jitter(cov)
        np.testing.assert_allclose(factor @ factor.T, cov + 1e-12 * np.eye(4),
                                   rtol=0.0, atol=1e-15)

    def test_exact_c6_levels_need_no_jitter(self):
        for a, m in ((8.0, 512), (16.0, 768), (32.0, 768), (64.0, 768)):
            cov = coefficient_covariance(self.model, self.filt, a, a * np.arange(1, m + 1))
            assert np.linalg.eigvalsh(cov).min() > 5.0, a
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                simulate._cholesky_with_jitter(cov)


def ladder(scales, m=8):
    return ScaleSchedule(levels=tuple(
        ScheduleLevel(j=i + 1, a_j=a, gamma_j=a, m_j=m, r_j=a**-2.5)
        for i, a in enumerate(scales)
    ))


class TestPanelFactors:
    """Factor builds, counted as calls of coefficient_covariance."""

    model = indicator_model(1.2661036727794992, 0.1, 3.0)
    filt = builtin_filter("shannon-father")

    @pytest.fixture
    def builds(self, monkeypatch):
        monkeypatch.setattr(simulate, "_FACTORS", (None, None))
        calls = []
        real = simulate.coefficient_covariance

        def counted(*args, **kwargs):
            calls.append(args[2])
            # hold the build open so concurrent callers overlap it
            time.sleep(0.02)
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "coefficient_covariance", counted)
        return calls

    def test_workers_share_one_build_per_level(self, builds):
        sched = ladder((8.0, 16.0, 32.0, 64.0), m=16)
        with ThreadPoolExecutor(max_workers=4) as pool:
            panels = list(pool.map(
                lambda seed: exact_coefficient_sample(self.model, self.filt, sched, seed),
                range(900, 904),
            ))
        assert [p.seed for p in panels] == [900, 901, 902, 903]
        assert sorted(builds) == [8.0, 16.0, 32.0, 64.0]

    def test_nine_level_ladder_builds_each_level_once(self, builds):
        sched = ladder(8.0 + np.arange(9))
        for seed in range(3):
            exact_coefficient_sample(self.model, self.filt, sched, seed)
        assert builds == list(8.0 + np.arange(9))

    def test_black_box_model_is_cached(self, builds):
        model = SpectralModel(1.2661036727794992, 0.1,
                              lambda lam: np.where(np.abs(lam) <= 3.0, 1.0, 0.0),
                              envelope=3.0)
        sched = ladder((8.0, 16.0))
        panels = [exact_coefficient_sample(model, self.filt, sched, seed)
                  for seed in range(3)]
        assert builds == [8.0, 16.0]
        # the same h as the indicator model gives the same draws
        same = exact_coefficient_sample(self.model, self.filt, sched, 2)
        for lv, ref in zip(panels[-1].levels, same.levels):
            np.testing.assert_array_equal(lv.coeffs, ref.coeffs)


class TestBatchedSample:
    model = indicator_model(1.2661036727794992, 0.1, 3.0)
    filt = builtin_filter("shannon-father")

    @pytest.mark.parametrize("seeds", [(7,), (7, 8), (3, 900, -1, 2**63, 12)])
    def test_rows_match_single_seed_panels(self, seeds):
        # gemm and gemv round differently, so rows agree to rounding only
        sched = ladder((8.0, 16.0, 32.0), m=48)
        batch = exact_coefficient_sample(self.model, self.filt, sched, seeds)
        assert batch.seed == seeds
        for r, seed in enumerate(seeds):
            single = exact_coefficient_sample(self.model, self.filt, sched, seed)
            for lv, ref in zip(batch.levels, single.levels):
                assert lv.coeffs.shape == (len(seeds), 48)
                np.testing.assert_array_equal(lv.shifts, ref.shifts)
                scale = np.max(np.abs(ref.coeffs))
                np.testing.assert_allclose(lv.coeffs[r], ref.coeffs, rtol=0.0,
                                           atol=1e-14 * scale)

    def test_panel_rows_must_match_the_seeds(self):
        block = PanelLevel(j=1, a_j=2.0, shifts=[1.0, 2.0], coeffs=np.ones((3, 2)))
        CoefficientPanel(levels=(block,), provenance="exact-gaussian", seed=(1, 2, 3))
        with pytest.raises(ValueError, match="tuple of R"):
            CoefficientPanel(levels=(block,), provenance="exact-gaussian", seed=(1, 2))
        with pytest.raises(ValueError, match="int seed"):
            CoefficientPanel(levels=(block,), provenance="exact-gaussian", seed=1)
        empty = PanelLevel(j=1, a_j=2.0, shifts=[1.0], coeffs=np.ones((0, 1)))
        with pytest.raises(ValueError, match="tuple of R"):
            CoefficientPanel(levels=(empty,), provenance="exact-gaussian", seed=())
        with pytest.raises(ValueError, match="several replications"):
            panel_to_csv(CoefficientPanel(levels=(block,), provenance="exact-gaussian",
                                          seed=(1, 2, 3)), "unused.csv")


class TestPanelTypes:
    def test_level_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            PanelLevel(j=1, a_j=2.0, shifts=[1.0, 2.0], coeffs=[0.5])
        with pytest.raises(ValueError, match="strictly increasing"):
            PanelLevel(j=1, a_j=2.0, shifts=[2.0, 1.0], coeffs=[0.5, 0.6])
        with pytest.raises(ValueError, match="scale"):
            PanelLevel(j=1, a_j=0.0, shifts=[1.0], coeffs=[0.5])

    def test_panel_validation(self):
        lv1 = PanelLevel(j=1, a_j=2.0, shifts=[1.0], coeffs=[0.5])
        lv2 = PanelLevel(j=2, a_j=4.0, shifts=[1.0], coeffs=[0.5])
        with pytest.raises(ValueError, match="provenance"):
            CoefficientPanel(levels=(lv1,), provenance="guess", seed=0)
        with pytest.raises(ValueError, match="strictly increasing"):
            CoefficientPanel(
                levels=(lv2, lv1), provenance="exact-gaussian", seed=0
            )
        panel = CoefficientPanel(levels=(lv1, lv2), provenance="exact-gaussian", seed=0)
        assert panel.level_for(2) is lv2
        with pytest.raises(KeyError):
            panel.level_for(9)

    def test_path_validation(self):
        with pytest.raises(ValueError, match="2 samples"):
            PathRealization(t0=0.0, dt=1.0, values=[1.0], seed=0)
        with pytest.raises(ValueError, match="dt"):
            PathRealization(t0=0.0, dt=-1.0, values=[1.0, 2.0], seed=0)


class TestSerialization:
    def test_panel_csv_round_trip(self, tmp_path):
        model = indicator_model(1.5, 0.1, 3.0)
        filt = builtin_filter("shannon-father")
        sched = ScaleSchedule(
            levels=(
                ScheduleLevel(j=1, a_j=8.0, gamma_j=8.0, m_j=3, r_j=8.0**-2.5),
                ScheduleLevel(j=2, a_j=16.0, gamma_j=16.0, m_j=2, r_j=16.0**-2.5),
            )
        )
        panel = exact_coefficient_sample(model, filt, sched, 123)
        target = tmp_path / "panel.csv"
        panel_to_csv(panel, target)
        header = target.read_text().splitlines()[0]
        assert header == "j,k,a_j,b_jk,delta_jk"
        back = panel_from_csv(target, panel.provenance, panel.seed)
        assert len(back.levels) == 2
        for orig, copy in zip(panel.levels, back.levels):
            assert orig.j == copy.j and orig.a_j == copy.a_j
            np.testing.assert_array_equal(orig.shifts, copy.shifts)
            np.testing.assert_array_equal(orig.coeffs, copy.coeffs)

    def test_path_csv_round_trip(self, tmp_path):
        spec = GegenbauerSpec(d=0.1, u=0.3)
        path = gegenbauer_path(spec, 50, -10.0, 1.0, seed=9)
        target = tmp_path / "path.csv"
        path_to_csv(path, target)
        back = path_from_csv(target, seed=9)
        assert back.t0 == path.t0 and back.dt == path.dt
        np.testing.assert_array_equal(back.values, path.values)

    def test_path_csv_rejects_non_uniform_grid(self, tmp_path):
        target = tmp_path / "gappy.csv"
        target.write_text("t,x\n0,0.1\n1,0.2\n5,0.3\n6,0.4\n")
        with pytest.raises(ValueError, match="uniform") as err:
            path_from_csv(target, seed=0)
        assert "gappy.csv" in str(err.value)

    def test_path_csv_rejects_single_row(self, tmp_path):
        target = tmp_path / "short.csv"
        target.write_text("t,x\n0,0.1\n")
        with pytest.raises(ValueError, match="at least 2") as err:
            path_from_csv(target, seed=0)
        assert "short.csv" in str(err.value)

    def test_path_csv_rejects_single_column(self, tmp_path):
        target = tmp_path / "times.csv"
        target.write_text("t\n0\n1\n2\n")
        with pytest.raises(ValueError, match="columns t and x") as err:
            path_from_csv(target, seed=0)
        assert "times.csv" in str(err.value)

    def test_panel_csv_bytes(self, tmp_path):
        panel = CoefficientPanel(
            levels=(
                PanelLevel(j=1, a_j=2.0, shifts=[1.0, 2.0], coeffs=[0.5, -0.25]),
                PanelLevel(j=3, a_j=4.5, shifts=[4.5], coeffs=[0.1]),
            ),
            provenance="path-transform",
            seed=0,
        )
        target = tmp_path / "panel.csv"
        panel_to_csv(panel, target)
        assert target.read_text() == (
            "j,k,a_j,b_jk,delta_jk\n"
            "1,1,2,1,0.5\n"
            "1,2,2,2,-0.25\n"
            "3,1,4.5,4.5,0.10000000000000001\n"
        )

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_path_csv_rejects_non_finite_values(self, tmp_path, bad):
        for row in ("0,0.1\n1,%s\n2,0.3\n" % bad, "0,0.1\n%s,0.2\n2,0.3\n" % bad):
            target = tmp_path / "holey.csv"
            target.write_text("t,x\n" + row)
            with pytest.raises(ValueError, match="finite values") as err:
                path_from_csv(target, seed=0)
            assert "holey.csv" in str(err.value)

    @pytest.mark.parametrize("body", ["", "1,1,2\n"], ids=["no rows", "3 columns"])
    def test_panel_csv_rejects_short_files(self, tmp_path, body):
        target = tmp_path / "short.csv"
        target.write_text("j,k,a_j,b_jk,delta_jk\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy notes an empty file
            with pytest.raises(ValueError, match="a_j, b_jk and delta_jk") as err:
                panel_from_csv(target, "path-transform", 0)
        assert "short.csv" in str(err.value)

    @pytest.mark.parametrize("body, message", [
        ("1,1,8,1,0.5\n1,2,8,2,0.4\n1.5,1,16,1,0.3\n1.5,2,16,2,0.2\n", "non-integer j or k"),
        ("1,1,8,1,0.5\n1,2.5,8,2,0.4\n2,1,16,1,0.3\n2,2,16,2,0.2\n", "non-integer j or k"),
        ("1,1,8,1,0.5\n1,2,9,2,0.4\n2,1,16,1,0.3\n2,2,16,2,0.2\n", "level 1 more than one a_j"),
    ], ids=["fractional j", "fractional k", "two a_j"])
    def test_panel_csv_rejects_inconsistent_indices(self, tmp_path, body, message):
        target = tmp_path / "odd.csv"
        target.write_text("j,k,a_j,b_jk,delta_jk\n" + body)
        with pytest.raises(ValueError, match=message) as err:
            panel_from_csv(target, "path-transform", 0)
        assert "odd.csv" in str(err.value)

    def test_panel_csv_rejects_non_finite_coefficients(self, tmp_path):
        target = tmp_path / "holey.csv"
        target.write_text("j,k,a_j,b_jk,delta_jk\n1,1,2,1,0.5\n1,2,2,2,nan\n")
        with pytest.raises(ValueError, match="finite values") as err:
            panel_from_csv(target, "path-transform", 0)
        assert "holey.csv" in str(err.value)
