"""Tests for path simulation and exact coefficient sampling."""

import json
import math
import re
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

import specpole
from specpole import model as model_module
from specpole import simulate, specfun
from specpole.cli import main
from specpole.model import (
    BUILTIN_FILTER_NAMES,
    FilterSpec,
    GegenbauerSpec,
    SpectralModel,
    builtin_filter,
    indicator_model,
)
from specpole.simulate import (
    CoefficientPanel,
    LevelMeans,
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
from specpole.specfun import QuadratureConvergenceError, gegenbauer_coeffs
from specpole.transform import (
    ScaleSchedule,
    ScheduleLevel,
    geometric_schedule,
    linear_schedule,
)
from adaptive_quadrature import QuadratureSpec, integrate
from test_model import pole_quadrature
from test_sampling import dense_factor, symmetric_toeplitz

# SciPy serves only as an oracle here; the tests that need it fetch it
# with pytest.importorskip, so the rest run where it is not installed.


def single_level_schedule(a, m, gamma=None):
    gamma = a if gamma is None else gamma
    return ScaleSchedule(
        levels=(ScheduleLevel(j=1, a_j=a, gamma_j=gamma, m_j=m),)
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


def band(model, filt, a):
    """Top of the band at scale a and the filter breakpoints inside it."""
    upper = min(filt.band_limit_A / a, model.envelope)
    return upper, [x / a for x in filt.breakpoints if 0.0 < x / a < upper]


def entry_integral(model, filt, a, delta_b, spec=QuadratureSpec()):
    """The per-lag oracle of a covariance entry,
    2a int_0^U cos(delta_b lam) |psi_hat(a lam)|^2 f(lam) dlam by adaptive
    Gauss-Kronrod quadrature, split at s0 when the band holds it, at the
    filter breakpoints and at every half-period of the cosine."""
    upper, breaks = band(model, filt, a)
    if delta_b != 0.0:
        half_period = math.pi / abs(delta_b)
        breaks = breaks + list(half_period * np.arange(1, int(upper / half_period) + 1))
    if model.s0 <= upper:
        breaks = breaks + [model.s0]

    def integrand(lam):
        win = np.abs(np.asarray(filt.psi_hat(a * lam))) ** 2
        return np.cos(delta_b * lam) * win * model.pole_density(lam)

    return 2.0 * a * integrate(integrand, 0.0, upper, spec, breakpoints=breaks)


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

    @pytest.mark.parametrize("k, u", [(2**53 - 1, 1.0 - 2.0**-53),
                                      (2**53 - 2, 1.0 - 2.0**-52)])
    def test_top_lattice_points_give_finite_draws(self, monkeypatch, k, u):
        # All-ones bits put k 2^-53 + 2^-54 at exactly 1.0, whose quantile
        # is +inf; the clamp moves that draw alone to 1 - 2^-53.
        bits = np.uint64(k << 11 | 0x7FF)
        monkeypatch.setattr(simulate, "_mix64", lambda z: np.full(np.shape(z), bits))
        z = gaussian_stream(3, 1, np.arange(4))
        assert np.all(np.isfinite(z))
        np.testing.assert_array_equal(z, quantile(np.full(4, u)))
        ndtri = pytest.importorskip("scipy.special").ndtri
        assert abs(z[0] - ndtri(u)) <= 8 * np.spacing(ndtri(u))


def quantile(u):
    """AS241 quantiles of the 1-d array u, in one block."""
    out = np.empty_like(u)
    simulate._quantile_into(u.copy(), out)
    return out


def ulps(x, oracle):
    return np.max(np.abs(x - oracle) / np.spacing(np.abs(oracle)))


class TestNormalQuantile:
    """AS241 against SciPy's ndtri and an mpmath quantile."""

    def test_matches_ndtri_on_the_stream_lattice(self):
        ndtri = pytest.importorskip("scipy.special").ndtri
        k = np.random.default_rng(11).integers(0, 2**53, 1_200_000, dtype=np.uint64)
        k[:4] = (0, 1, 2**52, 2**53 - 2)
        u = k.astype(np.float64) * 2.0**-53 + 2.0**-54
        assert ulps(quantile(u), ndtri(u)) <= 8

    def test_matches_ndtri_into_both_tails(self):
        ndtri = pytest.importorskip("scipy.special").ndtri
        low = np.geomspace(2.0**-54, 0.5, 100_000)
        high = 1.0 - np.geomspace(2.0**-53, 0.5, 100_000)
        for u in (low, high):
            assert ulps(quantile(u), ndtri(u)) <= 8

    def test_matches_mpmath(self):
        u = np.concatenate([
            np.geomspace(2.0**-54, 0.49, 150),
            1.0 - np.geomspace(2.0**-53, 0.49, 150),
            np.random.default_rng(12).random(100),
        ])
        with mpmath.workdps(40):
            oracle = np.array([
                float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)) for p in u
            ])
        assert ulps(quantile(u), oracle) <= 6


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

    def test_integer_step_takes_every_dt_th_lattice_point(self):
        spec = GegenbauerSpec(d=0.1, u=0.3, truncation=40)
        unit = gegenbauer_path(spec, 898, -7.0, 1.0, seed=7)
        for dt in (2.0, 3.0):
            n = 897 // int(dt) + 1
            path = gegenbauer_path(spec, n, -7.0, dt, seed=7)
            assert path.values.flags.c_contiguous
            np.testing.assert_array_equal(path.values, unit.values[:: int(dt)])

    @pytest.mark.parametrize("truncation", [5, 40])
    @pytest.mark.parametrize("dt", [1.0, 3.0])
    def test_blocks_match_one_convolution(self, truncation, dt):
        # The path is summed in overlap-save blocks of about
        # _QUANTILE_BLOCK lattice points, and on dt = 3 read at every
        # third one: each value must equal one np.convolve over the whole
        # lattice bit for bit, on either side of the block edges too.
        spec = GegenbauerSpec(d=0.1, u=0.3, truncation=truncation)
        n, t0, step = 2 * simulate._QUANTILE_BLOCK + 7, -50, int(dt)
        path = gegenbauer_path(spec, n, float(t0), dt, seed=7)
        eps = spec.sigma_eps * gaussian_stream(
            7, simulate._INNOVATION_TAG, np.arange(t0 - truncation + 1, t0 + step * (n - 1) + 1))
        lattice = np.convolve(eps, spec.coefficients(), mode="valid")
        assert path.values.tobytes() == lattice[::step].tobytes()

    @pytest.mark.parametrize("dt", [1.0, 3.0])
    def test_path_memory_is_one_block_beyond_its_values(self, dt):
        # Only one block's innovations and sums live beside the output:
        # on 10^6 samples the traced peak measured the values plus
        # 1.24 MB, against three arrays the size of the lattice when the
        # whole lattice was drawn and convolved at once.
        n = 1_000_000
        tracemalloc.start()
        try:
            path = gegenbauer_path(GegenbauerSpec(d=0.1, u=0.3), n, 0.0, dt, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.values.size == n
        assert peak <= 8 * n + 2e6

    def test_off_lattice_grid_raises(self, tmp_path, capsys):
        # the process lives on the integer lattice: a grid between its
        # points raises, and simulate exits 1 without writing
        spec = GegenbauerSpec(d=0.1, u=0.3, truncation=40)
        for t0, dt in ((0.0, 0.25), (0.5, 1.0), (-3.0, 1.5), (math.nan, 1.0)):
            bad = "dt = %r" % dt if t0.is_integer() else "t0 = %r" % t0
            with pytest.raises(ValueError, match=re.escape(bad)):
                gegenbauer_path(spec, 41, t0, dt, seed=5)
        config = tmp_path / "simulate.json"
        config.write_text(json.dumps({"model": spec.doc, "n_points": 41, "dt": 0.25, "seed": 5}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 1
        assert "dt = 0.25" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

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

    def test_density_model_has_no_sampling_recipe(self):
        with pytest.raises(TypeError, match="sampling recipe"):
            gegenbauer_path(indicator_model(2.0, 0.2, 4.0), 10, 0.0, 1.0, seed=0)


class TestCoefficientCovariance:
    model = indicator_model(1.2661, 0.1, 3.0)
    filt = builtin_filter("shannon-father")

    def test_single_shift_equals_second_moment(self):
        # both are entry 0 of the single-shift column
        col = coefficient_covariance(self.model, self.filt, 8.0, [5.0])
        np.testing.assert_array_equal(
            col, [scale_second_moment(self.model, self.filt, 8.0)]
        )

    @pytest.mark.parametrize("a", [-8.0, 0.0])
    def test_second_moment_rejects_non_positive_scale(self, a):
        with pytest.raises(ValueError, match="scale must be a positive real"):
            scale_second_moment(self.model, self.filt, a)

    def test_entry_against_midpoint_oracle(self):
        # Smooth integrand for a = 8 (the pole sits outside the band),
        # so a plain fine midpoint rule is an accurate oracle.
        a, delta = 8.0, 16.0
        upper = self.filt.band_limit_A / a
        s0sq = self.model.s0**2

        def g(lam):
            return np.cos(delta * lam) * np.abs(lam**2 - s0sq) ** -0.2

        oracle = 2.0 * a * midpoint_rule(g, 0.0, upper, 2_000_000)
        col = coefficient_covariance(self.model, self.filt, a, [8.0, 24.0])
        np.testing.assert_allclose(col[1], oracle, rtol=1e-9)

    def test_toeplitz_structure_and_symmetry(self):
        cov = symmetric_toeplitz(
            coefficient_covariance(self.model, self.filt, 8.0, 8.0 * np.arange(1, 9)))
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

    @pytest.mark.parametrize("m", [1, 2, 3, 17, 600])
    def test_strided_toeplitz_equals_scipy(self, m):
        toeplitz = pytest.importorskip("scipy.linalg").toeplitz
        col = np.random.default_rng(m).standard_normal(m)
        np.testing.assert_array_equal(symmetric_toeplitz(col), toeplitz(col))

    def test_non_arithmetic_shifts_consistent(self):
        # A non-arithmetic grid raises; the DCT columns of the two-shift
        # grids at its separations match a 30-digit oracle.
        with pytest.raises(ValueError, match="arithmetic grid"):
            coefficient_covariance(self.model, self.filt, 8.0, [8.0, 24.0, 56.0])
        for delta in (16.0, 48.0):
            pair = coefficient_covariance(self.model, self.filt, 8.0, [0.0, delta])
            np.testing.assert_allclose(pair[1], self.entry_oracle(8.0, delta),
                                       rtol=1e-12)

    def test_descending_and_repeated_shifts(self):
        # the entries depend on |b_k1 - b_k2| only
        up = coefficient_covariance(self.model, self.filt, 8.0, [8.0, 16.0, 24.0])
        down = coefficient_covariance(self.model, self.filt, 8.0, [24.0, 16.0, 8.0])
        np.testing.assert_array_equal(down, up)
        same = coefficient_covariance(self.model, self.filt, 8.0, [5.0, 5.0])
        np.testing.assert_array_equal(same, scale_second_moment(self.model, self.filt, 8.0))

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
        col = coefficient_covariance(self.model, self.filt, a, [0.0, 1e6 * a])
        assert abs(col[1]) <= 1e-3 * col[0]

    def test_off_diagonal_decay_envelope(self):
        # |I(delta)| <= C * a / delta with one C fit on the small-delta
        # head; the normalized sequence must also decay monotonically.
        a = 8.0
        seps = a * 2.0 ** np.arange(0, 11)
        vals = np.array(
            [
                coefficient_covariance(self.model, self.filt, a, [0.0, d])[1]
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
        with pytest.raises(TypeError, match="SpectralModel"):
            scale_second_moment(GegenbauerSpec(d=0.1, u=0.3), self.filt, 8.0)

    @pytest.mark.parametrize("call", [
        lambda model, filt, spec: model.covariances([0.0, 1.0], spec),
        lambda model, filt, spec: GegenbauerSpec(0.1, 0.3).covariances([0, 1], spec=spec),
        lambda model, filt, spec: coefficient_covariance(model, filt, 8.0, [0.0, 8.0], spec),
        lambda model, filt, spec: scale_second_moment(model, filt, 8.0, spec=spec),
    ], ids=["SpectralModel.covariances", "GegenbauerSpec.covariances",
            "coefficient_covariance", "scale_second_moment"])
    def test_covariance_calls_take_no_spec(self, call):
        # every column meets specfun._COLUMN_TOL, which no call sets
        with pytest.raises(TypeError):
            call(self.model, self.filt, QuadratureSpec())

    def test_nonconvergence_names_entry(self, monkeypatch):
        # a = 0.5 and shifts 1e-5 apart: the band [0, 3], which holds s0,
        # takes nodes of its own, and a tolerance below rounding is out of
        # their reach at the cap
        monkeypatch.setattr(specfun, "_COLUMN_TOL", 1e-17)
        with pytest.warns(UserWarning, match="band limit"):
            with pytest.raises(QuadratureConvergenceError, match="shift separation 1e-05") as info:
                coefficient_covariance(self.model, self.filt, 0.5, [0.0, 1e-5])
        oracle = entry_integral(self.model, self.filt, 0.5, 1e-5)
        assert abs(info.value.estimate - oracle) <= 1e-10 * oracle


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
        target = symmetric_toeplitz(coefficient_covariance(
            self.model, self.filt, 8.0, 8.0 * np.arange(1, 5)
        ))
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

    def column(self, filt, a, gamma, m):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # levels below 2A
            return coefficient_covariance(self.model, filt, a, gamma * np.arange(m))

    def assert_matches_per_lag(self, name, a, gamma, m, lags, tol=1e-12):
        filt = builtin_filter(name)
        col = self.column(filt, a, gamma, m)
        assert col.shape == (m,)
        oracle = np.array([entry_integral(self.model, filt, a, k * gamma) for k in lags])
        assert np.max(np.abs(col[lags] - oracle)) <= tol * oracle[0], (name, a)

    def test_matches_quadrature_on_exact_c6_levels(self):
        # The benchmark's exact-c6 ladder: a = 8..64 with m capped at 768.
        # Every lag of the benchmark's Shannon father; every sixth and the
        # last of the other filters, whose oracle takes up to 5x longer.
        for name in BUILTIN_FILTER_NAMES:
            for a, m in ((8.0, 512), (16.0, 768), (32.0, 768), (64.0, 768)):
                step = 1 if name == "shannon-father" else 6
                self.assert_matches_per_lag(name, a, a, m, np.r_[0:m:step, m - 1])

    def test_matches_quadrature_at_criterion_6_size(self):
        # Criterion 6 runs a = 16..64 at m = 4096; check sampled lags,
        # the largest included.
        m = 4096
        lags = np.unique(np.concatenate([
            [0, 1, 2, m - 1],
            np.random.default_rng(6).choice(m, 56, replace=False),
        ]))
        for name in BUILTIN_FILTER_NAMES:
            for a in (16.0, 64.0):
                self.assert_matches_per_lag(name, a, a, m, lags)

    @pytest.mark.parametrize("name, a", [
        ("shannon-father", 3.0), ("shannon-mother", 5.0), ("meyer-father", 4.0),
        ("meyer-mother", 7.0), ("mexican-hat", 5.0)])
    def test_matches_quadrature_on_linear_schedule_levels(self, name, a):
        # linear_schedule's unit shifts at the smallest a_j whose band
        # leaves the pole out: P = gamma U / pi is 0.14 to 0.4, and
        # Shannon mother's band ends 0.0095 below s0.
        m = int(a) ** 3
        self.assert_matches_per_lag(name, a, 1.0, m, np.arange(m))

    @pytest.mark.parametrize("name", BUILTIN_FILTER_NAMES)
    def test_pole_in_band_matches_quadrature(self, name):
        # Every linear level a = 1..6 whose band holds s0, at m = a^3, and
        # a = 2 at m = 4096: the first, the last and sampled lags.
        filt = builtin_filter(name)
        rng = np.random.default_rng(21)
        for a, m in [(a, a**3) for a in range(1, 7)] + [(2, 4096)]:
            if band(self.model, filt, a)[0] >= self.model.s0:
                lags = np.unique(np.r_[0, m - 1, rng.integers(m)])
                self.assert_matches_per_lag(name, float(a), 1.0, m, lags, tol=1e-11)

    @pytest.mark.parametrize("name", BUILTIN_FILTER_NAMES)
    def test_narrow_levels_match_quadrature(self, name):
        # Linear kappa = 2 levels a = 17..90, sampled: P = A / (pi a) falls
        # below 1/16, where the rule starts at its cap, above a = 16
        # (Shannon father) to 42 (Meyer mother).
        for a in (17, 31, 58, 90):
            m = a * a
            self.assert_matches_per_lag(name, float(a), 1.0, m, np.r_[0, 1, m // 3, m - 1],
                                        tol=2e-11)

    @pytest.mark.parametrize("name, a", [
        ("shannon-father", 2.0), ("shannon-mother", 3.0), ("meyer-father", 2.0),
        ("meyer-mother", 2.0), ("mexican-hat", 2.0)])
    def test_pole_in_band_at_large_alpha(self, name, a):
        # alpha = 0.45, the largest tested: what the two subtracted terms
        # leave has a |x|^1.1 cusp at s0, at the edge of the error bound's
        # 4x per doubling.  Oracle: QAWS across the pole (the per-lag
        # oracle's adaptive rule does not converge at this pole).
        model, filt = indicator_model(1.5, 0.45, 3.0), builtin_filter(name)
        lo, upper = (math.pi / a if name == "shannon-mother" else 0.0), band(model, filt, a)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a < 2A
            col = coefficient_covariance(model, filt, a, np.arange(256.0))
        for k in (0, 1, 31, 255):
            g = lambda lam: math.cos(k * lam) * abs(filt.psi_hat(a * lam)) ** 2 * (lam + 1.5) ** -0.9
            oracle = 2.0 * a * pole_quadrature(g, lo, upper, 1.5, 0.9)
            assert abs(col[k] - oracle) <= 1e-11 * col[0], k

    @pytest.mark.parametrize("case", ["pole in band", "non-arithmetic", "tolerance missed"])
    def test_column_is_filon_or_raises(self, case, monkeypatch):
        # No case leaves the Filon rule: a band that holds s0 gets the
        # pole subtracted, a grid that is not arithmetic raises before
        # asking for a column, and a lag that misses the tolerance at the
        # node cap raises with its estimate and bound.
        poles = []
        real = model_module._filon_column
        mother = builtin_filter("shannon-mother")  # its constants are columns too

        def spy(f, upper, knots, pole, *args):
            poles.append(pole)
            return real(f, upper, knots, pole, *args)

        monkeypatch.setattr(model_module, "_filon_column", spy)
        if case == "non-arithmetic":
            with pytest.raises(ValueError, match="arithmetic grid"):
                coefficient_covariance(self.model, self.filt, 8.0, [8.0, 24.0, 56.0, 64.0])
            assert poles == []
        elif case == "pole in band":
            a = 2.0  # upper = pi/2 > s0
            col = self.column(self.filt, a, a, 6)
            assert poles == [(self.model.s0, 2 * self.model.alpha)]
            oracle = [entry_integral(self.model, self.filt, a, k * a) for k in range(6)]
            assert np.max(np.abs(col - oracle)) <= 1e-11 * oracle[0]
        else:
            # the band ends 0.0095 below s0: at 1e-11 the Filon rule on
            # _DCT_MAX_NODES cells still misses at some lags
            monkeypatch.setattr(specfun, "_COLUMN_TOL", 1e-11)
            with pytest.raises(QuadratureConvergenceError, match="on up to %d cells"
                               % specfun._DCT_MAX_NODES) as info:
                self.column(mother, 5.0, 1.0, 8)
            assert poles == [None]
            k = float(re.search(r"separation (\S+) ", str(info.value)).group(1))
            oracle = entry_integral(self.model, mother, 5.0, k)
            assert 0.0 < info.value.error_bound < 1e-8
            assert abs(info.value.estimate - oracle) <= info.value.error_bound

    @pytest.mark.parametrize("name", ["shannon-father", "shannon-mother"])
    @pytest.mark.parametrize("a, p", [(16.0, 2.0**-6), (16.0, 2.0**-10), (8.0, 1e-4 / 8.0),
                                      (8.0, 1e-7), (0.5, 1e-7)])
    def test_narrow_band_matches_oracle(self, name, a, p, monkeypatch):
        # P < 1/16: the padded grid at the cap gives the band 4096 cells at
        # P = 2^-6; below P = 2^-8 it would give fewer than 2^10, down to
        # none, so the band takes nodes of its own and sums the cosines
        # directly.  a = 0.5 puts s0 in the band.
        direct = []
        real = specfun._cosine_sums
        monkeypatch.setattr(specfun, "_cosine_sums", lambda *args: direct.append(1) or real(*args))
        filt = builtin_filter(name)
        upper = band(self.model, filt, a)[0]
        gamma = p * math.pi / upper
        lags = np.r_[0:8, 255]
        col = self.column(filt, a, gamma, 256)[lags]
        assert bool(direct) == (p < 2.0**-8)
        if name == "shannon-mother" and a < 1.0:
            assert not np.any(col)  # the band [2 pi, 4 pi] lies above M = 3
            return
        oracle = [entry_integral(self.model, filt, a, k * gamma) for k in lags]
        assert np.max(np.abs(col - oracle)) <= 2e-11 * oracle[0]

    @pytest.mark.parametrize("name", BUILTIN_FILTER_NAMES)
    def test_constants_are_lag_zero_columns(self, name, monkeypatch):
        # The Filon rule takes every integral of the package: a filter's
        # c2 and c3 are the two rows of one column of lag 0 alone on
        # [0, A], knotted at the breakpoints inside, so |psi_hat|^2 is
        # evaluated once for both, and no module keeps a second integrator.
        calls = []
        real = model_module._filon_column

        def spy(f, upper, knots, *args):
            calls.append((upper, list(knots), *args))
            return real(f, upper, knots, *args)

        monkeypatch.setattr(model_module, "_filon_column", spy)
        filt = builtin_filter(name)
        A = filt.band_limit_A
        knots = [x for x in filt.breakpoints if 0.0 < x < A]
        assert calls == [(A, knots, None, 0, 1, 1.0)]
        for module in (specpole, specfun, model_module, simulate):
            for gone in ("integrate", "QuadratureSpec", "_eval_panels", "_CONSTANT_SPEC"):
                assert not hasattr(module, gone), (module.__name__, gone)

    @pytest.mark.parametrize("n", [2, 3, 8, 1025, 8193])
    def test_dct1_matches_scipy(self, n):
        dct = pytest.importorskip("scipy.fft").dct
        g = np.random.default_rng(n).standard_normal(n)
        ref = dct(g, type=1)
        np.testing.assert_allclose(specfun._dct1(g), ref, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(ref)))


class TestFarLags:
    """Two-shift entries past 20000 half-periods of the band, where the
    column's Filon rule reads each lag from one aliased DCT entry."""

    model = indicator_model(1.2661, 0.1, 3.0)

    def by_parts(self, lo, hi, delta, terms=10):
        """int_lo^hi cos(delta lam) f(lam) dlam to 40 digits, f the pole
        density with h = 1: the integration-by-parts series
        Re [e^(i delta lam) sum_k (-1)^k f^(k)(lam) / (i delta)^(k+1)]_lo^hi,
        whose terms shrink like 1/(delta * distance to s0)."""
        with mpmath.workdps(40):
            s0_sq = mpmath.mpf(self.model.s0) ** 2
            power = -2 * mpmath.mpf(self.model.alpha)
            f = lambda lam: abs(lam * lam - s0_sq) ** power
            d = mpmath.mpf(delta)
            total = 0
            for x, sign in ((mpmath.mpf(hi), 1), (mpmath.mpf(lo), -1)):
                taylor = mpmath.taylor(f, x, terms)
                total += sign * mpmath.expj(d * x) * sum(
                    (-1) ** k * taylor[k] * mpmath.factorial(k) / (1j * d) ** (k + 1)
                    for k in range(terms))
            return float(mpmath.re(total))

    def oracle(self, filt, a, delta):
        """2a int_0^U cos(delta lam)|psi_hat(a lam)|^2 f(lam) dlam.

        |psi_hat|^2 = 1 on the Shannon bands, so they take the series;
        the Meyer and Mexican-hat windows are continuous, so QUADPACK's
        QAWO on each piece between breakpoints reads them correctly.
        """
        upper, breaks = band(self.model, filt, a)
        if filt.name == "shannon-father":
            return 2 * a * self.by_parts(0.0, upper, delta)
        if filt.name == "shannon-mother":
            return 2 * a * self.by_parts(math.pi / a, upper, delta)
        quad = pytest.importorskip("scipy.integrate").quad

        def g(lam):
            win = np.abs(filt.psi_hat(min(a * lam, filt.band_limit_A))) ** 2
            return float(win * self.model.pole_density(lam))

        knots = sorted({0.0, upper, *breaks})
        return 2 * a * sum(
            quad(g, lo, hi, weight="cos", wvar=delta, limit=2000,
                 epsabs=1e-15, epsrel=1e-13)[0]
            for lo, hi in zip(knots[:-1], knots[1:]))

    @pytest.mark.parametrize("name", BUILTIN_FILTER_NAMES)
    @pytest.mark.parametrize("a", [8.0, 64.0])
    def test_entries_match_oracle(self, name, a):
        filt = builtin_filter(name)
        switch = 20000 * math.pi / band(self.model, filt, a)[0]
        for factor in (1.0001, 50.0, 5000.0):
            delta = factor * switch + 0.37
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a = 8 < 2A
                got = coefficient_covariance(self.model, filt, a, [0.0, delta])
            assert abs(got[1] - self.oracle(filt, a, delta)) <= 2 * a * specfun._COLUMN_TOL

    def test_shannon_mother_reads_the_jump_from_inside_the_band(self):
        # psi_hat reads 0 at the band edge pi/a itself; a rule with a
        # node there gets 5.74e-7 for this entry.
        filt = builtin_filter("shannon-mother")
        a, delta = 8.0, 8e6 + 0.37
        with pytest.warns(UserWarning, match="band limit"):  # a = 8 < 2A
            cov = coefficient_covariance(self.model, filt, a, [0.0, delta])
        oracle = 2 * a * self.by_parts(math.pi / a, 2 * math.pi / a, delta)
        assert oracle == pytest.approx(3.0576727e-7, rel=1e-7)
        assert abs(cov[1] - oracle) <= 2 * a * specfun._COLUMN_TOL

    def pole_terms(self, delta, terms=6):
        """The pole's share of int_0^U cos(delta lam) f(lam) dlam to 40
        digits, f = G(lam) |lam - s0|^beta with G = |lam + s0|^beta and
        beta = -2 alpha: Re e^(i delta s0) sum_k G^(k)(s0) / k! I_k, with
        I_k = int x^k |x|^beta e^(i delta x) dx over the line
        = 2 cos(pi s / 2) Gamma(s + k) i^k delta^(-s-k), s = beta + 1
        (Erdelyi 1955; the endpoints add by_parts)."""
        with mpmath.workdps(40):
            s0 = mpmath.mpf(self.model.s0)
            beta = -2 * mpmath.mpf(self.model.alpha)
            s, d = beta + 1, mpmath.mpf(delta)
            taylor = mpmath.taylor(lambda lam: (lam + s0) ** beta, s0, terms)
            series = sum(c * mpmath.gamma(s + k) * (1j) ** k * d ** (-s - k)
                         for k, c in enumerate(taylor))
            return float(mpmath.re(mpmath.expj(d * s0) * 2 * mpmath.cos(mpmath.pi * s / 2)
                                   * series))

    @pytest.mark.parametrize("tol", [None, 1e-5, 1e-6])
    def test_pole_in_band_far_lag_matches_oracle(self, tol, monkeypatch):
        # a = 2: the Shannon father's band [0, pi/2] holds s0, and 1e5 is
        # 5e4 half-periods of it; the oracle is the asymptotic series of
        # the endpoints and the pole.
        if tol is not None:
            monkeypatch.setattr(specfun, "_COLUMN_TOL", tol)
        tol = specfun._COLUMN_TOL
        filt = builtin_filter("shannon-father")
        a, delta = 2.0, 1e5
        with pytest.warns(UserWarning, match="band limit"):  # a = 2 < 2A
            got = coefficient_covariance(self.model, filt, a, [0.0, delta])[1]
        oracle = 2 * a * (self.by_parts(0.0, math.pi / a, delta) + self.pole_terms(delta))
        assert abs(oracle) > 1e-4
        assert abs(got - oracle) <= 2 * a * tol + tol * abs(oracle)

    def test_node_cap_miss_reports_estimate_and_bound(self, monkeypatch):
        # The far entry is about 2.5e-14, so no rounded sum meets a
        # tolerance of 1e-30: the doubling runs to _DCT_MAX_NODES cells
        # and raises at that lag.  Its estimate and bound still meet the
        # default tolerance.  The filter is built first, at the default
        # tolerance: its constants are rounded sums too.
        tol = specfun._COLUMN_TOL
        filt = builtin_filter("shannon-father")
        monkeypatch.setattr(specfun, "_COLUMN_TOL", 1e-30)
        a, delta = 8.0, 8e6
        with pytest.raises(QuadratureConvergenceError, match=r"separation 8000000\.0 .*"
                           r"on up to %d cells" % specfun._DCT_MAX_NODES) as info:
            coefficient_covariance(self.model, filt, a, [0.0, delta])
        oracle = 2 * a * self.by_parts(0.0, math.pi / a, delta)
        assert abs(info.value.estimate - oracle) <= 2 * a * tol
        assert 0.0 < info.value.error_bound <= 2 * a * tol


class TestLevelFactor:
    model = indicator_model(1.2661036727794992, 0.1, 3.0)
    filt = builtin_filter("shannon-father")

    def test_memo_holds_one_panel_shape(self, monkeypatch):
        monkeypatch.setattr(simulate, "_FACTORS", (None, None))
        sched = single_level_schedule(8.0, 6)
        base = simulate._panel_factors(self.model, self.filt, sched)
        assert simulate._panel_factors(self.model, self.filt, sched) is base
        assert simulate._FACTORS[1] is base
        moved = simulate._panel_factors(self.model, self.filt, single_level_schedule(8.0, 7))
        assert moved is not base
        assert simulate._FACTORS[1] is moved  # one entry, the last shape
        # the factor of the per-lag oracle's column
        per_lag = np.array([entry_integral(self.model, self.filt, 8.0, 8.0 * k) for k in range(6)])
        np.testing.assert_allclose(dense_factor(simulate._schur_factor(per_lag, 8.0)),
                                   dense_factor(base[0]), rtol=1e-12)

    def test_jitter_is_reported(self):
        col = np.ones(4)  # rank one: no Schur factor without jitter
        expected = (r"at a_j = 8 \(m_j = 4\) is not positive definite; "
                    r"added diagonal jitter 1e-12 = 1e-12 \* trace/m")
        with pytest.warns(UserWarning, match=expected):
            factor = dense_factor(simulate._schur_factor(col, 8.0))
        np.testing.assert_allclose(factor.T @ factor, np.ones((4, 4)) + 1e-12 * np.eye(4),
                                   rtol=0.0, atol=1e-15)

    def test_exact_c6_levels_need_no_jitter(self):
        for a, m in ((8.0, 512), (16.0, 768), (32.0, 768), (64.0, 768)):
            col = coefficient_covariance(self.model, self.filt, a, a * np.arange(1, m + 1))
            assert np.linalg.eigvalsh(symmetric_toeplitz(col)).min() > 5.0, a
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                simulate._schur_factor(col, a)

    @pytest.mark.parametrize("a, m", [(8.0, 512), (16.0, 768), (32.0, 768), (64.0, 768),
                                      (64.0, 4096)])
    def test_matches_dense_cholesky(self, a, m):
        # the exact-c6 levels (m capped at 768) and one criterion-6 level
        shifts = a * np.arange(1, m + 1)
        col = coefficient_covariance(self.model, self.filt, a, shifts)
        factor = dense_factor(simulate._schur_factor(col, a))
        dense = np.linalg.cholesky(symmetric_toeplitz(col))
        assert factor.shape == (m, m)
        np.testing.assert_allclose(factor.T, dense, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(dense)))

    def test_nearly_singular_level_reconstructs(self):
        # eigenvalues from about 2e-6 to 10.7; the column is per-lag
        model = indicator_model(1.5, 0.25, 4.0)
        filt = builtin_filter("mexican-hat")
        a, m = 16.0, 256
        col = coefficient_covariance(model, filt, a, a * np.arange(1, m + 1))
        cov = symmetric_toeplitz(col)
        assert np.linalg.eigvalsh(cov).min() < 1e-5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor = dense_factor(simulate._schur_factor(col, a))
        assert np.max(np.abs(factor.T @ factor - cov)) <= 1e-13 * cov[0, 0]

    def test_indefinite_column_raises_once_the_ladder_runs_out(self, monkeypatch):
        with pytest.raises(ArithmeticError, match=r"a_j = 8 \(m_j = 3\).*step 1 without"):
            simulate._schur_factor(np.array([1.0, 2.0, 0.0]), 8.0)
        # rho = 1/2 at step 1, then -4/3: only the leading 2 x 2 block is definite
        with pytest.raises(ArithmeticError, match=r"Schur step 2 without jitter"):
            simulate._schur_factor(np.array([1.0, 0.5, -0.75]), 8.0)
        # a zero variance leaves no jitter to add (trace/m = 0)
        with pytest.raises(ArithmeticError, match=r"Schur step 0 without jitter"):
            simulate._schur_factor(np.zeros(3), 8.0)
        # the sampling path names the level that failed
        monkeypatch.setattr(simulate, "_FACTORS", (None, None))
        real = simulate.coefficient_covariance

        def column(model, filt, a_j, shifts):
            col = real(model, filt, a_j, shifts)
            return np.array([1.0, 2.0, 0.0]) if a_j == 16.0 else col

        monkeypatch.setattr(simulate, "coefficient_covariance", column)
        with pytest.raises(ArithmeticError, match=r"a_j = 16 \(m_j = 3\)"):
            exact_coefficient_sample(self.model, self.filt, ladder((8.0, 16.0), m=3), 0)

    def test_factor_build_holds_one_factor(self, monkeypatch):
        # One m = 2048 level: the packed factor's 8 (m^2 + m B) / 2 bytes,
        # the (B, m) staging band and a margin of 16 length-m vectors for
        # the column, its jittered copy and the two generators.  A dense
        # m x m factor alone holds about twice the packed one; a build
        # through the m x m covariance matrix, six times.
        monkeypatch.setattr(simulate, "_FACTORS", (None, None))
        m, b = 2048, simulate._PRODUCT_BLOCK
        sched = single_level_schedule(16.0, m)
        tracemalloc.start()
        try:
            simulate._panel_factors(self.model, self.filt, sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (m * m + m * b) // 2 + 8 * b * m + 16 * 8 * m, peak


def ladder(scales, m=8):
    return ScaleSchedule(levels=tuple(
        ScheduleLevel(j=i + 1, a_j=a, gamma_j=a, m_j=m)
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

    def test_lookalike_model_does_not_take_indicator_factors(self, builds):
        # a model takes no family label, so one whose h differs from the
        # indicator's inside the band is keyed on itself, not on the
        # indicator_model document
        h = lambda lam: np.where(np.abs(lam) <= 3.0, 1.0 - 0.01 * np.asarray(lam) ** 2, 0.0)
        with pytest.raises(TypeError):
            SpectralModel(1.2661036727794992, 0.1, h, envelope=3.0, family="indicator")
        lookalike = SpectralModel(1.2661036727794992, 0.1, h, envelope=3.0)
        sched = ladder((8.0, 16.0))
        base = exact_coefficient_sample(self.model, self.filt, sched, 7)
        again = indicator_model(1.2661036727794992, 0.1, 3.0)
        exact_coefficient_sample(again, builtin_filter("shannon-father"), sched, 7)
        assert builds == [8.0, 16.0]  # a rebuilt indicator shares its document
        other = exact_coefficient_sample(lookalike, self.filt, sched, 7)
        assert builds == [8.0, 16.0, 8.0, 16.0]
        assert not np.array_equal(other.levels[0].coeffs, base.levels[0].coeffs)

    def test_renamed_custom_filter_does_not_take_builtin_factors(self, builds):
        # a hand-built filter named "shannon-father" that holds Meyer
        # father's psi_hat samples as Meyer father, not as the built-in
        meyer = builtin_filter("meyer-father")
        custom = FilterSpec(name="shannon-father", psi=None, psi_hat=meyer.psi_hat,
                            band_limit_A=meyer.band_limit_A,
                            breakpoints=meyer.breakpoints)
        sched = ladder((16.0, 32.0))
        shannon = exact_coefficient_sample(self.model, self.filt, sched, 7)
        got = exact_coefficient_sample(self.model, custom, sched, 7)
        want = exact_coefficient_sample(self.model, meyer, sched, 7)
        assert builds == [16.0, 32.0] * 3
        for lv, ref, sh in zip(got.levels, want.levels, shannon.levels):
            np.testing.assert_array_equal(lv.coeffs, ref.coeffs)
            assert not np.array_equal(lv.coeffs, sh.coeffs)


class TestBatchedSample:
    model = indicator_model(1.2661036727794992, 0.1, 3.0)
    filt = builtin_filter("shannon-father")

    @pytest.mark.parametrize("seeds", [(7,), (7, 8), (3, 900, -1, 2**63, 12)])
    def test_rows_match_single_seed_panels(self, seeds):
        # A batch's (R, m_j) product of the normals of all seeds, row r
        # against seed r's panel: gemm and gemv round differently, so the
        # rows agree to rounding only.  The batch keeps each level's mean
        # squares of those rows, bit for bit.
        sched = ladder((8.0, 16.0, 32.0), m=48)
        batch = exact_coefficient_sample(self.model, self.filt, sched, seeds)
        assert batch.seed == seeds
        factors = simulate._panel_factors(self.model, self.filt, sched)
        z = gaussian_stream(seeds, simulate._PANEL_TAG, np.arange(48)[:, None]).T
        blocks = [simulate._upper_product(z, factor) for factor in factors]
        for lv, block in zip(batch.levels, blocks):
            assert isinstance(lv, LevelMeans) and block.shape == (len(seeds), 48)
            np.testing.assert_array_equal(lv.mean_square, np.mean(block**2, axis=-1))
        for r, seed in enumerate(seeds):
            single = exact_coefficient_sample(self.model, self.filt, sched, seed)
            for block, ref in zip(blocks, single.levels):
                scale = np.max(np.abs(ref.coeffs))
                np.testing.assert_allclose(block[r], ref.coeffs, rtol=0.0,
                                           atol=1e-14 * scale)

    def test_panel_rows_must_match_the_seeds(self):
        # a tuple of R seeds pairs with LevelMeans of R mean squares, an
        # int seed with PanelLevel vectors
        means = LevelMeans(j=1, a_j=2.0, mean_square=[1.0, 2.0, 3.0])
        vector = PanelLevel(j=2, a_j=4.0, shifts=[1.0, 2.0], coeffs=[1.0, 1.0])
        CoefficientPanel(levels=(means,), provenance="exact-gaussian", seed=(1, 2, 3))
        CoefficientPanel(levels=(vector,), provenance="exact-gaussian", seed=1)
        for levels, seed in (((means,), (1, 2)), ((vector,), (1,)),
                             ((means, vector), (1, 2, 3))):
            with pytest.raises(ValueError, match="tuple of R"):
                CoefficientPanel(levels=levels, provenance="exact-gaussian", seed=seed)
        with pytest.raises(ValueError, match="int seed"):
            CoefficientPanel(levels=(means,), provenance="exact-gaussian", seed=1)
        empty = LevelMeans(j=1, a_j=2.0, mean_square=np.ones(0))
        with pytest.raises(ValueError, match="tuple of R"):
            CoefficientPanel(levels=(empty,), provenance="exact-gaussian", seed=())
        with pytest.raises(ValueError, match="several replications"):
            panel_to_csv(CoefficientPanel(levels=(means,), provenance="exact-gaussian",
                                          seed=(1, 2, 3)), "unused.csv")


class TestPanelTypes:
    def test_level_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            PanelLevel(j=1, a_j=2.0, shifts=[1.0, 2.0], coeffs=[0.5])
        with pytest.raises(ValueError, match="equal-length vectors"):
            PanelLevel(j=1, a_j=2.0, shifts=[1.0, 2.0], coeffs=np.ones((3, 2)))
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
        assert panel.levels == (lv1, lv2)

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
                ScheduleLevel(j=1, a_j=8.0, gamma_j=8.0, m_j=3),
                ScheduleLevel(j=2, a_j=16.0, gamma_j=16.0, m_j=2),
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

    def test_path_csv_rejects_times_that_do_not_increase(self, tmp_path):
        target = tmp_path / "backwards.csv"
        target.write_text("t,x\n3,0.1\n2,0.2\n1,0.3\n")
        with pytest.raises(ValueError, match="must increase") as err:
            path_from_csv(target, seed=0)
        assert "backwards.csv" in str(err.value) and "= -1" in str(err.value)

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

    def test_panel_csv_bytes_match_savetxt(self, tmp_path):
        values = [-1.5, 1e-300, -1e-300, 1e300, -1e300, 3.0, -7.0, -0.0,
                  0.1, 2.0**-1074, 1.0 / 3.0, -123456789.0]
        levels = (
            PanelLevel(j=1, a_j=1.0 / 3.0, shifts=[-0.0], coeffs=[-2.5]),
            PanelLevel(j=2, a_j=8.0, shifts=np.arange(len(values)) - 5.5,
                       coeffs=values),
            PanelLevel(j=7, a_j=1e300, shifts=[-1e300, -1e-300, 0.0, 1e300],
                       coeffs=[-0.0, 1e300, -1e-300, 4.0]),
        )
        panel = CoefficientPanel(levels=levels, provenance="path-transform", seed=4)
        target = tmp_path / "panel.csv"
        panel_to_csv(panel, target)
        rows = np.vstack([
            np.column_stack(np.broadcast_arrays(
                lv.j, np.arange(1, lv.shifts.size + 1), lv.a_j, lv.shifts, lv.coeffs))
            for lv in levels])
        reference = tmp_path / "savetxt.csv"
        np.savetxt(reference, rows, fmt=("%d", "%d", "%.17g", "%.17g", "%.17g"),
                   delimiter=",", header="j,k,a_j,b_jk,delta_jk", comments="")
        assert target.read_bytes() == reference.read_bytes()
        assert target.read_text().splitlines()[1] == "1,1,0.33333333333333331,-0,-2.5"

    def test_panel_csv_bytes_match_the_per_row_format(self, tmp_path):
        # j and a_j are formatted once per level; every row must read as
        # if formatted on its own
        rng = np.random.default_rng(9)
        levels = (
            PanelLevel(j=2, a_j=7.3e-5, shifts=-0.1 + 1e-3 * np.arange(5),
                       coeffs=rng.standard_normal(5) * 1e-200),
            PanelLevel(j=11, a_j=2.0 / 3.0, shifts=np.pi * np.arange(1, 40),
                       coeffs=rng.standard_normal(39)),
        )
        panel = CoefficientPanel(levels=levels, provenance="exact-gaussian", seed=1)
        target = tmp_path / "panel.csv"
        panel_to_csv(panel, target)
        assert target.read_text() == "j,k,a_j,b_jk,delta_jk\n" + "".join(
            "%d,%d,%.17g,%.17g,%.17g\n" % (lv.j, k + 1, lv.a_j, b, d)
            for lv in levels for k, (b, d) in enumerate(zip(lv.shifts, lv.coeffs)))

    def test_csv_bytes_span_row_blocks(self, tmp_path):
        # the writers format _ROW_BLOCK rows at a time; rows on either
        # side of a block edge must read as if formatted in one pass
        n = 2 * simulate._ROW_BLOCK + 3
        rng = np.random.default_rng(4)
        levels = (PanelLevel(j=1, a_j=0.1, shifts=0.1 * np.arange(1, 4), coeffs=[1.0, -2.0, 0.5]),
                  PanelLevel(j=2, a_j=2.0 / 3.0, shifts=np.pi * np.arange(1, n + 1),
                             coeffs=rng.standard_normal(n)))
        panel = CoefficientPanel(levels=levels, provenance="path-transform", seed=0)
        target = tmp_path / "panel.csv"
        panel_to_csv(panel, target)
        # compared as lists of lines, whose mismatch pytest reports cheaply
        assert target.read_text().splitlines(keepends=True) == ["j,k,a_j,b_jk,delta_jk\n"] + [
            "%d,%d,%.17g,%.17g,%.17g\n" % (lv.j, k + 1, lv.a_j, b, d)
            for lv in levels for k, (b, d) in enumerate(zip(lv.shifts, lv.coeffs))]
        path = PathRealization(t0=-7.3, dt=0.1, values=rng.standard_normal(n), seed=0)
        target, reference = tmp_path / "path.csv", tmp_path / "savetxt.csv"
        path_to_csv(path, target)
        np.savetxt(reference, np.column_stack([path.times(), path.values]),
                   fmt="%.17g", delimiter=",", header="t,x", comments="")
        assert target.read_bytes().splitlines() == reference.read_bytes().splitlines()

    def test_path_csv_bytes_match_savetxt(self, tmp_path):
        values = [-1.5, 1e-300, -1e-300, 1e300, -1e300, 3.0, -7.0, -0.0,
                  0.1, 2.0**-1074, 1.0 / 3.0, -123456789.0]
        for t0, dt in ((-5.5, 1.0), (0.0, 2.0**-1074), (-1e300, 1e299)):
            path = PathRealization(t0=t0, dt=dt, values=values, seed=0)
            target = tmp_path / "path.csv"
            reference = tmp_path / "savetxt.csv"
            path_to_csv(path, target)
            np.savetxt(reference, np.column_stack([path.times(), path.values]),
                       fmt="%.17g", delimiter=",", header="t,x", comments="")
            assert target.read_bytes() == reference.read_bytes()
        assert target.read_text().splitlines()[:2] == ["t,x", "-1.0000000000000001e+300,-1.5"]

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
        ("2,1,16,1,0.3\n1,1,8,1,0.5\n1,3,8,3,0.3\n2,2,16,2,0.2\n1,1,8,1,0.4\n",
         "level 1 row k = 1 more than once"),
        ("1,1,8,1,0.5\n1,1,8,2,0.4\n2,1,16,1,0.3\n", "level 1 row k = 1 more than once"),
        ("1,1,8,1,0.5\n1,2,8,2,0.4\n2,1,8,1,0.3\n2,2,8,2,0.2\n",
         "levels 1 and 2 the same scale a_j = 8"),
        ("1,1,8,2,0.5\n1,2,8,1,0.4\n2,1,16,1,0.3\n",
         "level 1 shifts b_jk that do not increase"),
        ("1,1,8,1,0.5\n2,1,-16,1,0.3\n2,2,-16,2,0.2\n", "level 2 the scale a_j = -16"),
    ], ids=["fractional j", "fractional k", "two a_j", "duplicate k", "duplicate k in order",
            "one a_j for two levels", "shifts not increasing", "scale not positive"])
    def test_panel_csv_rejects_inconsistent_indices(self, tmp_path, body, message):
        target = tmp_path / "odd.csv"
        target.write_text("j,k,a_j,b_jk,delta_jk\n" + body)
        with pytest.raises(ValueError, match=message) as err:
            panel_from_csv(target, "path-transform", 0)
        assert "odd.csv" in str(err.value)

    def test_panel_csv_rows_in_any_order_read_the_same(self, tmp_path):
        rng = np.random.default_rng(5)
        panel = CoefficientPanel(
            levels=(
                PanelLevel(j=2, a_j=2.0, shifts=np.arange(1.0, 30.0),
                           coeffs=rng.standard_normal(29)),
                PanelLevel(j=5, a_j=5.0, shifts=5.0 * np.arange(1, 12),
                           coeffs=rng.standard_normal(11)),
            ),
            provenance="path-transform",
            seed=3,
        )
        ordered, shuffled = tmp_path / "ordered.csv", tmp_path / "shuffled.csv"
        panel_to_csv(panel, ordered)
        header, *rows = ordered.read_text().splitlines(keepends=True)
        shuffled.write_text(header + "".join(rng.permutation(rows)))
        assert shuffled.read_text() != ordered.read_text()
        want = panel_from_csv(ordered, "path-transform", 3)
        got = panel_from_csv(shuffled, "path-transform", 3)
        for a, b in zip(want.levels, got.levels, strict=True):
            assert (a.j, a.a_j) == (b.j, b.a_j)
            np.testing.assert_array_equal(a.shifts, b.shifts)
            np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_panel_csv_round_trip_memory_is_bounded(self, tmp_path):
        # The writer formats _ROW_BLOCK rows at a time, and the reader
        # holds the table once when its rows are in (j, k) order.  On
        # this 200,000-row level (an 8 MB table) the writer's traced peak
        # measured 0.50 MB, against 12.8 MB when the whole level went
        # through Python lists; the reader's measured 0.49 times the
        # table, against 2.21 times when every file was sorted into a copy.
        n = 200_000
        rng = np.random.default_rng(2)
        panel = CoefficientPanel(
            levels=(PanelLevel(j=3, a_j=3.0, shifts=np.arange(1.0, n + 1.0),
                               coeffs=rng.standard_normal(n)),),
            provenance="path-transform",
            seed=0,
        )
        target = tmp_path / "panel.csv"
        peaks = []
        for step in (lambda: panel_to_csv(panel, target),
                     lambda: panel_from_csv(target, "path-transform", 0)):
            tracemalloc.start()
            try:
                result = step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(result.levels[0].coeffs, panel.levels[0].coeffs)
        assert peaks[0] <= 3e6
        assert peaks[1] <= 1.5 * 5 * 8 * n

    def test_panel_csv_read_memory_is_bounded(self, tmp_path):
        # The reader keeps only the shifts and coefficients of a file in
        # (j, k) order, parsing and checking _ROW_BLOCK rows at a time: on
        # the 200,000-row file of the round trip above it traced 0.49
        # times the table, against 1.43 times when it parsed the table whole.
        n = 200_000
        rng = np.random.default_rng(2)
        panel = CoefficientPanel(
            levels=(PanelLevel(j=3, a_j=3.0, shifts=np.arange(1.0, n + 1.0),
                               coeffs=rng.standard_normal(n)),),
            provenance="path-transform",
            seed=0,
        )
        target = tmp_path / "panel.csv"
        panel_to_csv(panel, target)
        tracemalloc.start()
        try:
            back = panel_from_csv(target, "path-transform", 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.levels[0].shifts, panel.levels[0].shifts)
        np.testing.assert_array_equal(back.levels[0].coeffs, panel.levels[0].coeffs)
        assert peak <= 0.8 * 5 * 8 * n

    def test_path_csv_read_memory_is_bounded(self, tmp_path):
        # The reader fills one array of x sized from the line count and
        # checks each block's times against the grid before dropping
        # them: on 200,000 samples it traced 1.10 times the values,
        # against 4.1 times when it parsed the table whole.
        n = 200_000
        path = PathRealization(t0=-7.0, dt=1.0, seed=0,
                               values=np.random.default_rng(3).standard_normal(n))
        target = tmp_path / "path.csv"
        path_to_csv(path, target)
        tracemalloc.start()
        try:
            back = path_from_csv(target, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (back.t0, back.dt) == (path.t0, path.dt)
        np.testing.assert_array_equal(back.values, path.values)
        assert peak <= 1.25 * 8 * n

    @staticmethod
    def block_spanning_files(tmp_path):
        """A path CSV and a two-level panel CSV, each over two reader
        blocks, with the objects written to them."""
        n = 2 * simulate._ROW_BLOCK + 5
        rng = np.random.default_rng(6)
        path = PathRealization(t0=-3.0, dt=0.5, values=rng.standard_normal(n), seed=0)
        panel = CoefficientPanel(
            levels=(PanelLevel(j=1, a_j=2.0, shifts=2.0 * np.arange(1, n + 1),
                               coeffs=rng.standard_normal(n)),
                    PanelLevel(j=2, a_j=4.0, shifts=4.0 * np.arange(1, 8),
                               coeffs=rng.standard_normal(7))),
            provenance="path-transform",
            seed=0,
        )
        path_csv, panel_csv = tmp_path / "path.csv", tmp_path / "panel.csv"
        path_to_csv(path, path_csv)
        panel_to_csv(panel, panel_csv)
        return (path_csv, path), (panel_csv, panel)

    @pytest.mark.parametrize("edit", ["no final newline", "blank lines"])
    def test_csv_readers_take_ragged_line_ends(self, tmp_path, edit):
        (path_csv, path), (panel_csv, panel) = self.block_spanning_files(tmp_path)
        for target in (path_csv, panel_csv):
            lines = target.read_text().splitlines(keepends=True)
            if edit == "no final newline":
                lines[-1] = lines[-1].rstrip("\n")
            else:
                # blank lines below the header, at a block edge and at the end
                edge = simulate._ROW_BLOCK + 1
                lines = lines[:1] + ["\n"] + lines[1:edge] + ["\n", "\n"] + lines[edge:] + ["\n"]
            target.write_text("".join(lines))
        back = path_from_csv(path_csv, seed=0)
        assert (back.t0, back.dt) == (path.t0, path.dt)
        np.testing.assert_array_equal(back.values, path.values)
        got = panel_from_csv(panel_csv, "path-transform", 0)
        for want, lv in zip(panel.levels, got.levels, strict=True):
            assert (want.j, want.a_j) == (lv.j, lv.a_j)
            np.testing.assert_array_equal(lv.shifts, want.shifts)
            np.testing.assert_array_equal(lv.coeffs, want.coeffs)

    @pytest.mark.parametrize("row", [1, 2], ids=["first row of a block", "inside a block"])
    def test_csv_readers_reject_a_column_count_that_changes(self, tmp_path, monkeypatch, row):
        # a row past the first block gains a column: either the block
        # that starts with it is wider than the first, or np.loadtxt
        # meets it inside a block; both raise naming the file, and the
        # file is closed
        opened = []

        def tracking_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(simulate, "open", tracking_open, raising=False)
        files = self.block_spanning_files(tmp_path)
        for (target, _), read in zip(files, (lambda f: path_from_csv(f, 0),
                                             lambda f: panel_from_csv(f, "path-transform", 0))):
            lines = target.read_text().splitlines(keepends=True)
            lines[simulate._ROW_BLOCK + row] = lines[simulate._ROW_BLOCK + row][:-1] + ",0\n"
            target.write_text("".join(lines))
            opened.clear()
            with pytest.raises(ValueError, match="columns") as err:
                read(target)
            assert target.name in str(err.value)
            assert opened and all(fh.closed for fh in opened)

    def test_panel_csv_checks_rows_across_block_edges(self, tmp_path):
        # each block is checked against the last row of the one before
        (_, _), (target, _) = self.block_spanning_files(tmp_path)
        lines = target.read_text().splitlines(keepends=True)
        edge = simulate._ROW_BLOCK + 1  # the first row of the second block
        for row, message in (("1,%d,2,%d,0.5\n" % (edge - 1, 2 * edge),
                              "level 1 row k = %d more than once" % (edge - 1)),
                             ("1,%d,3,%d,0.5\n" % (edge, 2 * edge), "level 1 more than one a_j"),
                             ("1,%d,2,%d,0.5\n" % (edge, 2 * edge - 2),
                              "level 1 shifts b_jk that do not increase")):
            target.write_text("".join(lines[:edge] + [row] + lines[edge + 1:]))
            with pytest.raises(ValueError, match=message):
                panel_from_csv(target, "path-transform", 0)

    def test_panel_csv_rejects_non_finite_coefficients(self, tmp_path):
        target = tmp_path / "holey.csv"
        target.write_text("j,k,a_j,b_jk,delta_jk\n1,1,2,1,0.5\n1,2,2,2,nan\n")
        with pytest.raises(ValueError, match="finite values") as err:
            panel_from_csv(target, "path-transform", 0)
        assert "holey.csv" in str(err.value)
