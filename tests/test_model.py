"""Tests for spectral models and filter specifications."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import specpole
from specpole import model as model_module
from specpole.model import (
    _MEXICAN_TIME_THRESHOLD,
    _MEXICAN_W_BAND,
    _MEXICAN_W_TIME,
    BUILTIN_FILTER_NAMES,
    ConfigError,
    FilterSpec,
    GegenbauerSpec,
    SpectralModel,
    builtin_filter,
    filter_from_json,
    filter_to_json,
    indicator_model,
    model_from_json,
    model_to_json,
)
from specpole.mc import experiment_from_json
from specpole.transform import schedule_from_json

from adaptive_quadrature import QuadratureSpec, integrate

PI = math.pi

# Analytic moment values for the built-in filters, derived by hand from
# the closed frequency forms and frozen here as the oracle.
ANALYTIC_MOMENTS = {
    "shannon-father": (2 * PI, (4.0 / 3.0) * PI**3),
    "shannon-mother": (2 * PI, (28.0 / 3.0) * PI**3),
    "meyer-father": (2 * PI, (16.0 / 9.0) * PI * (PI**2 - 2.0)),
    "meyer-mother": (2 * PI, (112.0 / 9.0) * PI * (PI**2 - 2.0)),
    "mexican-hat": (2 * PI, 10.0 * PI),
}


def midpoint_rule(f, lo, hi, n, chunks=20):
    """Plain midpoint rule in bounded-memory chunks."""
    edges = np.linspace(lo, hi, chunks + 1)
    counts = np.full(chunks, n // chunks)
    counts[: n % chunks] += 1
    total = 0.0
    for a, b, k in zip(edges[:-1], edges[1:], counts):
        h = (b - a) / k
        mids = a + h * (np.arange(k) + 0.5)
        total += h * float(np.sum(f(mids)))
    return total


def pole_quadrature(g, lo, hi, s0, p):
    """int_lo^hi g(lam) |lam - s0|^-p dlam, lo < s0 < hi, g smooth on each
    side: QUADPACK's QAWS on [lo, s0] and [s0, hi], whose algebraic weight
    takes the pole exactly.  SciPy is fetched with importorskip."""
    quad = pytest.importorskip("scipy.integrate").quad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # QAWS doubts its last digits
        return sum(quad(g, a, b, weight="alg", wvar=w, limit=2000, epsabs=1e-14, epsrel=1e-13)[0]
                   for a, b, w in ((lo, s0, (0.0, -p)), (s0, hi, (-p, 0.0))))


def fourier_inverse(psi_hat, t, lo, hi, n=200_001):
    """Inverse transform (1/2pi) int psi_hat(lam) e^{i lam t} dlam."""
    h = (hi - lo) / n
    lam = lo + h * (np.arange(n) + 0.5)
    ph = np.asarray(psi_hat(lam))
    vals = []
    for tk in np.atleast_1d(t):
        vals.append(h * np.sum(ph * np.exp(1j * lam * tk)) / (2 * PI))
    return np.array(vals)


class TestFilterMoments:
    def test_c2_matches_analytic(self):
        for name, (c2, _) in ANALYTIC_MOMENTS.items():
            filt = builtin_filter(name)
            np.testing.assert_allclose(filt.c2, c2, rtol=1e-9, err_msg=name)

    def test_c3_matches_analytic(self):
        for name, (_, c3) in ANALYTIC_MOMENTS.items():
            filt = builtin_filter(name)
            np.testing.assert_allclose(filt.c3, c3, rtol=1e-9, err_msg=name)

    def test_mexican_scale_family(self):
        for sigma in (0.5, 1.0, 2.0, 4.0):
            filt = builtin_filter("mexican-hat", sigma=sigma)
            np.testing.assert_allclose(filt.c2, 2 * PI, rtol=1e-10)
            np.testing.assert_allclose(filt.c3, 10 * PI / sigma**2, rtol=1e-9)
            np.testing.assert_allclose(filt.c3 / filt.c2, 5.0 / sigma**2, rtol=1e-9)

    def test_moments_stable_under_tighter_tolerance(self):
        # The Filon rule's constants on [0, A] against the adaptive oracle
        # over [-A, A], split at every breakpoint, at a tolerance 1000x
        # tighter than the rule's own
        tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
        filters = ([builtin_filter(name) for name in BUILTIN_FILTER_NAMES]
                   + [builtin_filter("mexican-hat", sigma=s) for s in (0.37, 1.0, 2.0)])
        for filt in filters:
            sq = lambda lam: np.abs(np.asarray(filt.psi_hat(lam))) ** 2
            A = filt.band_limit_A
            c2 = integrate(sq, -A, A, tight, breakpoints=filt.breakpoints)
            c3 = 2.0 * integrate(lambda lam: lam * lam * sq(lam), -A, A, tight,
                                 breakpoints=filt.breakpoints)
            assert abs(c2 - filt.c2) <= 1e-13 * c2, filt.doc
            assert abs(c3 - filt.c3) <= 1e-13 * c3, filt.doc


class TestFilterShapes:
    def test_band_limit_is_respected(self):
        rng = np.random.default_rng(7)
        for name in BUILTIN_FILTER_NAMES:
            filt = builtin_filter(name)
            lam = filt.band_limit_A * (1.0 + 3.0 * rng.random(200))
            outside = np.abs(np.asarray(filt.psi_hat(lam))) ** 2
            inside_grid = np.linspace(0, filt.band_limit_A, 400)
            peak = np.max(np.abs(np.asarray(filt.psi_hat(inside_grid))) ** 2)
            assert np.all(outside <= 1e-12 * peak), name

    def test_exact_filters_vanish_outside(self):
        for name in ("shannon-father", "shannon-mother", "meyer-father", "meyer-mother"):
            filt = builtin_filter(name)
            lam = np.linspace(filt.band_limit_A * 1.000001, filt.band_limit_A * 5, 97)
            assert np.all(np.asarray(filt.psi_hat(lam)) == 0), name

    def test_mexican_effective_limit_is_tight(self):
        filt = builtin_filter("mexican-hat", sigma=1.0)
        peak_loc = math.sqrt(2.0)
        peak = abs(filt.psi_hat(np.array([peak_loc]))[0]) ** 2
        at_A = abs(filt.psi_hat(np.array([filt.band_limit_A]))[0]) ** 2
        np.testing.assert_allclose(at_A / peak, 1e-12, rtol=1e-6)
        just_inside = abs(filt.psi_hat(np.array([0.99 * filt.band_limit_A]))[0]) ** 2
        assert just_inside / peak > 1e-12

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 7.0])
    def test_mexican_limits_solve_their_equations(self, sigma):
        filt = builtin_filter("mexican-hat", sigma=sigma)
        power = lambda lam: abs(filt.psi_hat(np.array([lam]))[0]) ** 2
        np.testing.assert_allclose(
            power(filt.band_limit_A) / power(math.sqrt(2.0) / sigma), 1e-12, rtol=1e-10
        )
        T = filt.time_support
        assert T == math.ceil(T)
        ratio = lambda t: abs(filt.psi(t)) / abs(filt.psi(0.0))
        assert ratio(T) <= 1e-10 < ratio(T - 1.0)

    def test_meyer_partition_identity(self):
        father = builtin_filter("meyer-father")
        mother = builtin_filter("meyer-mother")
        lam = np.linspace(0.0, 4 * PI / 3, 501)
        total = (
            np.abs(np.asarray(father.psi_hat(lam))) ** 2
            + np.abs(np.asarray(mother.psi_hat(lam))) ** 2
        )
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)

    def test_shannon_father_time_form(self):
        filt = builtin_filter("shannon-father")
        t = np.array([-3.7, -0.5, 0.0, 0.25, 1.0, 2.0, 8.3])
        recon = fourier_inverse(filt.psi_hat, t, -PI, PI)
        np.testing.assert_allclose(recon.imag, 0.0, atol=1e-12)
        np.testing.assert_allclose(recon.real, filt.psi(t), rtol=0, atol=1e-9)

    def test_shannon_mother_time_form(self):
        # Reconstruct band by band; a midpoint rule across the indicator
        # jumps at +-pi would carry O(h) error.
        filt = builtin_filter("shannon-mother")
        t = np.array([-2.1, 0.0, 0.5, 0.5 + 1e-6, 0.75, 1.5, 4.25])
        recon = fourier_inverse(filt.psi_hat, t, PI, 2 * PI) + fourier_inverse(
            filt.psi_hat, t, -2 * PI, -PI
        )
        np.testing.assert_allclose(recon.imag, 0.0, atol=1e-12)
        np.testing.assert_allclose(recon.real, filt.psi(t), rtol=0, atol=1e-9)

    def test_shannon_mother_removable_point(self):
        filt = builtin_filter("shannon-mother")
        np.testing.assert_allclose(filt.psi(0.5), -1.0, rtol=1e-12)
        eps = np.array([1e-5, 1e-7, 1e-9])
        near = filt.psi(0.5 + eps)
        assert np.all(np.isfinite(near))
        np.testing.assert_allclose(near, -1.0, atol=1e-8)

    def test_mexican_time_frequency_consistency(self):
        filt = builtin_filter("mexican-hat", sigma=1.3)
        lam = np.array([0.3, 0.9, 1.7, 2.5])
        n = 400_001
        lo, hi = -20.0, 20.0
        h = (hi - lo) / n
        t = lo + h * (np.arange(n) + 0.5)
        psi_t = filt.psi(t)
        direct = np.array(
            [h * np.sum(psi_t * np.exp(-1j * l * t)) for l in lam]
        )
        np.testing.assert_allclose(direct.real, [
            filt.psi_hat(np.array([l]))[0].real for l in lam
        ], rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(direct.imag, 0.0, atol=1e-10)

    def test_meyer_filters_are_frequency_only(self):
        for name in ("meyer-father", "meyer-mother"):
            filt = builtin_filter(name)
            assert filt.psi is None
            assert filt.time_support is None

    def test_time_support_bounds_tail(self):
        filt = builtin_filter("mexican-hat", sigma=1.0)
        t = np.linspace(filt.time_support, 4 * filt.time_support, 500)
        peak = abs(filt.psi(0.0))
        assert np.all(np.abs(filt.psi(t)) <= 1.0000001e-10 * peak)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown filter"):
            builtin_filter("haar")

    def test_bad_sigma_raises(self):
        with pytest.raises(ValueError, match="sigma"):
            builtin_filter("mexican-hat", sigma=0.0)

    def test_direct_construction_warns_on_band_violation(self):
        wide = lambda lam: np.exp(-0.5 * np.asarray(lam, dtype=float) ** 2)
        with pytest.warns(UserWarning, match="outside"):
            filt = FilterSpec(name="leaky", psi=None, psi_hat=wide, band_limit_A=2.0)
        # the constants are the in-band moments of the psi_hat given
        c2 = math.sqrt(PI) * math.erf(2.0)
        np.testing.assert_allclose(filt.c2, c2, rtol=1e-10)
        np.testing.assert_allclose(
            filt.c3, c2 - 4.0 * math.exp(-4.0), rtol=1e-10)
        assert filt.doc is None
        # a psi_hat that gives one number for every frequency: 1 on [-1, 1]
        with pytest.warns(UserWarning, match="outside"):
            box = FilterSpec(name="box", psi=None, psi_hat=lambda lam: 1.0, band_limit_A=1.0)
        np.testing.assert_allclose([box.c2, box.c3], [2.0, 4.0 / 3.0], rtol=1e-13)

    def test_document_distinguishes_sigma(self):
        a = builtin_filter("mexican-hat", sigma=1.0)
        b = builtin_filter("mexican-hat", sigma=2.0)
        assert a.doc == {"name": "mexican-hat", "sigma": 1.0}
        assert b.doc == {"name": "mexican-hat", "sigma": 2.0}
        assert a.doc == builtin_filter("mexican-hat", sigma=1.0).doc
        assert builtin_filter("meyer-father").doc == {"name": "meyer-father"}

    def test_constants_are_not_arguments(self):
        filt = builtin_filter("shannon-father")
        with pytest.raises(TypeError):
            FilterSpec(name="x", psi=None, psi_hat=filt.psi_hat,
                       band_limit_A=filt.band_limit_A, c2=1.0, c3=1.0)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(filt, c2=1.0)
        with pytest.raises(ValueError, match="positive"):
            FilterSpec(name="zero", psi=None, psi_hat=lambda lam: 0.0 * lam,
                       band_limit_A=1.0)
        with pytest.raises(ValueError, match="not finite at lam = 0.0"):
            FilterSpec(name="spike", psi=None, band_limit_A=1.0,
                       psi_hat=lambda lam: np.where(np.abs(lam) < 0.5, np.inf, 1.0))

    @pytest.mark.parametrize("name", BUILTIN_FILTER_NAMES)
    def test_hand_built_filter_has_the_builtin_constants(self, name):
        filt = builtin_filter(name)
        again = FilterSpec(name=name, psi=filt.psi, psi_hat=filt.psi_hat,
                           band_limit_A=filt.band_limit_A,
                           breakpoints=filt.breakpoints)
        assert (again.c2, again.c3) == (filt.c2, filt.c3)
        assert again.doc is None


# (sigma, band_limit_A, time_support, c2, c3) of the mexican-hat filter,
# as built when its two Lambert W_-1 values were computed by
# scipy.special.lambertw at construction, and its constants by adaptive
# Gauss-Kronrod quadrature over [-A, A].
MEXICAN_HAT_CONSTANTS = [
    (0.37, 16.075252539397454, 3.0, 6.283185307179121, 229.48083663889818),
    (0.5, 11.895686879154114, 4.0, 6.283185307179119, 125.66370614346063),
    (1.0, 5.947843439577057, 8.0, 6.283185307179119, 31.415926535865154),
    (1.3, 4.5752641842900434, 10.0, 6.283185307179118, 18.58930564252376),
    (2.0, 2.9739217197885286, 15.0, 6.283185307179119, 7.853981633966289),
    (3.3, 1.8023767998718356, 25.0, 6.283185307179121, 2.8848417388305934),
    (7.0, 0.8496919199395796, 52.0, 6.283185307179119, 0.6411413578747991),
]


class TestMexicanHatLambertLiterals:
    def test_literals_equal_scipy_lower_branch(self):
        lambertw = pytest.importorskip("scipy.special").lambertw

        band = lambertw(-1e-6 / math.e, -1).real
        time = lambertw(-0.5 * math.sqrt(math.e) * _MEXICAN_TIME_THRESHOLD, -1).real
        assert _MEXICAN_W_BAND == band
        assert _MEXICAN_W_TIME == time

    @pytest.mark.parametrize("sigma,A,T,c2,c3", MEXICAN_HAT_CONSTANTS)
    def test_filter_constants_unchanged(self, sigma, A, T, c2, c3):
        # the band and support exactly; the constants, now by the Filon
        # rule on [0, A], within a few ulps of the adaptive rule's
        filt = builtin_filter("mexican-hat", sigma=sigma)
        assert (filt.band_limit_A, filt.time_support) == (A, T)
        assert abs(filt.c2 - c2) <= 1e-14 * c2 and abs(filt.c3 - c3) <= 1e-14 * c3


class TestSpectralModel:
    def test_density_example_values(self):
        model = indicator_model(2.0, 0.25, 3.0)
        np.testing.assert_allclose(model.density(0.0), 0.5, rtol=1e-14)
        np.testing.assert_allclose(
            model.density(1.0), 1.0 / math.sqrt(3.0), rtol=1e-14
        )

    def test_density_even_and_enveloped(self):
        model = indicator_model(1.5, 0.2, 3.0)
        lam = np.array([0.3, 0.9, 1.2, 2.4, 2.9])
        np.testing.assert_allclose(
            model.density(lam), model.density(-lam), rtol=1e-14
        )
        assert model.density(3.5) == 0.0

    def test_density_rejects_pole(self):
        model = indicator_model(1.5, 0.2, 3.0)
        with pytest.raises(ValueError, match="singularity"):
            model.density(1.5)
        with pytest.raises(ValueError, match="singularity"):
            model.density(np.array([0.3, -1.5]))

    def test_pole_density_leaves_the_pole_to_the_caller(self):
        # Integrators evaluate the formula directly: a node that rounds
        # onto s0 gives an infinite value there instead of an error.
        model = indicator_model(1.5, 0.2, 3.0)
        lam = np.array([0.3, 0.9, 1.5, 2.4, 3.5])
        with np.errstate(divide="ignore"):
            raw = model.pole_density(lam)
        assert np.isinf(raw[2])
        keep = [0, 1, 3, 4]
        np.testing.assert_array_equal(raw[keep], model.density(lam[keep]))

    def test_parameter_validation(self):
        h = lambda lam: np.ones_like(np.asarray(lam, dtype=float))
        with pytest.raises(ValueError, match="s0"):
            SpectralModel(1.0, 0.2, h, envelope=3.0)
        with pytest.raises(ValueError, match="alpha"):
            SpectralModel(1.5, 0.5, h, envelope=3.0)
        with pytest.raises(ValueError, match="alpha"):
            SpectralModel(1.5, -0.1, h, envelope=3.0)
        with pytest.raises(ValueError, match="envelope"):
            SpectralModel(1.5, 0.2, h, envelope=-1.0)
        with pytest.raises(ValueError, match="M"):
            indicator_model(1.5, 0.2, 0.0)

    def test_h_value_warning(self):
        h = lambda lam: np.full_like(np.asarray(lam, dtype=float), 0.5)
        with pytest.warns(UserWarning, match="h\\(0\\)"):
            SpectralModel(1.5, 0.2, h, envelope=3.0)

    def test_h_evenness_warning(self):
        h = lambda lam: np.where(np.asarray(lam, dtype=float) >= 0, 1.0, 0.8)
        with pytest.warns(UserWarning, match="even"):
            SpectralModel(1.5, 0.2, h, envelope=3.0)

    def test_h_negativity_warning(self):
        h = lambda lam: np.cos(np.asarray(lam, dtype=float))
        with pytest.warns(UserWarning, match="negative"):
            SpectralModel(1.5, 0.2, h, envelope=3.0)

    def test_covariance_matches_midpoint_oracle(self):
        # B(0) for the indicator model integrates |lam^2 - s0^2|^(-2a)
        # over [-M, M]; the oracle is a 1e7-point midpoint rule whose
        # own error near the interior pole is O(h^0.8), about 1e-6
        # relative here, so the comparison tolerance sits above that.
        model = indicator_model(1.5, 0.1, 3.0)
        integrand = lambda lam: np.abs(lam**2 - 1.5**2) ** -0.2
        oracle = 2.0 * midpoint_rule(integrand, 0.0, 3.0, 10_000_000)
        value = model.covariances([0.0])[0]
        np.testing.assert_allclose(value, oracle, rtol=5e-6)

    def test_covariance_even_and_bounded(self):
        model = indicator_model(1.5, 0.1, 3.0)
        b0 = model.covariances([0.0])[0]
        for r in (0.4, 1.1, 2.7):
            br = model.covariances([r])[0]
            np.testing.assert_allclose(br, model.covariances([-r])[0], rtol=1e-10)
            assert abs(br) < b0

    def test_covariance_oscillatory_argument(self):
        # Large r exercises the cosine pre-splitting path.  The raw
        # midpoint oracle keeps an O(h^0.8) error from the cells around
        # the interior pole, so extrapolate that term away before
        # comparing.
        model = indicator_model(1.5, 0.1, 3.0)
        integrand = lambda lam: np.cos(25.0 * lam) * np.abs(lam**2 - 2.25) ** -0.2
        coarse = 2.0 * midpoint_rule(integrand, 0.0, 3.0, 2_000_000)
        fine = 2.0 * midpoint_rule(integrand, 0.0, 3.0, 4_000_000)
        ratio = 2.0**0.8
        oracle = (ratio * fine - coarse) / (ratio - 1.0)
        np.testing.assert_allclose(model.covariances([25.0])[0], oracle, atol=1e-9)

    def test_covariance_near_lag_zero(self):
        # 0 <= B(0) - B(r) = 2 int (1 - cos r lam) f <= (r M)^2 B(0) / 2, and
        # the drop is r^2 times one constant while r M is small.  Down to
        # r = 1e-9 the band [0, M] is a tiny part of the half-period pi / r
        # and takes nodes of its own.
        model = indicator_model(1.2661, 0.1, 3.0)
        b0 = model.covariances([0.0])[0]
        drop = {r: b0 - model.covariances([r])[0] for r in (1e-9, 1e-6, 1e-4, 1e-3)}
        for r, d in drop.items():
            assert -1e-14 * b0 <= d <= ((3.0 * r) ** 2 / 2.0 + 1e-14) * b0
        assert drop[1e-4] / 1e-8 == pytest.approx(drop[1e-3] / 1e-6, rel=1e-5)
        assert drop[1e-6] / 1e-12 == pytest.approx(drop[1e-3] / 1e-6, rel=1e-2)

    @pytest.mark.parametrize("r", [0.0, 1.0, 7.0, 100.0])
    def test_covariance_at_large_alpha(self, r):
        # alpha = 0.45: what the two subtracted terms of the pole leave has
        # a |x|^1.1 cusp at s0, at the edge of the rule's error bound
        model = indicator_model(1.5, 0.45, 3.0)
        g = lambda lam: math.cos(r * lam) * (lam + 1.5) ** -0.9
        oracle = 2.0 * pole_quadrature(g, 0.0, 3.0, 1.5, 0.9)
        assert abs(model.covariances([r])[0] - oracle) <= 1e-11 * model.covariances([0.0])[0]

    @pytest.mark.parametrize("r", [0.0, 50.0, 2000.0])
    def test_covariance_of_smooth_h_on_its_envelope(self, r):
        # h = exp(-lam^2) is below exp(-49) past the declared envelope 7,
        # where the oracle stops too; the Filon column meets its tolerance
        # 1e-10 (measured within 7e-12)
        h = lambda lam: np.exp(-np.asarray(lam, dtype=float) ** 2)
        model = SpectralModel(1.5, 0.2, h, envelope=7.0)
        g = lambda lam: math.cos(r * lam) * math.exp(-lam * lam) * (lam + 1.5) ** -0.4
        value = model.covariances([r])[0]
        assert value == pytest.approx(2.0 * pole_quadrature(g, 0.0, 7.0, 1.5, 0.4), abs=1e-10)

    def test_model_needs_an_envelope(self):
        h = lambda lam: np.exp(-np.asarray(lam, dtype=float) ** 2)
        with pytest.raises(TypeError):
            SpectralModel(1.5, 0.2, h)

    def test_multiples_of_the_smallest_lag_share_one_column(self, monkeypatch):
        model = indicator_model(1.2661, 0.1, 3.0)
        full = model.covariances(np.arange(0, 257.0))
        evens = model.covariances(np.arange(0, 8.0, 2.0))
        far = [model.covariances([r])[0] for r in (1.0, 1000.0)]
        uneven = [model.covariances([r])[0] for r in (1.0, 1.5)]
        columns = []  # (gamma, m) of each column asked for
        real = model_module._band_column

        def counted(*args):
            columns.append(args[3:5])
            return real(*args)

        monkeypatch.setattr(model_module, "_band_column", counted)
        np.testing.assert_array_equal(model.covariances(np.arange(1, 257.0)), full[1:])
        np.testing.assert_array_equal(model.covariances([6.0, -2.0, 0.0, 4.0]),
                                      evens[[3, 1, 0, 2]])
        assert columns == [(1.0, 257), (2.0, 4)]
        # a column of 1001 lags for 2, and lags off the multiples, go lag by
        # lag, each entry 1 of the column of lags 0, r
        columns.clear()
        assert model.covariances([1.0, 1000.0]).tolist() == far
        assert model.covariances([1.0, 1.5]).tolist() == uneven
        assert columns == [(1.0, 2), (1000.0, 2), (1.0, 2), (1.5, 2)]

    def test_only_covariances_gives_a_covariance(self):
        assert not hasattr(specpole, "covariance_eval")
        assert not hasattr(model_module, "covariance_eval")

    @pytest.mark.parametrize("lags, first", [([0.0, np.nan], "nan"), ([np.inf, 1.0], "inf"),
                                             ([2.0, -np.inf, np.nan], "-inf")])
    def test_covariances_need_finite_lags(self, lags, first):
        for model in (indicator_model(1.2661, 0.1, 3.0), GegenbauerSpec(0.1, 0.3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="lag %s is not a finite" % first):
                    model.covariances(lags)

    def test_h_beyond_the_envelope_warning(self):
        # exp(-lam^2/100) is 0.91 at 3, where envelope 3 truncates it
        h = lambda lam: np.exp(-np.asarray(lam, dtype=float) ** 2 / 100.0)
        with pytest.warns(UserWarning, match="beyond the envelope 3.0"):
            SpectralModel(1.5, 0.2, h, envelope=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SpectralModel(1.5, 0.2, h, envelope=60.0)  # below e^-37 past 61.2
            SpectralModel(1.5, 0.2, lambda lam: np.exp(-np.asarray(lam, dtype=float) ** 2),
                          envelope=7.0)
            indicator_model(1.5, 0.2, 3.0)


class TestGegenbauerSpec:
    def test_singularity_location(self):
        spec = GegenbauerSpec(d=0.1, u=0.3)
        np.testing.assert_allclose(spec.s0, math.acos(0.3), rtol=1e-15)
        assert spec.alpha == 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match="d must"):
            GegenbauerSpec(d=0.5, u=0.3)
        with pytest.raises(ValueError, match="u must"):
            GegenbauerSpec(d=0.1, u=1.0)
        with pytest.raises(ValueError, match="sigma_eps"):
            GegenbauerSpec(d=0.1, u=0.3, sigma_eps=-1.0)
        with pytest.raises(ValueError, match="truncation"):
            GegenbauerSpec(d=0.1, u=0.3, truncation=0)

    def test_zero_noise_allowed(self):
        spec = GegenbauerSpec(d=0.1, u=0.3, sigma_eps=0.0)
        assert spec.sigma_eps == 0.0

    def test_zero_limits_match_density_differences(self):
        spec = GegenbauerSpec(d=0.1, u=0.3, truncation=40)
        f0, f2 = spec.zero_limits()
        np.testing.assert_allclose(f0, spec.density(0.0), rtol=1e-12)
        np.testing.assert_allclose((f0, f2), (0.148244, 0.203569), rtol=5e-6)
        step = 1e-4
        second = (spec.density(step) - 2.0 * f0 + spec.density(-step)) / step**2
        np.testing.assert_allclose(f2, second / 4.0, rtol=2e-4)

    def test_covariances_are_density_integrals(self):
        spec = GegenbauerSpec(d=0.1, u=0.3, sigma_eps=1.5, truncation=10)
        lam = np.linspace(-PI, PI, 4097)
        for r in (0, 3, 9):
            integral = np.trapezoid(np.cos(r * lam) * spec.density(lam), lam)
            np.testing.assert_allclose(
                spec.covariances([r])[0], integral, rtol=1e-10, atol=1e-12
            )
        assert spec.covariances([-3])[0] == spec.covariances([3])[0]
        assert spec.covariances([10, 50]).tolist() == [0.0, 0.0]

    def test_covariances_need_integer_lags(self):
        # the moving average lives on the integer lattice: a fractional lag
        # is an error, not truncated to the integer below it
        spec = GegenbauerSpec(d=0.1, u=0.3)
        with pytest.raises(ValueError, match="lag 1.5 is not a finite integer"):
            spec.covariances([1, 1.5, 1.999])
        whole = spec.covariances(np.arange(-64, 65))
        assert spec.covariances(np.arange(-64.0, 65.0)).tolist() == whole.tolist()
        assert spec.covariances([1e20, -1e20, 2.0**63]).tolist() == [0.0, 0.0, 0.0]


class TestZeroLimits:
    def test_indicator_limits_are_the_pole_map(self):
        model = indicator_model(1.5, 0.2, 3.0)
        f0, f2 = model.zero_limits()
        assert f0 == 1.5 ** (-0.8)
        np.testing.assert_allclose(f2, 0.2 * 1.5 ** (-2.8), rtol=1e-14)

    def test_smooth_envelope_adds_its_curvature(self):
        # h = exp(-lam^2): h(0) = 1, h''(0) = -2.
        h = lambda lam: np.exp(-np.asarray(lam, dtype=float) ** 2)
        model = SpectralModel(1.5, 0.2, h, envelope=7.0)
        f0, f2 = model.zero_limits()
        np.testing.assert_allclose(f0, model.density(0.0), rtol=1e-14)
        expect = 0.2 * 1.5 ** (-2.8) - 0.5 * 1.5 ** (-0.8)
        np.testing.assert_allclose(f2, expect, rtol=1e-6)


class TestJsonConfig:
    def test_indicator_round_trip(self):
        model = indicator_model(1.7, 0.15, 4.0)
        doc = model_to_json(model)
        assert doc == {"family": "indicator", "s0": 1.7, "alpha": 0.15, "M": 4.0}
        back = model_from_json(doc)
        assert (back.s0, back.alpha, back.envelope) == (1.7, 0.15, 4.0)

    def test_gegenbauer_round_trip(self):
        spec = GegenbauerSpec(d=0.1, u=0.3, sigma_eps=2.0, truncation=25)
        back = model_from_json(model_to_json(spec))
        assert back == spec

    def test_from_json_text(self):
        text = json.dumps({"family": "indicator", "s0": 1.5, "alpha": 0.1, "M": 3})
        model = model_from_json(text)
        assert model.doc == {"family": "indicator", "s0": 1.5, "alpha": 0.1, "M": 3.0}
        assert model_to_json(model) == model.doc

    def test_defaults_fill_in(self):
        spec = model_from_json({"family": "gegenbauer", "d": 0.2, "u": -0.4})
        assert spec.sigma_eps == 1.0 and spec.truncation == 40

    def test_schema_errors_carry_pointers(self):
        with pytest.raises(ConfigError) as err:
            model_from_json({"family": "gegenbauer", "d": "0.1", "u": 0.3})
        assert isinstance(err.value, ValueError)
        assert err.value.pointer == "/d"
        assert "expected a number" in err.value.message
        with pytest.raises(ConfigError) as err:
            model_from_json({"family": "indicator", "s0": 1.5}, "/model")
        assert err.value.pointer == "/model/alpha"
        with pytest.raises(ConfigError) as err:
            model_from_json({"family": "gegenbauer", "d": 0.1, "u": 0.3,
                             "truncation": 4.5})
        assert err.value.pointer == "/truncation"
        with pytest.raises(ConfigError) as err:
            filter_from_json({"name": "mexican-hat", "sigma": True}, "/filter")
        assert err.value.pointer == "/filter/sigma"
        with pytest.raises(ConfigError) as err:
            model_from_json([1, 2])
        assert err.value.pointer == ""

    @pytest.mark.parametrize("name", [n for n in BUILTIN_FILTER_NAMES if n != "mexican-hat"])
    def test_sigma_of_a_filter_without_width_is_rejected(self, name):
        with pytest.raises(ConfigError, match="has no width") as err:
            filter_from_json({"name": name, "sigma": 2.5}, "/filter")
        assert err.value.pointer == "/filter/sigma"
        # the default says nothing, and is no part of the filter
        assert filter_from_json({"name": name, "sigma": 1.0}).doc == {"name": name}

    @pytest.mark.parametrize(
        "load", [model_from_json, filter_from_json, schedule_from_json,
                 experiment_from_json])
    def test_malformed_json_text_is_a_schema_error(self, load):
        with pytest.raises(ConfigError, match="not valid JSON") as err:
            load('{"family": ', "/section")
        assert err.value.pointer == "/section"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            model_from_json({"family": "arfima", "d": 0.1})

    def test_custom_model_not_serializable(self):
        h = lambda lam: np.exp(-np.asarray(lam, dtype=float) ** 2)
        model = SpectralModel(1.5, 0.2, h, envelope=7.0)
        with pytest.raises(ValueError, match="indicator"):
            model_to_json(model)
        # nor can a family label make it pass for the indicator
        with pytest.raises(TypeError):
            SpectralModel(1.5, 0.2, h, envelope=3.0, family="indicator")

    def test_filter_round_trip(self):
        filt = builtin_filter("mexican-hat", sigma=1.5)
        doc = filter_to_json(filt)
        assert doc == {"name": "mexican-hat", "sigma": 1.5}
        back = filter_from_json(doc)
        assert back.doc == filt.doc
        assert (back.c2, back.c3) == (filt.c2, filt.c3)
        plain = filter_to_json(builtin_filter("shannon-father"))
        assert plain == {"name": "shannon-father"}
        assert filter_from_json(plain).name == "shannon-father"
        # the document returned is a copy
        plain["sigma"] = 2.0
        assert filter_to_json(builtin_filter("shannon-father")) == {"name": "shannon-father"}

    def test_custom_filter_not_serializable(self):
        # named like a built-in, it must not replay as that built-in
        meyer = builtin_filter("meyer-father")
        custom = FilterSpec(name="shannon-father", psi=None, psi_hat=meyer.psi_hat,
                            band_limit_A=meyer.band_limit_A,
                            breakpoints=meyer.breakpoints)
        with pytest.raises(ValueError, match="built-in filters"):
            filter_to_json(custom)
