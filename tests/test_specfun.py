"""Tests for special functions and the adaptive integrator.

The derived expectations are checked against independent oracles: a
bisection solver and mpmath for Lambert W, the log-gamma direct sum for
Gegenbauer polynomials, brute-force midpoint rules for the integrals and
mpmath's incomplete gamma function and quadrature for the closed-form
pole transforms of the covariance column.  The SciPy oracles are fetched with pytest.importorskip, so the rest of
the file runs where SciPy is not installed.
"""

import math

import mpmath
import numpy as np
import pytest

from specpole import specfun
from specpole.specfun import (
    QuadratureConvergenceError,
    QuadratureSpec,
    gegenbauer_coeff,
    gegenbauer_coeffs,
    integrate,
    lambert_w0,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def w_bisect(x, iterations=200):
    """Solve w * exp(w) = x on the principal branch by plain bisection."""
    if x >= 0.0:
        lo, hi = 0.0, 1.0 + math.log1p(x)
    else:
        lo, hi = -1.0, 0.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) - x <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-17 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def gegenbauer_direct_sum(n, d, u):
    """Textbook Gegenbauer sum with ratio-of-gamma terms, via log-gamma.

    Signs are tracked separately because gamma is negative for the
    d in (-1, 0) cases exercised below.
    """
    special = pytest.importorskip("scipy.special")
    gammaln, gammasgn = special.gammaln, special.gammasgn
    total = 0.0
    for k in range(n // 2 + 1):
        m = n - 2 * k
        if m > 0 and u == 0.0:
            continue
        log_mag = (
            gammaln(d + n - k)
            - gammaln(d)
            - gammaln(k + 1.0)
            - gammaln(m + 1.0)
        )
        sign = gammasgn(d + n - k) * gammasgn(d) * (-1.0) ** k
        if m > 0:
            log_mag += m * math.log(abs(2.0 * u))
            sign *= math.copysign(1.0, u) ** m
        total += sign * math.exp(log_mag)
    return total


def midpoint_rule(f, lo, hi, n, chunks=20):
    """Midpoint rule with n points, evaluated in chunks to bound memory."""
    h = (hi - lo) / n
    total = 0.0
    per = (n + chunks - 1) // chunks
    for start in range(0, n, per):
        stop = min(start + per, n)
        xs = lo + (np.arange(start, stop) + 0.5) * h
        total += float(np.sum(f(xs)))
    return total * h


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
        assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_bisection_oracle(self):
        for x in (2.5, -0.2, 0.03, 1.0, 17.0, 4096.0):
            w = lambert_w0(x)
            assert w == pytest.approx(w_bisect(x), rel=1e-13, abs=1e-13)

    def test_defect_small_on_log_grid(self):
        offsets = np.logspace(-6, math.log10(1e8 + math.exp(-1.0)), 2000)
        grid = -math.exp(-1.0) + offsets
        w = lambert_w0(grid)
        defect = np.abs(w * np.exp(w) - grid)
        assert np.all(defect <= 1e-12 * np.maximum(1.0, np.abs(grid)))

    def test_defect_absolute_near_zero(self):
        grid = np.linspace(-1e-3, 1e-3, 401)
        w = lambert_w0(grid)
        assert np.all(np.abs(w * np.exp(w) - grid) <= 1e-14)

    def test_monotone_and_branch_bound(self):
        grid = -math.exp(-1.0) + np.logspace(-9, 9, 3000)
        w = lambert_w0(grid)
        assert np.all(np.diff(w) >= 0.0)
        assert np.all(w >= -1.0)
        assert np.all(np.isfinite(w))

    def test_below_branch_point_rejected(self):
        with pytest.raises(ValueError, match="branch point"):
            lambert_w0(-0.4)
        with pytest.raises(ValueError, match="NaN"):
            lambert_w0(float("nan"))

    def test_scalar_and_array_forms(self):
        out = lambert_w0(np.array([0.0, math.e]))
        assert isinstance(out, np.ndarray)
        assert isinstance(lambert_w0(1.0), float)
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-14)

    def test_matches_mpmath_over_the_float_range(self):
        grid = np.geomspace(1e-300, 1e308, 2000)
        oracle = np.array([float(mpmath.lambertw(mpmath.mpf(x))) for x in grid])
        np.testing.assert_allclose(lambert_w0(grid), oracle, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# Gegenbauer coefficients
# ---------------------------------------------------------------------------


class TestGegenbauer:
    def test_base_cases(self):
        assert gegenbauer_coeff(0, 0.1, 0.3) == 1.0
        assert gegenbauer_coeff(1, 0.1, 0.3) == pytest.approx(0.06, rel=1e-12)
        assert gegenbauer_coeff(2, 0.1, 0.3) == pytest.approx(-0.0802, rel=1e-12)

    def test_matches_direct_sum(self):
        for d in (-0.3, -0.1, 0.1, 0.3, 0.49):
            for u in (-0.9, -0.3, 0.0, 0.3, 0.9):
                got = gegenbauer_coeffs(12, d, u)
                want = [gegenbauer_direct_sum(n, d, u) for n in range(13)]
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_matches_scipy(self):
        eval_gegenbauer = pytest.importorskip("scipy.special").eval_gegenbauer
        rng = np.random.default_rng(20240817)
        for _ in range(40):
            d = float(rng.uniform(0.02, 0.49)) * float(rng.choice([-1.0, 1.0]))
            u = float(rng.uniform(-1.0, 1.0))
            n = int(rng.integers(0, 25))
            ours = gegenbauer_coeff(n, d, u)
            ref = float(eval_gegenbauer(n, d, u))
            assert ours == pytest.approx(ref, rel=1e-8, abs=1e-10)

    def test_prefix_consistency(self):
        full = gegenbauer_coeffs(20, 0.25, -0.7)
        for n in (0, 1, 7, 20):
            assert gegenbauer_coeff(n, 0.25, -0.7) == full[n]

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="nonzero"):
            gegenbauer_coeff(3, 0.0, 0.3)
        with pytest.raises(ValueError, match="u"):
            gegenbauer_coeff(3, 0.1, 1.5)
        with pytest.raises(ValueError, match="non-negative"):
            gegenbauer_coeffs(-1, 0.1, 0.3)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


class TestQuadrature:
    @pytest.mark.parametrize("lo, hi", [(-np.inf, np.inf), (0.0, np.inf), (np.nan, 1.0),
                                        (0.0, np.nan)])
    def test_infinite_and_nan_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            integrate(lambda lam: np.exp(-lam * lam), lo, hi)

    def test_indicator_over_real_line(self):
        # A real-line integral is taken over the integrand's support, with
        # its jumps as breakpoints.
        f = lambda lam: np.where(np.abs(lam) <= math.pi, 1.0, 0.0)
        value = integrate(f, -4.0, 4.0, breakpoints=(-math.pi, math.pi))
        assert value == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_gaussian_over_real_line(self):
        # Past |lam| = 7, exp(-lam^2) is below e^-49: the envelope a
        # smooth-h SpectralModel declares.
        value = integrate(lambda lam: np.exp(-lam * lam), -7.0, 7.0)
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_algebraic_singularity_vs_midpoint_oracle(self):
        f = lambda lam: np.abs(lam * lam - 1.0) ** -0.25
        spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
        value = integrate(f, 0.0, 2.0, spec, breakpoints=(1.0,))
        # The raw 1e7-point midpoint rule carries an O(h^(3/4)) error from
        # the cells abutting the singularity (measured 1.1e-6 relative),
        # so the raw comparison uses that floor while the tight check
        # extrapolates the known h^(3/4) term away.
        oracle = midpoint_rule(f, 0.0, 2.0, 10**7)
        oracle_fine = midpoint_rule(f, 0.0, 2.0, 2 * 10**7)
        r = 2.0**0.75
        extrapolated = (r * oracle_fine - oracle) / (r - 1.0)
        assert value == pytest.approx(oracle, rel=2e-6)
        assert value == pytest.approx(extrapolated, rel=1e-7)

    def test_linearity_on_smooth_integrands(self):
        f = lambda x: np.exp(-x * x)
        g = lambda x: 1.0 / (1.0 + x * x)
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
        combined = integrate(lambda x: 2.0 * f(x) + 3.0 * g(x), -4.0, 5.0, spec)
        parts = 2.0 * integrate(f, -4.0, 5.0, spec) + 3.0 * integrate(g, -4.0, 5.0, spec)
        assert combined == pytest.approx(parts, rel=1e-10)

    def test_reversed_and_empty_bounds(self):
        f = lambda x: x * x
        assert integrate(f, 2.0, 2.0) == 0.0
        forward = integrate(f, 0.0, 2.0)
        assert integrate(f, 2.0, 0.0) == pytest.approx(-forward, rel=1e-12)

    def test_constant_integrand_broadcasts(self):
        assert integrate(lambda x: 2.0, 0.0, 3.0) == pytest.approx(6.0, rel=1e-14)

    def test_nonconvergence_carries_estimate(self):
        f = lambda lam: np.abs(lam - 0.3) ** -0.5
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=3)
        with pytest.raises(QuadratureConvergenceError) as excinfo:
            integrate(f, 0.0, 1.0, spec, breakpoints=(0.3,))
        err = excinfo.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 0.0

    def test_nonfinite_integrand_reported(self):
        f = lambda lam: np.where(lam < 0.5, 1.0, np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            integrate(f, 0.0, 1.0, QuadratureSpec(max_subdivisions=4))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="abs_tol"):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError, match="max_subdivisions"):
            QuadratureSpec(max_subdivisions=0)

    def test_spec_takes_no_singularities(self):
        # a split point is a breakpoint of integrate
        with pytest.raises(TypeError):
            QuadratureSpec(singularities=(1.0,))

    def test_breakpoints_do_not_change_value(self):
        f = lambda x: np.cos(40.0 * x) * np.exp(-0.1 * x)
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
        plain = integrate(f, 0.0, 10.0, spec)
        hinted = integrate(
            f, 0.0, 10.0, spec, breakpoints=tuple(np.linspace(0.25, 9.75, 39))
        )
        assert hinted == pytest.approx(plain, rel=1e-9, abs=1e-12)


class TestPoleTransforms:
    """The transforms a covariance column adds back in closed form for
    the two leading terms of a pole in its band, at beta = -2 alpha and
    1 - 2 alpha.  Lengths and s0 are dyadic, so each w L is exact."""

    ws = np.array([0.0, 1e-3, 0.5, 3.9, 4.0, 7.5, 64.0, 1e3, 3.2e4, 1e6])

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.45])
    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_half_line_matches_incomplete_gamma(self, alpha, shift):
        # int_0^L x^beta e^(i w x) dx = (-i w)^-s gamma(s, -i w L), s = beta + 1
        beta = shift - 2.0 * alpha
        for length in (0.25, 2.0):
            got = specfun._power_exp(beta, self.ws, length)
            with mpmath.workdps(40):
                s = mpmath.mpf(beta) + 1
                for w, value in zip(self.ws, got):
                    z = -1j * mpmath.mpf(w)
                    ref = complex(length**s / s if w == 0.0
                                  else z**-s * mpmath.gammainc(s, 0, z * length))
                    assert abs(value - ref) <= 1e-13 * abs(ref), (w, length)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.45])
    def test_band_transforms_match_quadrature(self, alpha):
        # int_0^U cos(w lam) |lam - s0|^-p dlam and the same of
        # (lam - s0) |lam - s0|^-p, by mpmath's quadrature split at the
        # pole: on each side x = |lam - s0| = u^(1/s), s = beta + 1, turns
        # x^beta dx into du / s.  Within 1e-13 of the L1 norm
        # ((U - s0)^s + s0^s) / s of the power.
        p, s0, upper = 2.0 * alpha, 1.25, 2.0
        ws = np.array([0.0, 0.5, 7.5, 64.0])
        even, odd = specfun._pole_transforms(p, ws, s0, upper)
        with mpmath.workdps(20):
            x0, top = mpmath.mpf(s0), mpmath.mpf(upper)
            for w, got_even, got_odd in zip(ws, even, odd):
                for got, s, sign in ((got_even, 1 - mpmath.mpf(p), 1), (got_odd, 2 - mpmath.mpf(p), -1)):
                    ref = sum(side * mpmath.quad(
                        lambda u: mpmath.cos(w * (x0 + direction * u ** (1 / s))),
                        mpmath.linspace(0, length**s, 9))
                        for side, direction, length in ((1, 1, top - x0), (sign, -1, x0))) / s
                    norm = ((top - x0) ** s + x0**s) / s
                    assert abs(got - float(ref)) <= 1e-13 * float(norm), (w, s)


class TestEnvironmentInequality:
    def test_small_x_power_bound(self):
        # 0 <= (1-x)^(-2a) - 1 <= 4x for a in (0, 1/2), x in [0, 1/2].
        # The feasibility logic of the solver leans on this bound.
        xs = np.linspace(0.0, 0.5, 1000)
        for a in np.arange(0.05, 0.5, 0.05):
            values = (1.0 - xs) ** (-2.0 * a) - 1.0
            assert np.all(values >= -1e-15)
            assert np.all(values <= 4.0 * xs + 1e-12)
