"""Tests for special functions and the tests' adaptive integrator.

The derived expectations are checked against independent oracles: a
bisection solver and mpmath for Lambert W, the log-gamma direct sum for
Gegenbauer polynomials, and mpmath's incomplete gamma function and
quadrature for the closed-form pole transforms of the covariance column.
The adaptive integrator lives in ``adaptive_quadrature.py`` with its
tests, ``TestQuadrature``, which run from here.  The SciPy oracles are
fetched with pytest.importorskip, so the rest of the file runs where
SciPy is not installed.
"""

import math

import mpmath
import numpy as np
import pytest

from specpole import specfun
from specpole.specfun import gegenbauer_coeff, gegenbauer_coeffs, lambert_w0

from adaptive_quadrature import TestQuadrature  # noqa: F401  (collected here)


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
