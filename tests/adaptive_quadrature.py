"""Adaptive Gauss-Kronrod quadrature: the tests' independent oracle.

The package takes every integral, covariances and filter constants
alike, by one Filon rule (``specfun._filon_column``).  The tests check
it against this second rule, which shares no code with it: a
global-adaptive Gauss-Kronrod integrator on a finite range.  Its nodes
are interior, so an integrable singularity such as ``|x - s|**(-p)``,
``p < 1``, at a breakpoint ``s`` converges as the worst-panel bisection
halves geometrically toward it.  ``TestQuadrature`` checks the oracle
itself against closed forms and a brute-force midpoint rule; it runs
from ``test_specfun.py``, which imports it.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from specpole.specfun import QuadratureConvergenceError


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy and refinement budget for :func:`integrate`."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 10_000

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError("QuadratureSpec: abs_tol must be positive")
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError("QuadratureSpec: rel_tol must be positive")
        if int(self.max_subdivisions) < 1:
            raise ValueError("QuadratureSpec: max_subdivisions must be >= 1")
        object.__setattr__(self, "max_subdivisions", int(self.max_subdivisions))


# 15-point Kronrod extension of 7-point Gauss (nodes ascending; the
# embedded Gauss nodes sit at the odd indices).
_GK_POS_NODES = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.000000000000000,
    ]
)
_GK_POS_WEIGHTS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_G7_POS_WEIGHTS = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_NODES = np.concatenate([-_GK_POS_NODES[:-1], _GK_POS_NODES[::-1]])
_K_WEIGHTS = np.concatenate([_GK_POS_WEIGHTS[:-1], _GK_POS_WEIGHTS[::-1]])
_G_WEIGHTS = np.concatenate([_G7_POS_WEIGHTS[:-1], _G7_POS_WEIGHTS[::-1]])
_EPS50 = 50.0 * np.finfo(float).eps


def _eval_panels(f, lo, hi):
    """Kronrod value and QUADPACK-style error estimate per panel, from
    one call of f on all their nodes; a non-finite value is an error."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = (center[:, None] + half[:, None] * _NODES).ravel()
    with np.errstate(all="ignore"):
        fv = np.broadcast_to(np.asarray(f(pts), dtype=float), pts.shape)
    bad = ~np.isfinite(fv)
    if bad.any():
        raise ValueError("integrate: non-finite integrand value near %r; split the range "
                         "at an integrable singularity with breakpoints" % float(pts[bad][0]))
    fv = fv.reshape(lo.size, _NODES.size)
    resk = fv @ _K_WEIGHTS
    resg = fv[:, 1::2] @ _G_WEIGHTS
    value = half * resk
    err = np.abs(half * (resk - resg))
    resabs = np.abs(half) * (np.abs(fv) @ _K_WEIGHTS)
    resasc = np.abs(half) * (np.abs(fv - 0.5 * resk[:, None]) @ _K_WEIGHTS)
    mask = (resasc > 0.0) & (err > 0.0)
    ratio = np.empty_like(err)
    ratio[mask] = np.minimum(1.0, (200.0 * err[mask] / resasc[mask]) ** 1.5)
    err[mask] = resasc[mask] * ratio[mask]
    np.maximum(err, _EPS50 * resabs, out=err)
    return value, err


def integrate(f, lo, hi, spec=None, *, breakpoints=()):
    """Adaptively integrate ``f`` over the finite range ``(lo, hi)``.

    The interval is first split at zero and at the ``breakpoints`` inside
    it: at a kink, a jump or an integrable singularity of ``f``, which
    its interior nodes never reach.  Panels are then refined by bisecting
    the ones with the largest error estimates, which converges for smooth
    integrands as well as for an integrable singularity at a panel end.
    ``f`` is called on arrays of nodes; a result that broadcasts to their
    shape, such as a constant, is accepted.

    Returns the integral estimate as a float.

    Raises
    ------
    QuadratureConvergenceError
        If the subdivision budget is exhausted before reaching
        ``max(abs_tol, rel_tol * |value|)``; the exception carries the
        best estimate and its error bound.
    ValueError
        For infinite or NaN bounds, or non-finite integrand values at
        quadrature nodes.
    """
    if spec is None:
        spec = QuadratureSpec()
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integrate: bounds must be finite, got (%r, %r)" % (lo, hi))
    if lo == hi:
        return 0.0
    sign = 1.0
    if lo > hi:
        lo, hi, sign = hi, lo, -1.0

    cuts = [float(p) for p in breakpoints if lo < float(p) < hi]
    if lo < 0.0 < hi:
        cuts.append(0.0)
    # np.sort, not np.unique, which imports numpy.ma; equal edges go
    # with the near-duplicates below.
    edges = np.sort(np.concatenate([[lo, hi], np.asarray(cuts, dtype=float)]))
    # Drop near-duplicate edges that would create empty panels.
    keep = np.concatenate([[True], np.diff(edges) > 1e-15 * max(1.0, hi - lo)])
    edges = edges[keep]
    if edges[-1] != hi:
        edges = np.append(edges, hi)

    los = edges[:-1].copy()
    his = edges[1:].copy()
    vals, errs = _eval_panels(f, los, his)

    used = 0
    while True:
        total = float(vals.sum())
        total_err = float(errs.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= tol:
            return sign * total
        remaining = spec.max_subdivisions - used
        if remaining <= 0:
            raise QuadratureConvergenceError(
                "integrate: needed more than %d subdivisions (estimate %r, "
                "error bound %r)" % (spec.max_subdivisions, sign * total, total_err),
                sign * total,
                total_err,
            )
        worst = np.flatnonzero(errs > tol / (2.0 * len(errs)))
        if worst.size == 0:
            worst = np.array([int(np.argmax(errs))])
        if worst.size > remaining:
            order = np.argsort(errs[worst])[::-1]
            worst = worst[order[:remaining]]
        used += int(worst.size)

        mid = 0.5 * (los[worst] + his[worst])
        stuck = (mid <= los[worst]) | (mid >= his[worst])
        if stuck.all():
            # Panels are at roundoff width; the remaining error is not
            # reducible by further bisection.
            raise QuadratureConvergenceError(
                "integrate: panels reached roundoff width (estimate %r, "
                "error bound %r)" % (sign * total, total_err),
                sign * total,
                total_err,
            )
        worst = worst[~stuck]
        mid = mid[~stuck]
        new_los = np.concatenate([los[worst], mid])
        new_his = np.concatenate([mid, his[worst]])
        new_vals, new_errs = _eval_panels(f, new_los, new_his)
        keep_mask = np.ones(len(los), dtype=bool)
        keep_mask[worst] = False
        los = np.concatenate([los[keep_mask], new_los])
        his = np.concatenate([his[keep_mask], new_his])
        vals = np.concatenate([vals[keep_mask], new_vals])
        errs = np.concatenate([errs[keep_mask], new_errs])


# ---------------------------------------------------------------------------
# Tests of the oracle
# ---------------------------------------------------------------------------


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
