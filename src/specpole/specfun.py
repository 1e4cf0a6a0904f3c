"""Special functions and adaptive quadrature shared by the whole package.

Three small tools live here because every other module needs at least one
of them:

* ``lambert_w0``: principal branch of the Lambert W function, the
  workhorse of the closed-form singularity solver.  Two steps of the
  Fritsch-Shafer-Crowley iteration in NumPy, with the package's domain
  checks: NaN and arguments below ``-1/e`` raise, the branch point
  gives ``-1``.
* ``gegenbauer_coeff`` / ``gegenbauer_coeffs``: Gegenbauer polynomial
  values evaluated through the stable three-term recurrence.  The
  textbook ratio-of-gamma sum overflows for moderate orders, so it is
  kept only as a test oracle.
* ``integrate``: a global-adaptive Gauss-Kronrod integrator that handles
  integrable algebraic singularities such as ``|x - s|**(-p)`` with
  ``p < 1``.  Declared singular points become panel endpoints, and the
  worst-panel bisection then halves geometrically toward them.  Infinite
  ranges are mapped to finite ones with the tangent substitution.

All functions are pure and keep no module state, so they are safe to
call concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "integrate",
    "lambert_w0",
    "gegenbauer_coeff",
    "gegenbauer_coeffs",
]


# ---------------------------------------------------------------------------
# Lambert W, principal branch
# ---------------------------------------------------------------------------

_BRANCH_POINT = -math.exp(-1.0)
# Fritsch steps after the starting guess: its relative error is below
# 0.35 everywhere, one step leaves at most 1.4e-4 and the second, being
# quartic, reaches rounding (a third moves no result by more than
# 1.2e-15 relative away from the branch point).
_W0_STEPS = 2


def lambert_w0(x):
    """Principal branch W0 of the Lambert W function.

    Solves ``w * exp(w) = x`` for the branch with ``w >= -1``.  The start
    is the branch-point series in p = sqrt(2 (e x + 1)) below -0.25,
    ``log1p(x)`` up to e and ``L1 - L2 + L2 / L1`` (L1 = log x,
    L2 = log L1) above; a fixed number of steps of the quartically
    convergent iteration of Fritsch, Shafer and Crowley (1973, CACM
    16(2)) then brings it to rounding (within 1e-15 relative of mpmath
    away from the branch point, where W is ill conditioned).  The
    argument may be a scalar, which gives a float, or an array.
    Arguments at or below the float nearest ``-1/e``, within a roundoff
    allowance of ``1e-12``, are taken as the branch point and give
    ``-1``; ``+inf`` gives ``+inf``.

    Raises
    ------
    ValueError
        If any element is NaN or lies below ``-1/e`` by more than the
        roundoff allowance.
    """
    z = np.asarray(x, dtype=float)
    if not np.all(z >= _BRANCH_POINT - 1e-12):
        if np.any(np.isnan(z)):
            raise ValueError("lambert_w0: NaN argument")
        raise ValueError(
            "lambert_w0: argument %r lies below the branch point -1/e"
            % float(np.min(z))
        )
    # Untaken branches of the np.where calls see logs of non-positive
    # numbers, and 0 and +inf give 0/0 and inf/inf in the steps; the
    # last np.where replaces all of them.
    with np.errstate(all="ignore"):
        p = np.sqrt(2.0 * np.maximum(math.e * z + 1.0, 0.0))
        l1 = np.log(z)
        l2 = np.log(l1)
        w = np.where(
            z < -0.25,
            -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0))),
            np.where(z < math.e, np.log1p(z), l1 - l2 + l2 / l1),
        )
        for _ in range(_W0_STEPS):
            t = np.log(z / w) - w
            q = 2.0 * (1.0 + w) * (1.0 + w + (2.0 / 3.0) * t)
            w = w * (1.0 + t / (1.0 + w) * (q - t) / (q - 2.0 * t))
    w = np.where(z > _BRANCH_POINT, np.where((z == 0.0) | (z == np.inf), z, w), -1.0)
    return float(w) if w.ndim == 0 else w


# ---------------------------------------------------------------------------
# Gegenbauer polynomial coefficients
# ---------------------------------------------------------------------------


def _check_gegenbauer_args(d, u):
    d = float(d)
    u = float(u)
    if d == 0.0 or not math.isfinite(d):
        raise ValueError("gegenbauer: fractional exponent d must be finite and nonzero")
    if not math.isfinite(u) or abs(u) > 1.0:
        raise ValueError("gegenbauer: argument u must satisfy |u| <= 1")
    return d, u


def gegenbauer_coeffs(n_max, d, u):
    """Gegenbauer polynomial values ``C_0(u) .. C_n_max(u)`` for exponent d.

    Uses the three-term recurrence

        C_n = 2u (n - 1 + d)/n C_{n-1} - (n - 2 + 2d)/n C_{n-2}

    seeded with ``C_0 = 1`` and ``C_1 = 2 d u``.  Returns an array of
    length ``n_max + 1``.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("gegenbauer: order must be a non-negative integer")
    d, u = _check_gegenbauer_args(d, u)
    coeffs = np.empty(n_max + 1)
    coeffs[0] = 1.0
    if n_max >= 1:
        coeffs[1] = 2.0 * d * u
    for n in range(2, n_max + 1):
        coeffs[n] = (
            2.0 * u * (n - 1.0 + d) * coeffs[n - 1]
            - (n - 2.0 + 2.0 * d) * coeffs[n - 2]
        ) / n
    return coeffs


def gegenbauer_coeff(n, d, u):
    """Single Gegenbauer polynomial value ``C_n(u)`` for exponent d."""
    return float(gegenbauer_coeffs(n, d, u)[-1])


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy and refinement budget for :func:`integrate`.

    ``singularities`` lists abscissae where the integrand is allowed to
    blow up integrably; the interval is split there so that no quadrature
    node ever lands on them.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 10_000
    singularities: tuple = ()

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError("QuadratureSpec: abs_tol must be positive")
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError("QuadratureSpec: rel_tol must be positive")
        if int(self.max_subdivisions) < 1:
            raise ValueError("QuadratureSpec: max_subdivisions must be >= 1")
        object.__setattr__(self, "max_subdivisions", int(self.max_subdivisions))
        pts = tuple(float(s) for s in self.singularities)
        if any(not math.isfinite(s) for s in pts):
            raise ValueError("QuadratureSpec: singularities must be finite reals")
        object.__setattr__(self, "singularities", pts)


class QuadratureConvergenceError(ArithmeticError):
    """Raised when the refinement budget runs out before the tolerance.

    Carries the best available estimate and its error bound so callers
    can decide whether the partial answer is still usable.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = float(estimate)
        self.error_bound = float(error_bound)


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


def _vector_call(f, x):
    """Evaluate f on a 1-d array, falling back to elementwise calls."""
    with np.errstate(all="ignore"):
        try:
            y = np.asarray(f(x), dtype=float)
            if y.shape == x.shape:
                return y
        except (TypeError, ValueError):
            pass
        return np.fromiter(
            (float(f(float(v))) for v in x), dtype=float, count=x.size
        )


def _eval_panels(f, lo, hi, ctx, absorb):
    """Kronrod value and QUADPACK-style error estimate per panel.

    ``absorb`` lists declared singular abscissae (working coordinates):
    a non-finite integrand value within a few ulps of one of them is
    replaced by zero, since the caller asserted integrability there and
    panels this narrow carry negligible mass.  Non-finite values anywhere
    else are an error.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = center[:, None] + half[:, None] * _NODES
    fv = _vector_call(f, pts.ravel()).reshape(pts.shape)
    bad = ~np.isfinite(fv)
    if bad.any():
        pos = pts[bad]
        near_declared = np.zeros(pos.shape, dtype=bool)
        for s in absorb:
            near_declared |= np.abs(pos - s) <= 1e-14 * max(1.0, abs(s))
        if not near_declared.all():
            offender = pos[~near_declared][0]
            raise ValueError(
                "integrate: non-finite integrand value near %r; declare "
                "singular points in QuadratureSpec.singularities"
                % ctx(float(offender))
            )
        fv[bad] = 0.0
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
    """Adaptively integrate ``f`` over ``(lo, hi)``.

    The interval is first split at every declared singularity, at zero
    and at any extra ``breakpoints`` (a pure performance hint, useful for
    oscillatory integrands).  Panels are then refined by bisecting the
    ones with the largest error estimates, which converges for smooth
    integrands as well as for integrable endpoint singularities.

    Infinite bounds are folded to a finite range with ``x = tan(theta)``;
    band-limited integrands should instead be integrated over their
    support directly.

    Returns the integral estimate as a float.

    Raises
    ------
    QuadratureConvergenceError
        If the subdivision budget is exhausted before reaching
        ``max(abs_tol, rel_tol * |value|)``; the exception carries the
        best estimate and its error bound.
    ValueError
        For invalid bounds, singularities outside the interval, or
        non-finite integrand values at quadrature nodes.
    """
    if spec is None:
        spec = QuadratureSpec()
    lo = float(lo)
    hi = float(hi)
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("integrate: NaN bound")
    if lo == hi:
        return 0.0
    sign = 1.0
    if lo > hi:
        lo, hi, sign = hi, lo, -1.0

    for s in spec.singularities:
        if not (lo <= s <= hi):
            raise ValueError(
                "integrate: declared singularity %r outside [%r, %r]" % (s, lo, hi)
            )

    # Cut at the declared singularities (absorbed, not rejected, when the
    # integrand is not finite there), the breakpoints and zero.
    absorb = list(spec.singularities)
    cuts = absorb + [float(p) for p in breakpoints if lo < float(p) < hi]
    if lo < 0.0 < hi:
        cuts.append(0.0)
    # ctx maps a working coordinate back to x for error messages
    fun, ctx, a, b = f, float, lo, hi
    if math.isinf(lo) or math.isinf(hi):
        # Work in theta = atan(x); atan(+-inf) is +-pi/2.
        a, b = math.atan(lo), math.atan(hi)
        absorb = [math.atan(s) for s in absorb]
        cuts = [math.atan(c) for c in cuts]

        def fun(theta):
            lam = np.tan(theta)
            fv = _vector_call(f, lam)
            return np.where(fv == 0.0, 0.0, fv * (1.0 + lam * lam))

        ctx = math.tan

    # np.sort, not np.unique, which imports numpy.ma; equal edges go
    # with the near-duplicates below.
    edges = np.sort(np.concatenate([[a, b], np.asarray(cuts, dtype=float)]))
    edges = edges[(edges >= a) & (edges <= b)]
    # Drop near-duplicate edges that would create empty panels.
    keep = np.concatenate([[True], np.diff(edges) > 1e-15 * max(1.0, abs(b - a))])
    edges = edges[keep]
    if edges[0] != a:
        edges[0] = a
    if edges[-1] != b:
        edges = np.append(edges, b)

    los = edges[:-1].copy()
    his = edges[1:].copy()
    vals, errs = _eval_panels(fun, los, his, ctx, absorb)

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
        new_vals, new_errs = _eval_panels(fun, new_los, new_his, ctx, absorb)
        keep_mask = np.ones(len(los), dtype=bool)
        keep_mask[worst] = False
        los = np.concatenate([los[keep_mask], new_los])
        his = np.concatenate([his[keep_mask], new_his])
        vals = np.concatenate([vals[keep_mask], new_vals])
        errs = np.concatenate([errs[keep_mask], new_errs])
