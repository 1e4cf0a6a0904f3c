"""Path simulation and exact sampling of filter coefficients.

Two back-ends feed the estimator.  The first builds a truncated
Gegenbauer moving-average path on a uniform grid and is meant to be
pushed through the time-domain transform.  The second samples the
filter coefficients directly from their exact joint Gaussian law, whose
covariance is the frequency-domain integral

    Cov(delta_{j k1}, delta_{j k2})
        = a_j int cos((b_{j k1} - b_{j k2}) lam) |psi_hat(a_j lam)|^2 f(lam) dlam,

so that estimator behaviour can be studied without discretization bias.

All randomness flows through a counter-based Gaussian stream: draw k of
a tagged stream is a pure function of (seed, tag, k), which makes any
sub-window of a path reproducible independently of chunking, and lets
panels at different scales share low indices of one normal pool.  That
sharing is deliberate: difference statistics of panel averages then see
positively coupled noise, which cancels in across-scale differences the
same way it would along one long realization.
"""

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct
from scipy.integrate import quad as scipy_quad
from scipy.linalg import toeplitz
from scipy.special import ndtri

from .model import FilterSpec, SpectralModel
from .specfun import QuadratureConvergenceError, QuadratureSpec, integrate

__all__ = [
    "PROVENANCES",
    "PathRealization",
    "PanelLevel",
    "CoefficientPanel",
    "gaussian_stream",
    "gegenbauer_path",
    "coefficient_covariance",
    "scale_second_moment",
    "exact_coefficient_sample",
    "panel_to_csv",
    "panel_from_csv",
    "path_to_csv",
    "path_from_csv",
]

PROVENANCES = ("path-transform", "exact-gaussian")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_INNOVATION_TAG = 1
_PANEL_TAG = 2


# ---------------------------------------------------------------------------
# Counter-based Gaussian stream
# ---------------------------------------------------------------------------


def _mix64(z):
    """Finalizer of the splitmix64 generator, vectorized over uint64.

    Overflow is the point (arithmetic is modulo 2^64), so the numpy
    overflow warning is silenced locally.
    """
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def gaussian_stream(seed, tag, indices):
    """Standard normals at the given indices of stream (seed, tag).

    Each output is a pure function of its seed, tag and index, so
    overlapping index windows agree bit-exactly and negative indices are
    valid (they wrap through two's complement into distinct counters).
    ``seed`` may be an integer or an array of them, broadcast against
    ``indices``: seeds of shape (R,) with indices of shape (M, 1) give an
    (M, R) block whose column r is the stream of seed r.  Every seed is
    reduced modulo 2^64 as a Python int, so a batch draws exactly what
    the seeds draw one by one.
    """
    seeds = np.asarray(seed, dtype=object)
    seeds = np.array([int(s) & _MASK64 for s in seeds.flat],
                     dtype=np.uint64).reshape(seeds.shape)
    idx = np.asarray(indices, dtype=np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):
        base = _mix64(seeds ^ _mix64(np.uint64(tag) + _GOLDEN))
        bits = _mix64(base + (idx + np.uint64(1)) * _GOLDEN)
    u = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    return ndtri(u)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PathRealization:
    """Samples of X on the uniform grid t0 + i*dt, i = 0..n-1."""

    t0: float
    dt: float
    values: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("PathRealization: values needs at least 2 samples")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("PathRealization: dt must be a positive real")

    @property
    def t_end(self):
        return self.t0 + (self.values.size - 1) * self.dt

    def times(self):
        return self.t0 + self.dt * np.arange(self.values.size)


@dataclass(frozen=True, eq=False)
class PanelLevel:
    """Coefficients delta_jk and their shifts at one scale.

    ``coeffs`` is a vector over the shifts, or an (R, m) block holding R
    replications in its rows.
    """

    j: int
    a_j: float
    shifts: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shifts", np.asarray(self.shifts, dtype=float))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if (self.shifts.ndim != 1 or self.coeffs.ndim not in (1, 2)
                or self.coeffs.shape[-1] != self.shifts.size):
            raise ValueError(
                "PanelLevel: shifts and coeffs must be equal-length vectors, "
                "or coeffs a block of rows of that length"
            )
        if self.shifts.size < 1:
            raise ValueError("PanelLevel: need at least one shift")
        if self.shifts.size > 1 and not np.all(np.diff(self.shifts) > 0):
            raise ValueError("PanelLevel: shifts must be strictly increasing")
        if not (self.a_j > 0):
            raise ValueError("PanelLevel: scale must be positive")


@dataclass(frozen=True, eq=False)
class CoefficientPanel:
    """Per-scale coefficient vectors with their provenance and seed.

    A panel of R replications has a tuple of R seeds and (R, m_j)
    coefficient blocks whose row r was drawn from seed r.
    """

    levels: tuple
    provenance: str
    seed: object

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("CoefficientPanel: need at least one level")
        if self.provenance not in PROVENANCES:
            raise ValueError(
                "CoefficientPanel: provenance must be one of %s" % (PROVENANCES,)
            )
        scales = [lv.a_j for lv in self.levels]
        if not np.all(np.diff(scales) > 0):
            raise ValueError("CoefficientPanel: scales must be strictly increasing")
        rows = (len(self.seed),) if isinstance(self.seed, tuple) else ()
        if rows == (0,) or any(lv.coeffs.shape[:-1] != rows for lv in self.levels):
            raise ValueError(
                "CoefficientPanel: an int seed needs coefficient vectors, and "
                "a tuple of R >= 1 seeds (R, m_j) blocks at every level"
            )

    def level_for(self, j):
        for lv in self.levels:
            if lv.j == j:
                return lv
        raise KeyError("CoefficientPanel: no level with index %r" % j)


# ---------------------------------------------------------------------------
# Gegenbauer moving-average path
# ---------------------------------------------------------------------------


def gegenbauer_path(spec, n_points, t0, dt, seed):
    """Truncated moving-average path X(t) = sum_n C_n eps_{t-n}.

    The process lives on the integer lattice; innovations are indexed by
    lattice position through the counter-based stream, so any window of
    the same realization reproduces identical values.  Non-integer grids
    are filled by linear interpolation between lattice samples, which is
    an approximation and is flagged with a warning.
    """
    n_points = int(n_points)
    if n_points < 2:
        raise ValueError("gegenbauer_path: need at least two samples")
    t0 = float(t0)
    dt = float(dt)
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError("gegenbauer_path: dt must be a positive real")
    t = t0 + dt * np.arange(n_points)
    on_lattice = t0 == math.floor(t0) and dt == math.floor(dt)
    if not on_lattice:
        warnings.warn(
            "gegenbauer_path: non-integer grid; values are linear "
            "interpolations of the lattice process (approximation)"
        )
    k_lo = int(math.floor(t[0]))
    k_hi = int(math.ceil(t[-1]))
    n_coeff = spec.truncation
    coeffs = spec.coefficients()
    eps_idx = np.arange(k_lo - n_coeff + 1, k_hi + 1)
    eps = spec.sigma_eps * gaussian_stream(seed, _INNOVATION_TAG, eps_idx)
    lattice = np.convolve(eps, coeffs, mode="valid")
    if on_lattice:
        values = lattice[(np.rint(t).astype(int) - k_lo)]
    else:
        values = np.interp(t, np.arange(k_lo, k_hi + 1), lattice)
    return PathRealization(t0=t0, dt=dt, values=values, seed=int(seed))


# ---------------------------------------------------------------------------
# Exact coefficient covariance and sampling
# ---------------------------------------------------------------------------


# Above this many half-periods inside the band, breakpoint-guided
# adaptive quadrature is hopeless; hand the entry to QUADPACK's
# dedicated oscillatory rule instead.
_OSC_SWITCH = 20000


def _entry_oscillatory(model, filt, a, delta_b, upper, sing, breaks, spec):
    """Covariance entry for a rapidly oscillating cosine weight.

    Uses scipy's cosine-weighted Clenshaw-Curtis rule piece by piece
    between filter breakpoints.  Integrable singularities inside the
    band are excised with a narrow collar whose (positive) mass is
    added to the error bound rather than the estimate.
    """
    def g(lam):
        return np.abs(filt.psi_hat(a * lam)) ** 2 * model.pole_density(lam)

    knots = [0.0, upper]
    knots.extend(b for b in breaks if 0.0 < b < upper)
    error = 0.0
    interior = sorted(s for s in sing if 0.0 < s < upper)
    for s in interior:
        collar = max(1e-9, 1e-12 * s)
        mass = integrate(
            g,
            s - collar,
            s + collar,
            QuadratureSpec(
                abs_tol=spec.abs_tol,
                rel_tol=1e-6,
                max_subdivisions=spec.max_subdivisions,
                singularities=(s,),
            ),
        )
        error += abs(mass)
        knots.extend((s - collar, s + collar))
    knots = sorted(set(knots))
    # drop the sliver between collar edges around each singularity
    keep = [
        (lo, hi)
        for lo, hi in zip(knots[:-1], knots[1:])
        if not any(abs(0.5 * (lo + hi) - s) < max(1e-9, 1e-12 * s) for s in interior)
    ]
    total = 0.0
    for lo, hi in keep:
        piece, piece_err = scipy_quad(
            g,
            lo,
            hi,
            weight="cos",
            wvar=abs(delta_b),
            limit=500,
            epsabs=spec.abs_tol / max(1, len(keep)),
            epsrel=spec.rel_tol,
            full_output=1,
        )[:2]
        total += piece
        error += abs(piece_err)
    if error > max(spec.abs_tol, spec.rel_tol * abs(total)):
        raise QuadratureConvergenceError(
            "oscillatory covariance entry: achieved error bound %r "
            "exceeds the requested tolerance" % (2.0 * a * error),
            2.0 * a * total,
            2.0 * a * error,
        )
    return 2.0 * a * total


def _band(model, filt, a, spec):
    """Top of the frequency band at scale a, with the singularities in
    (0, upper] and the filter breakpoints in (0, upper)."""
    upper = filt.band_limit_A / a
    if model.envelope is not None:
        upper = min(upper, model.envelope)
    sing = tuple(
        s
        for s in set(spec.singularities) | {model.s0}
        if 0.0 < s <= upper
    )
    breaks = [x / a for x in filt.breakpoints if 0.0 < x / a < upper]
    return upper, sing, breaks


def _entry_integral(model, filt, a, delta_b, spec):
    """One covariance entry a * int cos(delta_b lam)|psi_hat(a lam)|^2 f."""
    upper, sing, breaks = _band(model, filt, a, spec)
    if delta_b != 0.0:
        half_period = math.pi / abs(delta_b)
        n_osc = int(upper / half_period)
        if n_osc > _OSC_SWITCH:
            return _entry_oscillatory(
                model, filt, a, delta_b, upper, sing, breaks, spec
            )
        if n_osc:
            breaks.extend(half_period * np.arange(1, n_osc + 1))
    merged = QuadratureSpec(
        abs_tol=spec.abs_tol,
        rel_tol=spec.rel_tol,
        max_subdivisions=spec.max_subdivisions,
        singularities=sing,
    )
    def integrand(lam):
        win = np.abs(np.asarray(filt.psi_hat(a * lam))) ** 2
        return np.cos(delta_b * lam) * win * model.pole_density(lam)

    return 2.0 * a * integrate(integrand, 0.0, upper, merged, breakpoints=breaks)


# Trapezoid nodes of the DCT-I column: N is the smallest power of two at
# or above both _DCT_MIN_NODES and _DCT_NODES_PER_LAG * P * m, and the
# column is built this way only while N stays within _DCT_MAX_NODES.
_DCT_NODES_PER_LAG = 16
_DCT_MIN_NODES = 1 << 12
_DCT_MAX_NODES = 1 << 18


def _dct_column(model, filt, a, gamma, m, spec):
    """Entries at lags k * gamma, k < m, from one DCT-I, or None.

    With upper the top of the band and P = gamma * upper / pi an
    integer, cos(k gamma lam) at the N + 1 uniform nodes of [0, upper]
    is cos(pi k P n / N), so the trapezoid sums of all lags are entries
    k P of one DCT-I of the integrand.  Sums on N and 2N intervals are
    combined by Richardson extrapolation, and |T_2N - T_N| / 3 must meet
    the tolerance at every lag.  None (use the per-lag quadrature) when
    P is not an integer, a pole, singularity or filter breakpoint lies
    in the band, N would exceed _DCT_MAX_NODES, or a lag misses.
    """
    upper, sing, breaks = _band(model, filt, a, spec)
    p = gamma * upper / math.pi
    steps = round(p)
    if sing or breaks or steps < 1 or abs(p - steps) > 1e-12 * p:
        return None
    n = 1 << (max(_DCT_MIN_NODES, _DCT_NODES_PER_LAG * steps * m) - 1).bit_length()
    if n > _DCT_MAX_NODES:
        return None
    lam = np.linspace(0.0, upper, 2 * n + 1)
    # a * upper may round past the band edge A; keep the edge node inside
    win = np.abs(filt.psi_hat(np.minimum(a * lam, filt.band_limit_A))) ** 2
    g = win * model.pole_density(lam)
    lags = steps * np.arange(m)
    fine = 0.25 * upper / n * dct(g, type=1)[lags]
    coarse = 0.5 * upper / n * dct(g[::2], type=1)[lags]
    col = (4.0 * fine - coarse) / 3.0
    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(col))
    if np.any(np.abs(fine - coarse) / 3.0 > tol):
        return None
    return 2.0 * a * col


def coefficient_covariance(model, filt, a_j, shifts, spec=None):
    """Exact covariance matrix of the coefficients at one scale.

    Arithmetic shift grids produce a Toeplitz matrix, detected here so
    only the first column is computed: by one DCT-I where the integrand
    is smooth on the band (see _dct_column), otherwise by one adaptive
    quadrature per lag.  The recommended regime is
    a_j >= 2 * band limit; below that the across-scale decorrelation
    bounds stop applying and a warning is emitted.
    """
    if not isinstance(model, SpectralModel):
        raise TypeError(
            "coefficient_covariance: need a SpectralModel with an explicit "
            "density; moving-average specs have no closed density here"
        )
    if spec is None:
        spec = QuadratureSpec()
    a_j = float(a_j)
    if not (a_j > 0.0 and math.isfinite(a_j)):
        raise ValueError("coefficient_covariance: scale must be a positive real")
    shifts = np.asarray(shifts, dtype=float)
    if shifts.ndim != 1 or shifts.size < 1:
        raise ValueError("coefficient_covariance: shifts must be a non-empty vector")
    if a_j < 2.0 * filt.band_limit_A:
        warnings.warn(
            "coefficient_covariance: a_j/(2A) = %.3g < 1; decorrelation "
            "bounds assume scales at least twice the band limit"
            % (a_j / (2.0 * filt.band_limit_A))
        )

    def entry(delta):
        try:
            return _entry_integral(model, filt, a_j, delta, spec)
        except QuadratureConvergenceError as exc:
            raise QuadratureConvergenceError(
                "coefficient_covariance: entry at shift separation %r did "
                "not converge: %s" % (delta, exc),
                exc.estimate,
                exc.error_bound,
            ) from exc

    m = shifts.size
    diffs = np.diff(shifts)
    if m == 1:
        return np.array([[entry(0.0)]])
    if np.allclose(diffs, diffs[0], rtol=1e-12, atol=0.0):
        gamma = float(diffs[0])
        col = _dct_column(model, filt, a_j, gamma, m, spec)
        if col is None:
            col = np.array([entry(k * gamma) for k in range(m)])
        return toeplitz(col)
    out = np.empty((m, m))
    cache = {}
    for k1 in range(m):
        for k2 in range(k1, m):
            delta = abs(shifts[k2] - shifts[k1])
            if delta not in cache:
                cache[delta] = entry(delta)
            out[k1, k2] = out[k2, k1] = cache[delta]
    return out


def scale_second_moment(model, filt, a, spec=None):
    """J(a): the common variance of coefficients at scale a."""
    if spec is None:
        spec = QuadratureSpec()
    return _entry_integral(model, filt, float(a), 0.0, spec)


def _cholesky_with_jitter(cov):
    """Lower Cholesky factor, escalating a diagonal jitter on failure.

    Quadrature noise can push tiny eigenvalues a hair negative; jitter
    starts at 1e-12 * trace/m and escalates tenfold up to 1e-6 * trace/m
    before giving up.  Any jitter applied is reported as a UserWarning.
    """
    m = cov.shape[0]
    base = np.trace(cov) / m
    jitter = 0.0
    while True:
        try:
            factor = np.linalg.cholesky(cov + jitter * np.eye(m))
        except np.linalg.LinAlgError:
            if jitter == 0.0:
                jitter = 1e-12 * base
            else:
                jitter *= 10.0
            if jitter > 1e-6 * base:
                raise ArithmeticError(
                    "coefficient covariance is not positive semi-definite "
                    "even with diagonal jitter up to 1e-6 * trace/m"
                )
            continue
        if jitter:
            warnings.warn(
                "coefficient covariance (m = %d) is not positive definite; "
                "added diagonal jitter %.3g = %.0e * trace/m"
                % (m, jitter, jitter / base)
            )
        return factor


# The factors of the last panel shape sampled, as (key, factors).  A new
# shape drops the old factors before its build, so at most one panel's
# factors are alive; the build holds the lock, so callers sampling from
# their own threads wait for it instead of each making their own.
_FACTORS = (None, None)
_FACTOR_LOCK = threading.Lock()


def _panel_factors(model, filt, schedule, spec):
    """Cholesky factor of every level's covariance, cached per panel shape."""
    global _FACTORS
    key = (model.cache_key(), filt.cache_key(), spec,
           tuple((lv.a_j, lv.gamma_j, lv.m_j) for lv in schedule.levels))
    with _FACTOR_LOCK:
        if _FACTORS[0] != key:
            _FACTORS = (None, None)
            covs = (coefficient_covariance(model, filt, lv.a_j, lv.shifts(), spec)
                    for lv in schedule.levels)
            _FACTORS = (key, tuple(map(_cholesky_with_jitter, covs)))
        return _FACTORS[1]


def exact_coefficient_sample(model, filt, schedule, seed, spec=None):
    """Draw a panel of coefficients from their exact Gaussian law.

    Every level draws its normals from the low indices of one shared
    pool keyed by (seed, panel tag), so levels with nested sizes are
    positively coupled across scales; see the module docstring for why.
    Deterministic in the seed.  ``seed`` may also be a tuple of R ints:
    each level is then one product of its factor with the (m_j, R)
    normals of all seeds, an (R, m_j) block whose row r matches the
    panel of seed r to rounding.
    """
    if spec is None:
        spec = QuadratureSpec()
    for lv in schedule.levels:
        if lv.m_j > 8192:
            raise ValueError(
                "exact_coefficient_sample: m_j = %d at level %d exceeds the "
                "factorization guard of 8192" % (lv.m_j, lv.j)
            )
    factors = _panel_factors(model, filt, schedule, spec)
    idx = np.arange(max(lv.m_j for lv in schedule.levels))
    if isinstance(seed, tuple):
        seed = tuple(int(s) for s in seed)
        idx = idx[:, None]
    else:
        seed = int(seed)
    z = gaussian_stream(seed, _PANEL_TAG, idx)
    levels = tuple(
        PanelLevel(j=lv.j, a_j=lv.a_j, shifts=lv.shifts(), coeffs=(factor @ z[: lv.m_j]).T)
        for lv, factor in zip(schedule.levels, factors)
    )
    return CoefficientPanel(levels=levels, provenance="exact-gaussian", seed=seed)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def panel_to_csv(panel, path):
    """Write a panel as CSV with columns j, k, a_j, b_jk, delta_jk."""
    if isinstance(panel.seed, tuple):
        raise ValueError("panel_to_csv: a panel of several replications has no CSV form")
    arr = np.vstack([np.column_stack(np.broadcast_arrays(
        lv.j, np.arange(1, lv.shifts.size + 1), lv.a_j, lv.shifts, lv.coeffs))
        for lv in panel.levels])
    np.savetxt(
        path,
        arr,
        fmt=("%d", "%d", "%.17g", "%.17g", "%.17g"),
        delimiter=",",
        header="j,k,a_j,b_jk,delta_jk",
        comments="",
    )


def _csv_rows(path):
    """Rows below the header; the callers report an empty file themselves."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def panel_from_csv(path, provenance, seed):
    """Rebuild a panel from CSV plus the manifest-held provenance/seed."""
    arr = _csv_rows(path)
    if arr.shape[0] < 1 or arr.shape[1] < 5 or not np.isfinite(arr[:, :5]).all():
        raise ValueError(
            "panel_from_csv: %s holds %d rows in %d column(s); a panel needs columns j, k, "
            "a_j, b_jk and delta_jk, at least 1 row and finite values" % ((path,) + arr.shape)
        )
    if not (arr[:, :2] == np.round(arr[:, :2])).all():
        raise ValueError("panel_from_csv: %s holds a non-integer j or k" % path)
    levels = []
    for j in np.unique(arr[:, 0]):
        block = arr[arr[:, 0] == j]
        if not (block[:, 2] == block[0, 2]).all():
            raise ValueError(
                "panel_from_csv: %s gives level %d more than one a_j" % (path, j)
            )
        order = np.argsort(block[:, 1])
        block = block[order]
        levels.append(
            PanelLevel(
                j=int(j),
                a_j=float(block[0, 2]),
                shifts=block[:, 3].copy(),
                coeffs=block[:, 4].copy(),
            )
        )
    levels.sort(key=lambda lv: lv.a_j)
    return CoefficientPanel(levels=tuple(levels), provenance=provenance,
                            seed=int(seed))


def path_to_csv(path_realization, path):
    """Write a path as CSV with columns t, x."""
    arr = np.column_stack([path_realization.times(), path_realization.values])
    np.savetxt(path, arr, fmt="%.17g", delimiter=",", header="t,x", comments="")


def path_from_csv(path, seed):
    """Read a path written by path_to_csv; the grid t must be uniform."""
    arr = _csv_rows(path)
    if arr.shape[0] < 2 or arr.shape[1] < 2 or not np.isfinite(arr[:, :2]).all():
        raise ValueError(
            "path_from_csv: %s holds %d samples in %d column(s); a path needs columns "
            "t and x, at least 2 samples and finite values" % ((path,) + arr.shape)
        )
    t = arr[:, 0]
    dt = float(t[1] - t[0])
    if not np.allclose(np.diff(t), dt, rtol=1e-9, atol=0.0):
        raise ValueError(
            "path_from_csv: %s is not on a uniform time grid (steps differ "
            "from t[1] - t[0] = %g by more than 1e-9 relative)" % (path, dt)
        )
    return PathRealization(
        t0=float(t[0]),
        dt=dt,
        values=arr[:, 1].copy(),
        seed=int(seed),
    )
