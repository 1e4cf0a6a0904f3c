"""Path simulation and exact sampling of filter coefficients.

Two back-ends feed the estimator.  The first builds a truncated
Gegenbauer moving-average path on a uniform grid and is meant to be
pushed through the time-domain transform.  The second samples the
filter coefficients directly from their exact joint Gaussian law, whose
covariance is the frequency-domain integral

    Cov(delta_{j k1}, delta_{j k2})
        = a_j int cos((b_{j k1} - b_{j k2}) lam) |psi_hat(a_j lam)|^2 f(lam) dlam,

so that estimator behaviour can be studied without discretization bias.
On the arithmetic shift grid of a schedule level that covariance is a
Toeplitz matrix, and the sampler factors it straight from its first
column by the Schur algorithm, in O(m^2) time and without building the
m x m matrix.

All randomness flows through a counter-based Gaussian stream: draw k of
a tagged stream is a pure function of (seed, tag, k), which makes any
sub-window of a path reproducible independently of chunking.  Panels at
different scales share low indices of one normal pool, which draws each
level's own law exactly but not the joint law of the levels: the sharing
couples them far more than the process does.  On the criterion-6 ladder
(indicator model, shannon-father, a = 8, 16, 32, 64, m = 512 then 4096)
the mean squares of adjacent levels correlate at 1.000 between the
levels of equal m, against 0.50 under the process's joint law, so noise
cancels in across-scale differences that a realization of the process
would keep.  ROADMAP item 6 plans a sampler of the joint law.

The normal quantile, the covariance column (by specfun's Filon rule)
and its Schur factor are NumPy code; the package needs no SciPy.
"""

import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .model import FilterSpec, SpectralModel, _band_column

__all__ = [
    "PROVENANCES",
    "PathRealization",
    "PanelLevel",
    "LevelMeans",
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

    Works in place on a copy of z that it owns and returns.  Overflow is
    the point (arithmetic is modulo 2^64), so the numpy overflow warning
    is silenced locally.
    """
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = z ^ (z >> np.uint64(30))
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


# Wichura's AS241 (PPND16; 1988, Appl. Statist. 37(3)): numerator and
# denominator coefficients, lowest degree first, of the central rational
# function in r = 0.180625 - q^2 (|q| = |p - 1/2| <= 0.425) and of the
# tail ones in s - 1.6 (s <= 5) and s - 5, s = sqrt(-log(min(p, 1 - p))).
_PPND_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
     5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
     2.8729085735721942674e4, 5.2264952788528545610e3),
)
_PPND_NEAR_TAIL = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
     6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
     5.47593808499534494600e-4, 1.05075007164441684324e-9),
)
_PPND_FAR_TAIL = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
     1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
     1.42151175831644588870e-7, 2.04426310338993978564e-15),
)
# Entries per block of gaussian_stream.  Each block runs its whole
# pipeline in place, on temporaries of 128 KB that stay in a 2 MB L2
# cache.  Of 4096 to 32768 entries, 16384 gave the fastest warm exact-c6
# batches.
_QUANTILE_BLOCK = 1 << 14


def _rational(coeffs, r):
    """Ratio of the two polynomials in coeffs at r, by Horner's rule."""
    num, den = coeffs
    n = num[-1] * r
    d = den[-1] * r
    for a, b in zip(num[-2:0:-1], den[-2:0:-1]):
        n += a
        n *= r
        d += b
        d *= r
    n += num[0]
    d += den[0]
    n /= d
    return n


def _quantile_into(p, out):
    """Standard normal quantile of each p in (0, 1) of the 1-d block p,
    by AS241 PPND16, written to out (which may be p).

    Relative accuracy is about 1e-16: within 8 ulp of
    ``scipy.special.ndtri`` on the whole lattice ``gaussian_stream``
    draws from.  The tail branches run only on the entries with
    |p - 1/2| > 0.425.
    """
    q = p - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    pt = p[tail]
    np.multiply(_rational(_PPND_CENTRAL, r), q, out=out)
    if tail.size:
        s = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        t = _rational(_PPND_NEAR_TAIL, s - 1.6)
        far = np.flatnonzero(s > 5.0)
        if far.size:
            t[far] = _rational(_PPND_FAR_TAIL, s[far] - 5.0)
        out[tail] = np.copysign(t, q[tail])


def gaussian_stream(seed, tag, indices):
    """Standard normals at the given indices of stream (seed, tag).

    Each output is a pure function of its seed, tag and index, so
    overlapping index windows agree bit-exactly and negative indices are
    valid (they wrap through two's complement into distinct counters).
    ``seed`` may be an integer or an array of them, broadcast against
    ``indices``: seeds of shape (R,) with indices of shape (M, 1) give an
    (M, R) block whose column r is the stream of seed r.  Every seed is
    reduced modulo 2^64 as a Python int, so a batch draws exactly what
    the seeds draw one by one.  A scalar seed and index give a 0-d array.

    The top 53 bits of each hash pick the lattice point
    u = k 2^-53 + 2^-54, clamped to at most 1 - 2^-53 (all-ones bits
    round to 1.0), and the draw is its normal quantile.  The output is
    filled in blocks of leading-axis rows of about _QUANTILE_BLOCK
    entries, each hashed, mapped to u and to its quantile in place, so
    the temporaries stay block-sized whatever the output's size.
    """
    seeds = np.asarray(seed, dtype=object)
    seeds = np.array([int(s) & _MASK64 for s in seeds.flat],
                     dtype=np.uint64).reshape(seeds.shape)
    idx = np.asarray(indices, dtype=np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):
        base = _mix64(seeds ^ _mix64(np.uint64(tag) + _GOLDEN))
        idx += np.uint64(1)
        idx *= _GOLDEN
    out = np.empty(np.broadcast(base, idx).shape)
    rows = out.reshape(1) if out.ndim == 0 else out
    # both operands get the output's number of axes; one whose leading
    # axis is 1 broadcasts against every block as it is
    lead = (1,) * rows.ndim
    base = base.reshape(lead[base.ndim:] + base.shape)
    idx = idx.reshape(lead[idx.ndim:] + idx.shape)
    step = max(1, _QUANTILE_BLOCK // max(1, math.prod(rows.shape[1:])))
    for lo in range(0, rows.shape[0], step):
        hi = lo + step
        block = rows[lo:hi]
        bits = _mix64((idx[lo:hi] if idx.shape[0] > 1 else idx)
                      + (base[lo:hi] if base.shape[0] > 1 else base))
        bits >>= np.uint64(11)
        np.multiply(bits, 2.0**-53, out=block)
        u = block.reshape(-1)
        u += 2.0**-54
        np.minimum(u, 1.0 - 2.0**-53, out=u)
        _quantile_into(u, u)
    return out


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
    """Coefficients delta_jk and their shifts at one scale."""

    j: int
    a_j: float
    shifts: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shifts", np.asarray(self.shifts, dtype=float))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.shifts.ndim != 1 or self.coeffs.shape != self.shifts.shape:
            raise ValueError("PanelLevel: shifts and coeffs must be equal-length vectors")
        if self.shifts.size < 1:
            raise ValueError("PanelLevel: need at least one shift")
        if not np.all(self.shifts[1:] > self.shifts[:-1]):
            raise ValueError("PanelLevel: shifts must be strictly increasing")
        if not (self.a_j > 0):
            raise ValueError("PanelLevel: scale must be positive")

    @property
    def mean_square(self):
        """delta_bar_j, the mean of the squared coefficients."""
        return np.mean(self.coeffs**2)


@dataclass(frozen=True, eq=False)
class LevelMeans:
    """delta_bar_j of R replications at one scale, one per replication:
    all that the estimator reads of a level's coefficients."""

    j: int
    a_j: float
    mean_square: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean_square", np.asarray(self.mean_square, dtype=float))


@dataclass(frozen=True, eq=False)
class CoefficientPanel:
    """Per-scale coefficient vectors, or a batch's mean squares, with
    their provenance and seed.

    A batch of R replications has a tuple of R seeds, and at every level
    a LevelMeans whose entry r is the mean square of seed r's
    coefficients.
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
        rows = (len(self.seed),) if isinstance(self.seed, tuple) else None
        shapes = {lv.mean_square.shape if isinstance(lv, LevelMeans) else None
                  for lv in self.levels}
        if rows == (0,) or shapes != {rows}:
            raise ValueError(
                "CoefficientPanel: an int seed needs PanelLevel coefficient "
                "vectors, and a tuple of R >= 1 seeds LevelMeans of R mean "
                "squares at every level"
            )


# ---------------------------------------------------------------------------
# Gegenbauer moving-average path
# ---------------------------------------------------------------------------


def gegenbauer_path(spec, n_points, t0, dt, seed):
    """Truncated moving-average path X(t) = sum_n C_n eps_{t-n}.

    The process lives on the integer lattice; innovations are indexed by
    lattice position through the counter-based stream, so any window of
    the same realization reproduces identical values.  The grid t0 + k dt
    must lie on that lattice: a t0 or dt that is not a whole number
    raises ValueError naming it.

    The output is filled in overlap-save blocks: each block draws its own
    innovations, the truncation - 1 before it included, _QUANTILE_BLOCK
    of them, so beside the path only one block's draws and sums are
    alive.  Each value is np.convolve's dot product of its
    innovations with the weights, bit for bit as one pass over the whole
    lattice gives it.  On a step dt > 1 a block is convolved over its
    whole lattice and read at every dt-th point.
    """
    if isinstance(spec, SpectralModel):
        raise TypeError(
            "gegenbauer_path: a closed-form density carries no sampling "
            "recipe; only the moving-average model can generate paths"
        )
    n_points = int(n_points)
    if n_points < 2:
        raise ValueError("gegenbauer_path: need at least two samples")
    t0 = float(t0)
    dt = float(dt)
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError("gegenbauer_path: dt must be a positive real")
    for name, value in (("t0", t0), ("dt", dt)):
        if not value.is_integer():
            raise ValueError("gegenbauer_path: %s = %r is off the integer lattice the "
                             "moving average lives on" % (name, value))
    step, taps = int(dt), spec.truncation
    coeffs = spec.coefficients()
    values = np.empty(n_points)
    # outputs per block whose innovations fill one block of gaussian_stream
    per_block = max(1, (_QUANTILE_BLOCK - taps) // step + 1)
    for lo in range(0, n_points, per_block):
        hi = min(lo + per_block, n_points)
        # lattice points int(t0) + step * (lo .. hi - 1), each with the
        # taps - 1 innovations before it
        k0 = int(t0) + step * lo
        eps = spec.sigma_eps * gaussian_stream(
            seed, _INNOVATION_TAG, np.arange(k0 - taps + 1, k0 + step * (hi - 1 - lo) + 1))
        values[lo:hi] = np.convolve(eps, coeffs, mode="valid")[::step]
    return PathRealization(t0=t0, dt=dt, values=values, seed=int(seed))


# ---------------------------------------------------------------------------
# Exact coefficient covariance and sampling
# ---------------------------------------------------------------------------


def coefficient_covariance(model, filt, a_j, shifts):
    """Exact covariance of the coefficients at one scale, as the first
    column of its Toeplitz matrix: entry k is the covariance at lag
    k gamma, k < m, of the m shifts.

    The shifts must form an arithmetic grid b_k = b_1 + (k - 1) gamma (a
    single shift counts as one), the only grid a ScaleSchedule admits;
    any other grid raises ValueError.  The matrix has entries
    col[|k1 - k2|], and the sampler factors it straight from this column
    (see _schur_factor) without building it.  One Filon rule on
    [0, min(A / a_j, envelope)], window |psi_hat(a_j lam)|^2 and factor
    2 a_j gives every lag at one tolerance, a pole in the band
    subtracted in closed form (see model._band_column).  The recommended
    regime is a_j >= 2 * band limit; below that the across-scale
    decorrelation bounds stop applying and a warning is emitted.
    """
    if not isinstance(model, SpectralModel):
        raise TypeError(
            "coefficient_covariance: need a SpectralModel with an explicit "
            "density; moving-average specs have no closed density here"
        )
    a_j = float(a_j)
    if not (a_j > 0.0 and math.isfinite(a_j)):
        raise ValueError("coefficient_covariance: scale must be a positive real")
    shifts = np.asarray(shifts, dtype=float)
    if shifts.ndim != 1 or shifts.size < 1:
        raise ValueError("coefficient_covariance: shifts must be a non-empty vector")
    m = shifts.size
    gamma = float(shifts[1] - shifts[0]) if m > 1 else 0.0
    if not np.allclose(np.diff(shifts), gamma, rtol=1e-12, atol=0.0):
        raise ValueError(
            "coefficient_covariance: shifts must form an arithmetic grid "
            "b_k = b_1 + (k - 1) * gamma"
        )
    if a_j < 2.0 * filt.band_limit_A:
        warnings.warn(
            "coefficient_covariance: a_j/(2A) = %.3g < 1; decorrelation "
            "bounds assume scales at least twice the band limit"
            % (a_j / (2.0 * filt.band_limit_A))
        )
    upper = min(filt.band_limit_A / a_j, model.envelope)
    knots = [x / a_j for x in filt.breakpoints if 0.0 < x / a_j < upper]
    # a_j * upper may round past the band edge A; keep it inside
    window = lambda lam: np.abs(filt.psi_hat(np.minimum(a_j * lam, filt.band_limit_A))) ** 2
    return _band_column(model, upper, knots, abs(gamma), m, 2.0 * a_j, window)


def scale_second_moment(model, filt, a):
    """J(a): the common variance of coefficients at scale a.

    Entry 0 of the single-shift column, at the tolerance, with the checks
    and the warning of coefficient_covariance.
    """
    return float(coefficient_covariance(model, filt, a, [0.0])[0])


# Columns per block of a packed Schur factor, and rows per staging band.
_PRODUCT_BLOCK = 64


def _schur(col):
    """Upper factor U, T = U^T U, of the Toeplitz matrix T with column col.

    The Schur algorithm on the generators u, v of T - Z T Z^T = u u^T -
    v v^T (Z the down shift): row k of U is u shifted down once, rotated
    hyperbolically against v so that v[k] vanishes.  The rotation is in
    mixed form (v from the new u), which is weakly stable for positive
    definite T (Bojanczyk, Brent, de Hoog & Sweet 1995).  O(m^2) time.

    U is returned packed, as the tuple of its column blocks
    U[:c1, c0:c1] for c0 in steps of B = _PRODUCT_BLOCK, the operands of
    _upper_product.  Each is C-contiguous, and all are carved from one
    buffer of 8 (m^2 + m B) / 2 bytes when B divides m (the dense U
    takes 8 m^2), so the zeros below the diagonal are never stored.
    Rows are computed into a (B, m) staging band, which is never
    re-zeroed: each finished band is copied into the blocks right of
    its rows, and into its diagonal block only on and above the
    diagonal.  Beside the blocks it holds the band and two length-m
    vectors.  Returns (blocks, None), or (None, k) when T is not
    positive definite: the first step k at which |rho| >= 1 (k = 0:
    col[0] <= 0).
    """
    m = col.size
    if not col[0] > 0.0:
        return None, 0
    bounds = [(c0, min(c0 + _PRODUCT_BLOCK, m)) for c0 in range(0, m, _PRODUCT_BLOCK)]
    sizes = [c1 * (c1 - c0) for c0, c1 in bounds]
    blocks = tuple(part.reshape(c1, c1 - c0) for part, (c0, c1) in zip(
        np.split(np.zeros(sum(sizes)), np.cumsum(sizes)[:-1]), bounds))
    band = np.empty((min(_PRODUCT_BLOCK, m), m))
    upper = np.triu(np.ones((band.shape[0],) * 2, dtype=bool))
    band[0] = col / math.sqrt(col[0])
    v = band[0].copy()  # entry 0 is never read: v starts at c_1 / sqrt(c_0)
    scratch = np.empty(m)
    last = 0  # band row of U's row k - 1
    for r0 in range(0, m, _PRODUCT_BLOCK):
        r1 = min(r0 + _PRODUCT_BLOCK, m)
        for k in range(max(r0, 1), r1):
            prev = band[last, k - 1:-1]
            vk = v[k:]
            rho = vk[0] / prev[0]
            if not abs(rho) < 1.0:
                return None, k
            s = math.sqrt((1.0 - rho) * (1.0 + rho))
            last = k - r0
            row = band[last, k:]
            np.multiply(vk, rho, out=row)
            np.subtract(prev, row, out=row)
            row /= s
            vk *= s
            tmp = scratch[k:]
            np.multiply(row, rho, out=tmp)
            vk -= tmp
        rows = band[:r1 - r0]
        diag = blocks[r0 // _PRODUCT_BLOCK]
        np.copyto(diag[r0:], rows[:, r0:r1], where=upper[:r1 - r0, :r1 - r0])
        for block in blocks[r0 // _PRODUCT_BLOCK + 1:]:
            c1, w = block.shape
            block[r0:r1] = rows[:, c1 - w:c1]
    return blocks, None


# Diagonal jitters tried in turn, in units of trace/m = col[0].
_JITTERS = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def _schur_factor(col, a_j):
    """Upper Schur factor of one level, escalating a diagonal jitter.

    Quadrature noise can push tiny eigenvalues a hair negative, so on
    failure the jitter is added to col[0] (T + eps I is still Toeplitz),
    from 1e-12 * trace/m tenfold up to 1e-6 * trace/m.  Any jitter
    applied is reported as a UserWarning; running out raises
    ArithmeticError.  Both name the level's a_j and m_j.
    """
    m = col.size
    base = col[0]
    steps = []
    for scale in _JITTERS:
        jittered = col.copy()
        jittered[0] += scale * base
        factor, step = _schur(jittered)
        if factor is None:
            steps.append(step)
            continue
        if scale:
            warnings.warn(
                "coefficient covariance at a_j = %g (m_j = %d) is not positive "
                "definite; added diagonal jitter %.3g = %.0e * trace/m"
                % (a_j, m, scale * base, scale)
            )
        return factor
    raise ArithmeticError(
        "coefficient covariance at a_j = %g (m_j = %d) is not positive "
        "semi-definite even with diagonal jitter up to 1e-6 * trace/m: "
        "|rho| first reached 1 at Schur step %d without jitter and at step "
        "%d with the largest" % (a_j, m, steps[0], steps[-1])
    )


# The factors of the last panel shape sampled, as (key, factors).  A new
# shape drops the old factors before its build, so at most one panel's
# factors are alive; the build holds the lock, so callers sampling from
# their own threads wait for it instead of each making their own.
_FACTORS = (None, None)
_FACTOR_LOCK = threading.Lock()


def _panel_factors(model, filt, schedule):
    """Upper Schur factor of every level's covariance, cached per panel
    shape: model and filter documents (else objects) and level grids."""
    global _FACTORS
    key = (model.doc or model, filt.doc or filt,
           tuple((lv.a_j, lv.gamma_j, lv.m_j) for lv in schedule.levels))
    with _FACTOR_LOCK:
        if _FACTORS[0] != key:
            _FACTORS = (None, None)
            _FACTORS = (key, tuple(
                _schur_factor(coefficient_covariance(model, filt, lv.a_j, lv.shifts()),
                              lv.a_j)
                for lv in schedule.levels))
        return _FACTORS[1]


def _upper_product(z, factor):
    """z @ U for an upper triangular U packed as by _schur.

    z is (..., m); column block [c0, c1) of the result needs only the
    first c1 entries of z's rows, so each block is one BLAS product of
    z[..., :c1] with the stored U[:c1, c0:c1], written into one
    preallocated result.  It differs from the full product by the
    rounding of the shorter sums.
    """
    m = factor[-1].shape[0]
    out = np.empty(z.shape[:-1] + (m,))
    for block in factor:
        c1, w = block.shape
        np.matmul(z[..., :c1], block, out=out[..., c1 - w:c1])
    return out


def exact_coefficient_sample(model, filt, schedule, seed):
    """Draw a panel of coefficients from their exact Gaussian law.

    Every level draws its normals from the low indices of one shared
    pool keyed by (seed, panel tag): each level follows its own law
    exactly, but levels are coupled far more than under the process's
    joint law (adjacent-level correlation 1.000 against 0.50; see the
    module docstring).
    Each level is z^T U, with z its m_j normals and U the upper Schur
    factor of its covariance (T = U^T U), built from the covariance
    column and cached per panel shape.  U is stored as its column blocks
    above the diagonal, about half of m_j x m_j (see _schur), and the
    product multiplies z by each block (see _upper_product).
    Deterministic in the seed.  ``seed`` may also be a tuple of R ints:
    each level's product is then one (R, m_j) block, the transposed
    normals of all seeds times U, whose row r matches the panel of seed
    r to rounding; the block is reduced to its R mean squares (a
    LevelMeans) before the next level's product is taken.
    """
    for lv in schedule.levels:
        if lv.m_j > 8192:
            raise ValueError(
                "exact_coefficient_sample: m_j = %d at level %d exceeds the "
                "factorization guard of 8192" % (lv.m_j, lv.j)
            )
    factors = _panel_factors(model, filt, schedule)
    idx = np.arange(max(lv.m_j for lv in schedule.levels))
    if isinstance(seed, tuple):
        seed = tuple(int(s) for s in seed)
        idx = idx[:, None]
    else:
        seed = int(seed)
    z = gaussian_stream(seed, _PANEL_TAG, idx).T
    levels = []
    for lv, factor in zip(schedule.levels, factors):
        coeffs = _upper_product(z[..., :lv.m_j], factor)
        if isinstance(seed, tuple):
            levels.append(LevelMeans(lv.j, lv.a_j, np.mean(coeffs**2, axis=-1)))
        else:
            levels.append(PanelLevel(j=lv.j, a_j=lv.a_j, shifts=lv.shifts(), coeffs=coeffs))
    return CoefficientPanel(levels=levels, provenance="exact-gaussian", seed=seed)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# Rows per block of the CSV writers and readers, and cells per block of
# the transform kernel, which `specpole transform` writes to panel.csv
# block by block.  A writer turns each block of columns into Python
# lists and strings only for as long as it is written; a reader parses
# one block at a time into arrays sized from the file's line count.  So
# neither's memory grows with the level or the path beyond the result.
_ROW_BLOCK = 4096


def _write_rows(fh, row, n, columns):
    """Write n rows through the %-format ``row``, _ROW_BLOCK rows at a time.

    ``columns(lo, hi)`` gives the arrays of rows lo..hi-1, one per field.
    The fields are those of model._cell, but one %-format per row, not
    one dispatch per field: on a 61,776-row panel that writes in 0.045 s
    where model._write_csv takes 0.18 s.
    """
    for lo in range(0, n, _ROW_BLOCK):
        block = columns(lo, min(lo + _ROW_BLOCK, n))
        fh.writelines(map(row.__mod__, zip(*(c.tolist() for c in block))))


def _write_panel(path, blocks):
    """Write panel CSV rows from blocks (level, k0, shifts, coeffs), whose
    rows are k = k0 + 1, k0 + 2, ... of the level (anything with j and
    a_j), each block taken only when the one before is written.  A block
    that raises removes the partial file."""
    fh = open(path, "w")
    try:
        with fh:
            fh.write("j,k,a_j,b_jk,delta_jk\n")
            for lv, k0, shifts, coeffs in blocks:
                # j and a_j are formatted once per block, into the row format
                row = "%d,%%d,%.17g,%%.17g,%%.17g\n" % (lv.j, lv.a_j)
                _write_rows(fh, row, shifts.size, lambda lo, hi: (
                    np.arange(k0 + lo + 1, k0 + hi + 1), shifts[lo:hi], coeffs[lo:hi]))
    except BaseException:
        os.remove(path)
        raise


def panel_to_csv(panel, path):
    """Write a panel as CSV with columns j, k, a_j, b_jk, delta_jk."""
    if isinstance(panel.seed, tuple):
        raise ValueError("panel_to_csv: a panel of several replications has no CSV form")
    _write_panel(path, ((lv, 0, lv.shifts, lv.coeffs) for lv in panel.levels))


def _line_bound(fh):
    """Line breaks in the text file fh, which it then rewinds: at least
    its rows below the header, whether or not its last line ends in one."""
    bound = sum(chunk.count("\n") for chunk in iter(lambda: fh.read(1 << 16), ""))
    fh.seek(0)
    return bound


def _csv_blocks(fh, path, who):
    """The rows below fh's header, parsed in blocks of _ROW_BLOCK rows.

    Blank lines are skipped.  The first block is yielded even when empty
    (the file's column count is then 1, as np.loadtxt reports it); a block
    whose column count differs from the first's, or one np.loadtxt cannot
    parse, raises ValueError naming ``who`` and the file.
    """
    fh.readline()
    width, rows = None, 0
    while True:
        with warnings.catch_warnings():
            # numpy notes an input without rows and each blank line
            warnings.filterwarnings("ignore", r"(loadtxt: input|Input line \d+) contained no data")
            try:
                block = np.loadtxt(fh, delimiter=",", max_rows=_ROW_BLOCK, ndmin=2)
            except ValueError as exc:
                raise ValueError("%s: %s, below data row %d: %s" % (who, path, rows, exc)) from exc
        if width is None:
            width = block.shape[1]
        elif block.size and block.shape[1] != width:
            raise ValueError("%s: %s changes from %d to %d columns below data row %d"
                             % (who, path, width, block.shape[1], rows))
        n = block.shape[0]
        if n or not rows:
            yield block
        del block  # held by no name while the next block is parsed
        rows += n
        if n < _ROW_BLOCK:
            return


def _panel_blocks(fh, path):
    """_csv_blocks of a panel CSV, each checked for five finite columns
    and integer j and k."""
    blocks, rows = _csv_blocks(fh, path, "panel_from_csv"), 0
    for block in blocks:
        if not block.size or block.shape[1] < 5 or not np.isfinite(block[:, :5]).all():
            rows += block.shape[0] + sum(b.shape[0] for b in blocks)
            raise ValueError(
                "panel_from_csv: %s holds %d rows in %d column(s); a panel needs columns j, k, "
                "a_j, b_jk and delta_jk, at least 1 row and finite values"
                % (path, rows, block.shape[1]))
        j, k = block[:, 0], block[:, 1]
        if not ((j == np.round(j)).all() and (k == np.round(k)).all()):
            raise ValueError("panel_from_csv: %s holds a non-integer j or k" % path)
        rows += block.shape[0]
        yield block


def _panel_rows(path, n, blocks):
    """Shifts and coefficients of blocks of panel rows, in arrays of at
    most n, with (j, a_j, first row) of each level; None at the first row
    out of (j, k) order.

    Each block is checked against the row before it, so duplicate rows,
    a level with two a_j, and shifts that do not increase are found
    across block edges too; only the two stored columns outlive a block.
    """
    shifts, coeffs, starts, last, rows = np.empty(n), np.empty(n), [], None, 0
    for block in blocks:
        ext = block if last is None else np.concatenate([last, block])
        j, k, a, b = ext[:, 0], ext[:, 1], ext[:, 2], ext[:, 3]
        carried = ext.shape[0] - block.shape[0]  # 1 if ext starts with the last row
        same = j[1:] == j[:-1]
        if not ((j[1:] > j[:-1]) | same & (k[1:] >= k[:-1])).all():
            return None
        twice = same & (k[1:] == k[:-1])
        if twice.any():
            i = np.argmax(twice)
            raise ValueError("panel_from_csv: %s gives level %d row k = %d more than once"
                             % (path, j[i], k[i]))
        for bad, what in ((same & (a[1:] != a[:-1]), "more than one a_j"),
                          (same & ~(b[1:] > b[:-1]), "shifts b_jk that do not increase with k")):
            if bad.any():
                raise ValueError("panel_from_csv: %s gives level %d %s"
                                 % (path, j[np.argmax(bad)], what))
        first = np.flatnonzero(~same) + 1
        for i in first if carried else np.r_[0, first]:
            if not a[i] > 0:
                raise ValueError(
                    "panel_from_csv: %s gives level %d the scale a_j = %.17g; a scale must be "
                    "positive" % (path, j[i], a[i]))
            starts.append((int(j[i]), float(a[i]), rows + i - carried))
        shifts[rows:rows + block.shape[0]] = block[:, 3]
        coeffs[rows:rows + block.shape[0]] = block[:, 4]
        rows += block.shape[0]
        last = block[-1:]
    shifts.resize(rows, refcheck=False)
    coeffs.resize(rows, refcheck=False)
    return shifts, coeffs, starts


def panel_from_csv(path, provenance, seed):
    """Rebuild a panel from CSV plus the manifest-held provenance/seed.

    A file in (j, k) order, as panel_to_csv writes it, is read and
    checked in blocks of _ROW_BLOCK rows, and only its shifts and
    coefficients are kept: one array each, sized from the file's line
    count, which the levels share as views.  A file out of that order is
    read again whole and sorted into a copy.  Blank lines are skipped, a
    last line may lack its newline, and every malformed file raises
    ValueError naming it; the file is closed either way.
    """
    with open(path) as fh:
        read = _panel_rows(path, _line_bound(fh), _panel_blocks(fh, path))
    if read is None:
        with open(path) as fh:
            table = np.concatenate(list(_panel_blocks(fh, path)))
        # rows by (j, k); np.lexsort, unlike np.unique, leaves numpy.ma unloaded
        table = table[np.lexsort((table[:, 1], table[:, 0]))]
        read = _panel_rows(path, table.shape[0], [table])
    shifts, coeffs, starts = read
    ends = [lo for _, _, lo in starts[1:]] + [shifts.size]
    levels = [PanelLevel(j=level, a_j=a_j, shifts=shifts[lo:hi], coeffs=coeffs[lo:hi])
              for (level, a_j, lo), hi in zip(starts, ends)]
    levels.sort(key=lambda lv: lv.a_j)
    for lo, hi in zip(levels, levels[1:]):
        if lo.a_j == hi.a_j:
            raise ValueError(
                "panel_from_csv: %s gives levels %d and %d the same scale a_j = %.17g"
                % (path, lo.j, hi.j, lo.a_j)
            )
    return CoefficientPanel(levels=tuple(levels), provenance=provenance,
                            seed=int(seed))


def path_to_csv(path_realization, path):
    """Write a path as CSV with columns t, x."""
    p = path_realization
    with open(path, "w") as fh:
        fh.write("t,x\n")
        # t is p.times() block by block: the same products, bit for bit
        _write_rows(fh, "%.17g,%.17g\n", p.values.size, lambda lo, hi: (
            p.t0 + p.dt * np.arange(lo, hi), p.values[lo:hi]))


def path_from_csv(path, seed):
    """Read a path written by path_to_csv; the grid t must be uniform.

    The rows are read in blocks of _ROW_BLOCK (see _csv_blocks) into one
    array of x sized from the file's line count.  Each block's times are
    checked against the grid of the first two, across block edges too,
    and then dropped, so the reader holds the values and one block.
    Blank lines are skipped, a last line may lack its newline, and every
    malformed file raises ValueError naming it; the file is closed either
    way.
    """
    with open(path) as fh:
        values, rows, finite, uniform = np.empty(_line_bound(fh)), 0, True, True
        t0 = dt = 0.0
        blocks = _csv_blocks(fh, path, "path_from_csv")
        for block in blocks:
            n, cols = block.shape
            if cols < 2 or not np.isfinite(block[:, :2]).all():
                finite = False
                rows += n + sum(b.shape[0] for b in blocks)
                break
            t = block[:, 0]
            if not rows and n >= 2:
                t0, dt = float(t[0]), float(t[1] - t[0])
            elif rows:
                t = np.concatenate([[last], t])
            # np.allclose(steps, dt, rtol=1e-9, atol=0), on one scratch array
            steps = np.diff(t)
            steps -= dt
            uniform = uniform and bool((np.abs(steps, out=steps) <= 1e-9 * abs(dt)).all())
            values[rows:rows + n] = block[:, 1]
            rows += n
            last = t[-1]
            del block, t, steps  # held by no name while the next block is parsed
    if not finite or rows < 2:
        raise ValueError(
            "path_from_csv: %s holds %d samples in %d column(s); a path needs columns "
            "t and x, at least 2 samples and finite values" % (path, rows, cols)
        )
    if not dt > 0.0:
        raise ValueError(
            "path_from_csv: %s has t[1] - t[0] = %g; the times must increase"
            % (path, dt)
        )
    if not uniform:
        raise ValueError(
            "path_from_csv: %s is not on a uniform time grid (steps differ "
            "from t[1] - t[0] = %g by more than 1e-9 relative)" % (path, dt)
        )
    values.resize(rows, refcheck=False)
    return PathRealization(t0=t0, dt=dt, values=values, seed=int(seed))
