"""Spectral-density models and filter specifications.

A model is the density ``f(lam) = h(lam) / |lam^2 - s0^2|**(2*alpha)``
with a pole pair at ``+-s0``, where ``h`` is an even non-negative
bounded factor with ``h(0) = 1`` that vanishes, or is taken to, beyond
a finite envelope.  A filter is a band-limited (exactly
or effectively) function ``psi`` with frequency form ``psi_hat`` and the
moment constants

    c2 = integral |psi_hat(lam)|^2 dlam
    c3 = 2 integral lam^2 |psi_hat(lam)|^2 dlam

which normalize the transform statistics.  A ``FilterSpec`` computes
them from its own ``psi_hat`` by the Filon rule that gives every
covariance, never takes them, so the estimator stays self-consistent
with whatever ``psi_hat`` is in use.
The Fourier convention is fixed package-wide to

    psi_hat(lam) = integral exp(-i*lam*t) psi(t) dt.

Sampled assumptions on ``h`` (evenness, positivity, unit value at zero)
are reported as warnings, not errors, since a black-box function cannot
be verified symbolically.

The builders ``indicator_model``, ``builtin_filter`` and the schedules'
attach the document they build from as ``doc``, which no constructor
takes (None if built by hand; a ``GegenbauerSpec``'s is its fields): the
``*_to_json`` calls return it and the exact backend's factor cache keys on it.
"""

import json
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .specfun import _filon_column, gegenbauer_coeffs

__all__ = [
    "ConfigError",
    "SpectralModel",
    "FilterSpec",
    "GegenbauerSpec",
    "indicator_model",
    "builtin_filter",
    "BUILTIN_FILTER_NAMES",
    "model_from_json",
    "model_to_json",
    "filter_from_json",
    "filter_to_json",
]

# SpectralModel.covariances reads lags k g from one column while max(k)
# is under this many per lag: on the indicator model (M = 3, g = 1) a
# column of K lags took about 5 ms + 4 us K and each lag alone 4 ms.
_COLUMN_SPAN = 64


def _checked_lags(lags, integer=False):
    """lags as floats, or ValueError naming the first that is not finite
    (with ``integer``, not a finite whole number)."""
    lags = np.asarray(lags, dtype=float)
    bad = ~np.isfinite(lags)
    if integer:
        bad |= lags != np.rint(lags)
    if bad.any():
        raise ValueError("covariances: lag %r is not a finite %s"
                         % (float(lags[bad][0]), "integer" if integer else "number"))
    return lags


def _spills(g, band):
    """Whether sampled |g| on (band, 3 band] exceeds 1e-12 of its peak
    on [0, band]."""
    with np.errstate(all="ignore"):
        outside = np.abs(g(np.linspace(1.02 * band, 3.0 * band, 64)))
        peak = float(np.max(np.abs(g(np.linspace(0.0, band, 128)))))
    return peak > 0.0 and bool(np.any(outside > 1e-12 * peak))


def _attach(obj, doc):
    """obj, holding ``doc`` as the document a builder made it from."""
    object.__setattr__(obj, "doc", doc)
    return obj


def _document_of(obj, who, what):
    """A copy of obj.doc, or ValueError if obj was built by hand."""
    if obj.doc is None:
        raise ValueError("%s: only %s serialize; got one built by hand" % (who, what))
    return dict(obj.doc)


# ---------------------------------------------------------------------------
# Spectral models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Density f(lam) = h(lam) / |lam^2 - s0^2|**(2*alpha).

    ``envelope`` is the positive finite M beyond which h is taken to
    vanish: every covariance integrates over [-M, M] (a smooth h needs an
    M where it is negligible, such as 7 for exp(-lam^2)); a warning says
    when |h| on (M, 3M] exceeds 1e-12 of its peak on [0, M].  ``doc`` is
    ``indicator_model``'s document, None for a model built here.
    """

    s0: float
    alpha: float
    h: object
    envelope: float
    doc = None

    def __post_init__(self):
        if not (self.s0 > 1.0 and math.isfinite(self.s0)):
            raise ValueError("SpectralModel: s0 must be a finite real > 1")
        if not (0.0 < self.alpha < 0.5):
            raise ValueError("SpectralModel: alpha must lie in (0, 1/2)")
        if not (self.envelope > 0.0 and math.isfinite(self.envelope)):
            raise ValueError("SpectralModel: envelope must be a positive real")
        self._sampled_checks()

    def _sampled_checks(self):
        grid = np.linspace(0.0, max(2.0 * self.s0, self.envelope), 201)
        with np.errstate(all="ignore"):
            h_pos = np.asarray(self.h(grid), dtype=float)
            h_neg = np.asarray(self.h(-grid), dtype=float)
        if abs(h_pos[0] - 1.0) > 1e-9:
            warnings.warn(
                "SpectralModel: h(0) = %r differs from 1; the statistics "
                "converge to h(0)-scaled limits" % float(h_pos[0])
            )
        if not np.allclose(h_pos, h_neg, rtol=1e-9, atol=1e-12, equal_nan=True):
            warnings.warn("SpectralModel: h is not even on the sampled grid")
        if np.any(h_pos < -1e-12):
            warnings.warn("SpectralModel: h takes negative sampled values")
        if _spills(self.h, self.envelope):
            warnings.warn(
                "SpectralModel: |h| exceeds 1e-12 of its peak beyond the "
                "envelope %r, where every covariance truncates it" % self.envelope
            )
        safe = np.abs(grid - self.s0) > 1e-9 * self.s0
        dens = h_pos[safe] / np.abs(grid[safe] ** 2 - self.s0**2) ** (2 * self.alpha)
        if not np.all(np.isfinite(dens)):
            warnings.warn(
                "SpectralModel: density is non-finite away from the poles"
            )

    def density(self, lam):
        """Evaluate the spectral density, rejecting the poles at +-s0."""
        arr = np.atleast_1d(np.asarray(lam, dtype=float))
        if np.any(np.abs(arr) == self.s0):
            raise ValueError(
                "density: lambda hits the singularity at +-%r" % self.s0
            )
        with np.errstate(all="ignore"):
            out = self.pole_density(arr)
        return float(out[0]) if np.ndim(lam) == 0 else out

    def pole_density(self, lam):
        """h(lam) / |lam^2 - s0^2|^(2 alpha) unchecked: infinite at
        +-s0, which quadrature nodes must avoid."""
        hv = np.asarray(self.h(lam), dtype=float)
        return hv / np.abs(lam * lam - self.s0**2) ** (2.0 * self.alpha)

    def covariances(self, lags):
        """Covariances B(r) = 2 int_0^M cos(r lam) f(lam) dlam, M the
        envelope, at the given finite lags (ValueError names the first
        other): multiples k g of the least positive lag g are one column
        (see _band_column) while max(k) is under _COLUMN_SPAN per lag,
        and any other lag is entry 1 of the column of lags 0, |r|."""
        lags = np.abs(_checked_lags(lags))
        pos = lags > 0
        step = lags[pos].min() if pos.any() else 0.0
        k = np.rint(np.divide(lags, step, out=np.zeros(lags.shape), where=pos))
        if (not np.all(k < _COLUMN_SPAN * lags.size)
                or not np.allclose(lags, step * k, 1e-12, 0.0)):
            return np.array([_band_column(self, self.envelope, (), r, 2, 2.0)[1] for r in lags])
        k = k.astype(int)
        return _band_column(self, self.envelope, (), step, k.max(initial=0) + 1, 2.0)[k]

    def zero_limits(self):
        """(f(0), f''(0)/4), the limits of the two filter statistics.

        With g = |lam^2 - s0^2|^(-2 alpha) these are h(0) g(0) and
        h(0) g''(0)/4 + h''(0) g(0)/4; h''(0) of the black-box factor is
        a central second difference, exactly zero for the indicator.
        """
        step = 1e-4 * self.s0
        h0, h_step = np.asarray(self.h(np.array([0.0, step])), dtype=float)
        base = self.s0 ** (-4.0 * self.alpha)
        h2 = 2.0 * (h_step - h0) / step**2
        return (
            float(h0 * base),
            float(h0 * self.alpha * self.s0 ** (-4.0 * self.alpha - 2.0)
                  + 0.25 * h2 * base),
        )


def indicator_model(s0, alpha, M):
    """Model with h = 1 on [-M, M] and 0 beyond (the simplest example)."""
    M = float(M)
    if not (M > 0.0 and math.isfinite(M)):
        raise ValueError("indicator_model: M must be a positive real")
    h = lambda lam: np.where(np.abs(lam) <= M, 1.0, 0.0)
    model = SpectralModel(float(s0), float(alpha), h, envelope=M)
    return _attach(model, {"family": "indicator", "s0": model.s0, "alpha": model.alpha, "M": M})


def _band_column(model, upper, knots, gamma, m, scale, window=lambda lam: 1.0):
    """scale * int_0^upper cos(k gamma lam) window(lam) f(lam) dlam, k < m
    (all lag 0 if gamma = 0), by specfun._filon_column; s0 in the band is
    its pole (s0, 2 alpha) of window h |lam + s0|^(-2 alpha)."""
    pole = (model.s0, 2.0 * model.alpha) if model.s0 <= upper else None
    f = model.pole_density if pole is None else (
        lambda lam: np.asarray(model.h(lam), dtype=float) * (lam + model.s0) ** -pole[1])
    return _filon_column(lambda lam: window(lam) * f(lam), upper, knots, pole, gamma, m, scale)


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """A filter with frequency form psi_hat and moments c2, c3.

    c2 and c3 are not arguments: construction computes them from
    ``psi_hat`` as 2 int_0^A |psi_hat|^2 and 4 int_0^A lam^2 |psi_hat|^2,
    the two rows of one lag-0 column of specfun._filon_column knotted at
    the breakpoints inside (0, A), so |psi_hat|^2 is evaluated once per
    node for both and each rule is a plain sum, with no FFT; it raises
    ValueError unless both are positive.  |psi_hat|^2 is assumed even,
    as it is for a real psi, so the constants read it on [0, A] alone.
    ``doc`` is ``builtin_filter``'s document, None for a filter built here.
    ``psi`` may be None when only frequency-domain work is needed (the
    Meyer pair ships without a time form).  ``band_limit_A`` bounds the
    support of psi_hat; where that support is unbounded (the Mexican
    hat), it is the effective band, the smallest A with |psi_hat|^2
    below 1e-12 of its peak outside [-A, A].
    ``time_support`` bounds the effective support of psi, rounded up to
    a whole time unit so transform windows align with unit grids; None
    for frequency-only filters.
    """

    name: str
    psi: object
    psi_hat: object
    band_limit_A: float
    time_support: float = None
    breakpoints: tuple = ()
    c2: float = field(init=False)
    c3: float = field(init=False)
    doc = None

    def __post_init__(self):
        A = self.band_limit_A
        if not (A > 0.0 and math.isfinite(A)):
            raise ValueError("FilterSpec: band limit must be a positive real")
        sq = lambda lam: np.abs(np.broadcast_to(self.psi_hat(lam), np.shape(lam))) ** 2

        def moments(lam):  # |psi_hat|^2 and lam^2 |psi_hat|^2, one evaluation
            rows = np.empty((2, lam.size))
            rows[0] = sq(lam)
            with np.errstate(invalid="ignore"):  # 0 * inf: the rule names the node
                np.multiply(lam * lam, rows[0], out=rows[1])
            return rows

        knots = [x for x in self.breakpoints if 0.0 < x < A]
        c2, c3 = _filon_column(moments, A, knots, None, 0, 1, 1.0)[:, 0]
        object.__setattr__(self, "c2", 2.0 * float(c2))
        object.__setattr__(self, "c3", 4.0 * float(c3))
        if not (self.c2 > 0.0 and self.c3 > 0.0):
            raise ValueError("FilterSpec: moments c2 and c3 must be positive")
        if _spills(sq, A):
            warnings.warn(
                "FilterSpec %r: |psi_hat|^2 exceeds 1e-12 of its peak outside "
                "the declared band" % self.name
            )


BUILTIN_FILTER_NAMES = (
    "shannon-father",
    "shannon-mother",
    "meyer-father",
    "meyer-mother",
    "mexican-hat",
)

# Effective-support thresholds.  The slowly decaying Shannon filters use
# a looser cutoff than the Gaussian-windowed Mexican hat; the resulting
# truncation error of the transform (about 3e-8 of the coefficient for
# the father filter) is documented in the README.
_SHANNON_TIME_THRESHOLD = 1e-4
_MEXICAN_TIME_THRESHOLD = 1e-10
# Lower-branch Lambert W values that fix the Mexican hat's effective band
# and support (see _mexican_hat): W_-1(-1e-6/e) and
# W_-1(-_MEXICAN_TIME_THRESHOLD sqrt(e)/2), as scipy.special.lambertw
# gives them; tests/test_model.py checks both against it.
_MEXICAN_W_BAND = -17.68842079085992
_MEXICAN_W_TIME = -26.495991570563227


def _shannon_father():
    psi = lambda t: np.sinc(np.asarray(t, dtype=float))
    psi_hat = lambda lam: np.where(np.abs(lam) <= math.pi, 1.0, 0.0) + 0.0j
    T = float(math.ceil(1.0 / (math.pi * _SHANNON_TIME_THRESHOLD)))
    return psi, psi_hat, math.pi, T, ()


def _shannon_mother_psi(t):
    t = np.asarray(t, dtype=float)
    s = t - 0.5
    with np.errstate(all="ignore"):
        direct = (np.sin(2.0 * math.pi * t) - np.cos(math.pi * t)) / (math.pi * s)
    series = -1.0 + (7.0 * math.pi**2 / 6.0) * s * s
    return np.where(np.abs(s) < 1e-4, series, direct)


def _shannon_mother():
    def psi_hat(lam):
        lam = np.asarray(lam, dtype=float)
        band = (np.abs(lam) > math.pi) & (np.abs(lam) <= 2.0 * math.pi)
        return np.where(band, -np.exp(-0.5j * lam), 0.0 + 0.0j)

    T = float(math.ceil(0.5 + 2.0 / (math.pi * _SHANNON_TIME_THRESHOLD)))
    breaks = (-math.pi, math.pi)
    return _shannon_mother_psi, psi_hat, 2.0 * math.pi, T, breaks


def _meyer_window(x):
    # Simplest admissible Meyer window nu(x) = x on [0, 1].
    return np.clip(x, 0.0, 1.0)


def _meyer_father():
    two_thirds = 2.0 * math.pi / 3.0

    def psi_hat(lam):
        lam = np.abs(np.asarray(lam, dtype=float))
        ramp = _meyer_window(lam / two_thirds - 1.0)
        return np.where(lam <= 2.0 * two_thirds, np.cos(0.5 * math.pi * ramp), 0.0) + 0.0j

    breaks = (-two_thirds, two_thirds)
    return None, psi_hat, 2.0 * two_thirds, None, breaks


def _meyer_mother():
    two_thirds = 2.0 * math.pi / 3.0

    def psi_hat(lam):
        lam = np.asarray(lam, dtype=float)
        mag = np.abs(lam)
        rise = np.sin(0.5 * math.pi * _meyer_window(mag / two_thirds - 1.0))
        fall = np.cos(0.5 * math.pi * _meyer_window(mag / (2.0 * two_thirds) - 1.0))
        window = np.where(mag <= 4.0 * two_thirds, rise * fall, 0.0)
        return np.exp(-0.5j * lam) * window

    breaks = (
        -2.0 * two_thirds,
        -two_thirds,
        two_thirds,
        2.0 * two_thirds,
    )
    return None, psi_hat, 4.0 * two_thirds, None, breaks


def _mexican_hat(sigma):
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError("mexican-hat: sigma must be a positive real")
    amp_hat = math.sqrt(8.0 / 3.0) * math.pi**0.25 * sigma**2.5
    amp_t = 2.0 / (math.sqrt(3.0 * sigma) * math.pi**0.25)

    def psi(t):
        x = np.asarray(t, dtype=float) / sigma
        return amp_t * (1.0 - x * x) * np.exp(-0.5 * x * x)

    def psi_hat(lam):
        lam = np.asarray(lam, dtype=float)
        return amp_hat * lam * lam * np.exp(-0.5 * (sigma * lam) ** 2) + 0.0j

    # Beyond the peak at x = sigma lam = sqrt(2), |psi_hat|^2 / peak =
    # (x^2/2)^2 exp(2 - x^2) falls to 1e-12 at x^2 = -2 W_-1(-1e-6/e), and
    # |psi(t)| / |psi(0)| = (x^2 - 1) exp(-x^2/2) with x = t/sigma falls
    # to the time threshold tau at x^2 = 1 - 2 W_-1(-tau sqrt(e)/2).
    A_eff = math.sqrt(-2.0 * _MEXICAN_W_BAND) / sigma
    T = float(math.ceil(sigma * math.sqrt(1.0 - 2.0 * _MEXICAN_W_TIME)))
    return psi, psi_hat, A_eff, T, ()


# The built-in filters that have no width, by name
_WIDTHLESS = {"shannon-father": _shannon_father, "shannon-mother": _shannon_mother,
              "meyer-father": _meyer_father, "meyer-mother": _meyer_mother}


def builtin_filter(name, sigma=1.0):
    """Construct one of the built-in filters by name.

    ``sigma`` is the width of the mexican-hat filter; the others have none,
    and ``filter_from_json`` rejects any sigma but 1.0 for them.  The
    filter's ``doc`` is {"name": name}, with "sigma" for the mexican hat.
    """
    if name == "mexican-hat":
        doc = {"name": name, "sigma": float(sigma)}
        psi, psi_hat, A, T, breaks = _mexican_hat(doc["sigma"])
    elif name in _WIDTHLESS:
        doc = {"name": name}
        psi, psi_hat, A, T, breaks = _WIDTHLESS[name]()
    else:
        raise ValueError(
            "unknown filter %r; choose one of %s" % (name, ", ".join(BUILTIN_FILTER_NAMES))
        )
    filt = FilterSpec(name=name, psi=psi, psi_hat=psi_hat, band_limit_A=A,
                      time_support=T, breakpoints=breaks)
    return _attach(filt, doc)


# ---------------------------------------------------------------------------
# Gegenbauer moving-average specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GegenbauerSpec:
    """Parameters of the Gegenbauer process (1 - 2uB + B^2)^d X = eps.

    The implied spectral pole sits at ``s0 = arccos(u)`` with long-memory
    exponent ``alpha = d``.  ``sigma_eps = 0`` is allowed and produces
    the degenerate all-zero path.  The density and covariances are those
    of the truncated moving average X_t = sum_{n < truncation} C_n eps_{t-n}
    that ``gegenbauer_path`` simulates.  Its ``doc`` is its fields under
    "family": "gegenbauer".
    """

    d: float
    u: float
    sigma_eps: float = 1.0
    truncation: int = 40

    def __post_init__(self):
        if not (0.0 < self.d < 0.5):
            raise ValueError("GegenbauerSpec: d must lie in (0, 1/2)")
        if not (abs(self.u) < 1.0):
            raise ValueError("GegenbauerSpec: u must satisfy |u| < 1")
        if not (self.sigma_eps >= 0.0 and math.isfinite(self.sigma_eps)):
            raise ValueError("GegenbauerSpec: sigma_eps must be non-negative")
        if int(self.truncation) < 1:
            raise ValueError("GegenbauerSpec: truncation must be >= 1")
        object.__setattr__(self, "truncation", int(self.truncation))

    @property
    def doc(self):
        """The document ``model_from_json`` builds this spec from."""
        return {"family": "gegenbauer", **asdict(self)}

    @property
    def s0(self):
        """Location arccos(u) of the implied spectral pole, in (0, pi)."""
        return math.acos(self.u)

    @property
    def alpha(self):
        """Long-memory exponent, equal to d."""
        return self.d

    def coefficients(self):
        """Moving-average weights C_0 .. C_{truncation-1}."""
        return gegenbauer_coeffs(self.truncation - 1, self.d, self.u)

    def density(self, lam):
        """Density sigma^2 |sum_n C_n exp(-i lam n)|^2 / (2 pi)."""
        coeffs = self.coefficients()
        lam = np.asarray(lam, dtype=float)
        phases = np.exp(-1j * np.multiply.outer(lam, np.arange(coeffs.size)))
        return self.sigma_eps**2 * np.abs(phases @ coeffs) ** 2 / (2.0 * np.pi)

    def covariances(self, lags):
        """Exact covariances sigma^2 sum_n C_n C_{n+|r|} at the given
        integer lags (ValueError names the first other)."""
        coeffs = self.coefficients()
        full = self.sigma_eps**2 * np.correlate(coeffs, coeffs, "full")
        lags = np.abs(_checked_lags(lags, integer=True))
        inside = lags < coeffs.size
        return np.where(inside, full[np.where(inside, lags, 0).astype(int) + coeffs.size - 1], 0.0)

    def zero_limits(self):
        """(f(0), f''(0)/4) from the moments of the weights C_n."""
        coeffs = self.coefficients()
        n = np.arange(coeffs.size)
        m0, m1, m2 = coeffs.sum(), (n * coeffs).sum(), (n * n * coeffs).sum()
        var = self.sigma_eps**2
        return (
            float(var * m0**2 / (2.0 * math.pi)),
            float(var * (m1**2 - m0 * m2) / (4.0 * math.pi)),
        )


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """A config document violates the schema at a specific location.

    ``pointer`` is the JSON-pointer path of the offending key ("" for
    problems with the document as a whole).  The ``*_from_json`` loaders
    raise it; their ``pointer`` argument is the document's own location
    inside an enclosing config, such as "/model".
    """

    def __init__(self, pointer, message):
        super().__init__("%s: %s" % (pointer or "config", message))
        self.pointer = pointer
        self.message = message


_KINDS = {
    "object": (dict, "an object"),
    "string": (str, "a string"),
    "number": ((int, float), "a number"),
    "integer": (int, "an integer"),
}


def _field(doc, pointer, key, kind, required=True, default=None):
    """Fetch doc[key], checking its JSON type and reporting by pointer."""
    here = "%s/%s" % (pointer, key)
    if key not in doc:
        if required:
            raise ConfigError(here, "missing required key")
        return default
    value = doc[key]
    pytype, label = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, pytype):
        raise ConfigError(
            here, "expected %s, got %s" % (label, type(value).__name__)
        )
    return value


# The default of a key the document must hold
_REQUIRED = object()


def _read_config(doc, pointer, flags, *keys):
    """Read keys, each (name, kind, default or _REQUIRED), from doc in
    order; return their values, then the manifest's config of every key.

    A flag in ``flags`` that is not None wins after the read, so a
    required key stays required.  Numbers come out as floats.  The kind
    of a key that holds a document is its (load, dump) pair, such as
    _MODEL: the value is built by load at pointer/name, and the config
    holds dump of it.
    """
    doc = _document(doc, pointer)
    values, config = [], {}
    for name, kind, default in keys:
        codec = isinstance(kind, tuple)
        value = _field(doc, pointer, name, "object" if codec else kind,
                       default is _REQUIRED, default)
        if flags.get(name) is not None:
            value = flags[name]
        config[name] = value
        if codec:
            load, dump = kind
            value = load(value, "%s/%s" % (pointer, name))
            config[name] = dump(value)
        elif kind == "number" and value is not None:
            config[name] = value = float(value)
        values.append(value)
    return (*values, config)


def _document(doc, pointer):
    """A config mapping, parsed first when given as JSON text."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(pointer, "config is not valid JSON (%s)" % exc)
    if not isinstance(doc, dict):
        raise ConfigError(pointer, "expected an object, got %s" % type(doc).__name__)
    return doc


def model_from_json(doc, pointer=""):
    """Build a model from a configuration mapping (or JSON text)."""
    doc = _document(doc, pointer)
    family = _field(doc, pointer, "family", "string")
    if family == "indicator":
        s0, alpha, M = (_field(doc, pointer, k, "number") for k in ("s0", "alpha", "M"))
        return indicator_model(s0, alpha, M)
    if family == "gegenbauer":
        d, u = (_field(doc, pointer, k, "number") for k in ("d", "u"))
        sigma_eps = _field(doc, pointer, "sigma_eps", "number", required=False, default=1.0)
        truncation = _field(doc, pointer, "truncation", "integer", required=False, default=40)
        return GegenbauerSpec(float(d), float(u), float(sigma_eps), truncation)
    raise ConfigError(
        pointer + "/family",
        "unknown model family %r (expected 'indicator' or 'gegenbauer')" % family,
    )


def model_to_json(model):
    """The document of an indicator model or a Gegenbauer spec."""
    return _document_of(model, "model_to_json", "indicator models and Gegenbauer specs")


def filter_from_json(doc, pointer=""):
    """Build a built-in filter from {'name': ..., 'sigma': ...}."""
    doc = _document(doc, pointer)
    name = _field(doc, pointer, "name", "string")
    sigma = _field(doc, pointer, "sigma", "number", required=False, default=1.0)
    if sigma != 1.0 and name in _WIDTHLESS:
        raise ConfigError(pointer + "/sigma", "filter %r has no width; leave sigma at 1.0" % name)
    return builtin_filter(name, sigma=float(sigma))


def filter_to_json(filt):
    """The document of a built-in filter."""
    return _document_of(filt, "filter_to_json", "built-in filters")


# The (load, dump) pairs of _read_config's model and filter keys
_MODEL = (model_from_json, model_to_json)
_FILTER = (filter_from_json, filter_to_json)


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _cell(value):
    """One artifact field: empty for None, a string as it is, %d for an
    integer and %.17g, which round-trips a float, for any other number."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "%.17g" % value


def _write_csv(dest, header, rows):
    """Write a header line, then one line of _cell fields per row, to
    dest, an open text file or a path to create."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8") as handle:
            return _write_csv(handle, header, rows)
    dest.write(",".join(header) + "\n")
    dest.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def _write_json(dest, doc):
    """Write doc as JSON with two-space indents, sorted keys and a final
    newline, to dest, an open text file or a path to create."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8") as handle:
            return _write_json(handle, doc)
    json.dump(doc, dest, indent=2, sort_keys=True)
    dest.write("\n")
