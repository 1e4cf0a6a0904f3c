"""Filter transforms of sampled paths and scale schedules.

The transform of a path X at scale a and shift b is the Riemann sum

    d_x(a, b) ~ (dt / sqrt(a)) * sum_i psi((t_i - b) / a) * X(t_i)

over the samples inside the filter's effective support.  Midpoint-style
summation is deliberate: paths are only known at grid points and are
rough, so higher-order rules would not buy accuracy.

A scale schedule fixes the ladder {a_j} together with per-scale shift
spacings gamma_j and coefficient counts m_j; each level's block radius
r_j = a_j^(-5/2) follows from its scale.  Shifts
follow the arithmetic rule b_jk = k * gamma_j, k = 1..m_j, which meets
the required separation |b_jk1 - b_jk2| >= |k1 - k2| * gamma_j with
equality.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, _attach, _document, _document_of, _field
from .simulate import _ROW_BLOCK, CoefficientPanel, PanelLevel

# Width, in filter time units, of the linear taper that closes the
# summation window.  A hard cutoff makes the sum's edge contribution
# jump erratically as the grid shifts under refinement; the taper turns
# it into a smooth second-order term, so halving dt shrinks the error
# predictably.  The mass it adds sits beyond the effective support and
# is below the support threshold by construction.  Half a unit keeps
# the outer taper edge off the integer lattice, where the slowly
# decaying filters have their sign changes.
_TAPER_WIDTH = 0.5

# Samples per product of the transform kernel (cells x window columns),
# so that memory stays bounded for single wide windows; long panels are
# bounded by taking simulate._ROW_BLOCK cells at a time.
_CHUNK = 1 << 16

# Resolution, as a fraction of dt, at which two cells' window offsets
# count as equal.  It sits above the rounding noise of the offsets for
# shifts and path origins within about 1e6 grid steps of zero, and far
# below the spacing of distinct offsets on any practical grid.
_OFFSET_QUANTUM = 2.0**-30

__all__ = [
    "ScheduleLevel",
    "ScaleSchedule",
    "linear_schedule",
    "geometric_schedule",
    "filter_transform",
    "panel_from_path",
    "required_extent",
    "lattice_window",
    "schedule_from_json",
    "schedule_to_json",
]


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleLevel:
    """One rung of the scale ladder; its block radius r_j is a_j^(-5/2)."""

    j: int
    a_j: float
    gamma_j: float
    m_j: int

    @property
    def r_j(self):
        return self.a_j**-2.5

    def shifts(self, lo=0, hi=None):
        """Shifts b_jk = k * gamma_j for k = lo + 1 .. hi, by default all
        m_j; built in one array, scaled in place."""
        out = np.arange(lo + 1, (self.m_j if hi is None else hi) + 1, dtype=float)
        out *= self.gamma_j
        return out


@dataclass(frozen=True, eq=False)
class ScaleSchedule:
    """Strictly increasing scales with per-scale shift grids, one level
    per integer index j; ``doc`` is the builder's rule document, None for
    a schedule built here."""

    levels: tuple
    doc = None

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("ScaleSchedule: need at least one level")
        seen = set()
        for lv in self.levels:
            if not _is_integer(lv.j):
                raise ValueError("ScaleSchedule: level index j = %r is not an integer" % (lv.j,))
            if lv.j in seen:
                raise ValueError("ScaleSchedule: level index j = %d repeats" % lv.j)
            seen.add(lv.j)
            if not (_is_integer(lv.m_j) and lv.m_j >= 1):
                raise ValueError("ScaleSchedule: m_j = %r must be an integer >= 1 at level %d"
                                 % (lv.m_j, lv.j))
            for name in ("a_j", "gamma_j"):
                value = getattr(lv, name)
                if not (0 < value < math.inf):
                    raise ValueError("ScaleSchedule: %s = %r must be finite and positive "
                                     "at level %d" % (name, value, lv.j))
        if not np.all(np.diff([lv.a_j for lv in self.levels]) > 0):
            raise ValueError("ScaleSchedule: scales must be strictly increasing")


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def linear_schedule(j_max, kappa=3.0):
    """Ladder a_j = j with unit shift spacing and m_j = ceil(j^kappa).

    kappa = 9 reproduces the heavy reference configuration whose largest
    level holds about 1e7 coefficients; the default kappa = 3 keeps the
    same shape at desk scale.
    """
    j_max = int(j_max)
    if j_max < 2:
        raise ValueError("linear_schedule: j_max must be >= 2")
    kappa = float(kappa)
    levels = tuple(ScheduleLevel(j=j, a_j=float(j), gamma_j=1.0, m_j=int(math.ceil(j**kappa)))
                   for j in range(1, j_max + 1))
    doc = {"rule": "linear", "j_max": j_max, "kappa": kappa}
    return _attach(ScaleSchedule(levels), doc)


def geometric_schedule(j_max, a0, rho, kappa, m_cap=None):
    """Ladder a_j = a0 * rho^j with gamma_j = a_j and m_j = ceil(a_j^kappa).

    Tying the shift spacing to the scale keeps the variance factor
    (a_j / gamma_j)^2 bounded.  ``m_cap``, if given, clips every m_j, so
    large ladders stay feasible for exact-covariance factorization.
    Summability of the consistency argument needs kappa > 5; smaller
    kappa is allowed for empirical work but flagged.
    """
    j_max = int(j_max)
    if j_max < 1:
        raise ValueError("geometric_schedule: j_max must be >= 1")
    a0 = float(a0)
    rho = float(rho)
    kappa = float(kappa)
    if not (a0 > 0):
        raise ValueError("geometric_schedule: a0 must be positive")
    if not (rho > 1.0):
        raise ValueError("geometric_schedule: rho must exceed 1")
    if kappa <= 5.0:
        warnings.warn(
            "geometric_schedule: kappa = %g <= 5 leaves sum 1/(r_j^2 m_j) "
            "divergent; fine empirically, outside the consistency theory"
            % kappa
        )
    levels = []
    for j in range(1, j_max + 1):
        a_j = a0 * rho**j
        m_j = int(math.ceil(a_j**kappa))
        if m_cap is not None:
            m_j = min(m_j, int(m_cap))
        levels.append(ScheduleLevel(j=j, a_j=a_j, gamma_j=a_j, m_j=m_j))
    doc = {
        "rule": "geometric",
        "j_max": j_max,
        "a0": a0,
        "rho": rho,
        "kappa": kappa,
    }
    if m_cap is not None:
        doc["m_cap"] = int(m_cap)
    return _attach(ScaleSchedule(levels), doc)


def schedule_to_json(schedule):
    """The rule document of a schedule built by a rule."""
    return _document_of(schedule, "schedule_to_json",
                        "rule-built schedules (linear_schedule, geometric_schedule)")


def schedule_from_json(doc, pointer=""):
    """Build a schedule from its constructor document (or JSON text)."""
    doc = _document(doc, pointer)
    rule = _field(doc, pointer, "rule", "string")
    if rule == "linear":
        j_max = _field(doc, pointer, "j_max", "integer")
        kappa = _field(doc, pointer, "kappa", "number", required=False, default=3.0)
        return linear_schedule(j_max, kappa=kappa)
    if rule == "geometric":
        j_max = _field(doc, pointer, "j_max", "integer")
        a0, rho, kappa = (_field(doc, pointer, k, "number") for k in ("a0", "rho", "kappa"))
        m_cap = _field(doc, pointer, "m_cap", "integer", required=False)
        return geometric_schedule(j_max, a0, rho, kappa, m_cap=m_cap)
    raise ConfigError(
        pointer + "/rule",
        "unknown rule %r (expected 'linear' or 'geometric')" % rule,
    )


# The (load, dump) pair of model._read_config's schedule key
_SCHEDULE = (schedule_from_json, schedule_to_json)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def required_extent(filt, a, b_lo, b_hi):
    """Path extent needed to transform shifts in [b_lo, b_hi] at scale a."""
    if filt.psi is None or filt.time_support is None:
        raise ValueError(
            "filter_transform: filter %r has no time-domain form; use the "
            "exact-gaussian back-end instead" % filt.name
        )
    radius = a * (filt.time_support + _TAPER_WIDTH)
    return b_lo - radius, b_hi + radius


def lattice_window(filt, schedule):
    """Integer path bounds covering every level of a schedule."""
    ends = [required_extent(filt, lv.a_j, lv.gamma_j, lv.gamma_j * lv.m_j)
            for lv in schedule.levels]
    return math.floor(min(e[0] for e in ends)) - 1, math.ceil(max(e[1] for e in ends)) + 1


def _uncovered(path, filt, a, b_lo, b_hi):
    """Extent that shifts b_lo..b_hi need at scale a, or None if covered."""
    lo, hi = required_extent(filt, a, b_lo, b_hi)
    slack = 1e-9 * path.dt
    return (lo, hi) if path.t0 > lo + slack or path.t_end < hi - slack else None


def _changes(key):
    """Where a key changes between neighbouring entries."""
    return key[1:] != key[:-1]


def _transform_level(path, filt, a, shifts):
    """Riemann sums at every shift of one scale, in bounded blocks.

    Each cell sums over its own window of samples.  The shifts are taken
    _ROW_BLOCK cells at a time; within such a block, cells whose
    windows have the same grid offset and length share one evaluation of
    the taper and psi, and each product holds about _CHUNK samples at
    most.  The block's indices, offsets, widths and grouping order, like
    its products, stay block-sized: beside the output, the kernel holds
    under 1 MB however many shifts it is given.  Offsets are compared in
    units of _OFFSET_QUANTUM * dt, so that float rounding of
    t0 + dt * i0 - b does not split one offset into many.
    """
    radius = a * (filt.time_support + _TAPER_WIDTH)
    out = np.zeros(shifts.size)
    for first in range(0, shifts.size, _ROW_BLOCK):
        b = shifts[first : first + _ROW_BLOCK]
        i0 = np.ceil((b - radius - path.t0) / path.dt - 1e-12).astype(np.int64)
        i1 = np.floor((b + radius - path.t0) / path.dt + 1e-12).astype(np.int64)
        np.maximum(i0, 0, out=i0)
        np.minimum(i1, path.values.size - 1, out=i1)
        offsets = np.rint((path.t0 + path.dt * i0 - b) / (_OFFSET_QUANTUM * path.dt))
        # the block's cells by (offset, width), each group in block order;
        # a group starts where either key changes, one key reordered at a time
        widths = i1 - i0 + 1
        order = np.lexsort((widths, offsets))
        edges = _changes(offsets[order])
        edges |= _changes(widths[order])
        starts = np.flatnonzero(edges) + 1
        for cells in np.split(order, starts):
            k = cells[0]
            width = widths[k]
            windows = np.lib.stride_tricks.sliding_window_view(path.values, width)
            for c0 in range(0, width, _CHUNK):
                i = np.arange(i0[k] + c0, min(i1[k] + 1, i0[k] + c0 + _CHUNK))
                u = (path.t0 + path.dt * i - b[k]) / a
                taper = np.clip(filt.time_support + _TAPER_WIDTH - np.abs(u), 0.0, _TAPER_WIDTH)
                weights = filt.psi(u) * (taper / _TAPER_WIDTH)
                for rows in np.array_split(cells, math.ceil(cells.size * u.size / _CHUNK)):
                    out[first + rows] += windows[i0[rows], c0 : c0 + u.size] @ weights
    out *= path.dt / math.sqrt(a)
    return out


def filter_transform(path, filt, a, b):
    """Riemann approximation of the transform at one (scale, shift).

    The sum runs over samples where the scaled filter is above its
    effective-support threshold; the path must cover that window.  This
    is the single-shift case of the kernel behind panel_from_path.
    """
    a = float(a)
    b = float(b)
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("filter_transform: scale must be a positive real")
    need = _uncovered(path, filt, a, b, b)
    if need is not None:
        raise ValueError(
            "filter_transform: path covers [%g, %g] but (a=%g, b=%g) "
            "requires [%g, %g]" % ((path.t0, path.t_end, a, b) + need)
        )
    return float(_transform_level(path, filt, a, np.array([b]))[0])


def _check_coverage(path, filt, schedule):
    """Raise ValueError naming the first level of the schedule whose
    shifts the path does not cover."""
    for lv in schedule.levels:
        need = _uncovered(path, filt, lv.a_j, lv.gamma_j, lv.gamma_j * lv.m_j)
        if need is not None:
            raise ValueError(
                "panel_from_path: level %d needs path extent [%g, %g] but "
                "the path covers [%g, %g]" % ((lv.j,) + need + (path.t0, path.t_end))
            )


def _level_blocks(path, filt, schedule):
    """(level, k0, shifts, coeffs) of every level's cells k0 + 1 .. k0 +
    _ROW_BLOCK, level by level, on a path that covers the schedule: a
    block is computed only once the one before has been taken."""
    for lv in schedule.levels:
        for k0 in range(0, lv.m_j, _ROW_BLOCK):
            shifts = lv.shifts(k0, min(k0 + _ROW_BLOCK, lv.m_j))
            yield lv, k0, shifts, _transform_level(path, filt, lv.a_j, shifts)


def panel_from_path(path, filt, schedule):
    """Transform a path into a coefficient panel along a schedule.

    Coverage is checked for every level before any work happens, so a
    failure names the offending level instead of wasting a partial pass.
    """
    _check_coverage(path, filt, schedule)
    levels = []
    for lv in schedule.levels:
        shifts = lv.shifts()
        levels.append(PanelLevel(j=lv.j, a_j=lv.a_j, shifts=shifts,
                                 coeffs=_transform_level(path, filt, lv.a_j, shifts)))
    return CoefficientPanel(levels=tuple(levels), provenance="path-transform",
                            seed=path.seed)
