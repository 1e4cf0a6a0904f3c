"""Parameter recovery from coefficient panels.

The estimation pipeline runs in three steps.  Per-scale mean squares
and their normalized across-scale differences form a pair of raw
statistics.  Those land in (or near) an open feasible region

    R_y = { (y1, y2) : 0 < y1 < 1, 0 < y2 < y1^2 / 2 },

and points outside are reflected back in by a five-case adjustment.
The adjusted pair is then inverted in closed form through the principal
Lambert W branch, yielding the pole location and the memory exponent.

The reflection rules keep feasible inputs untouched, are idempotent,
and are total: any real pair comes out strictly inside the region, with
exact-boundary hits nudged inward by a relative 1e-9 (absolute floor
1e-12).  All operations are pure functions.

Every step works on arrays as well as on scalars: a batch of R
replications, whose levels hold R mean squares each, gives each
statistic and estimate as an array over them, and a scalar is the
one-element case of the same code.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import _write_csv
from .specfun import lambert_w0

__all__ = [
    "StatisticsRow",
    "FeasiblePoint",
    "EstimateResult",
    "ADJUSTMENT_CASES",
    "second_statistic",
    "forward_map",
    "in_feasible_region",
    "adjust",
    "solve",
    "estimate",
    "results_to_csv",
]

ADJUSTMENT_CASES = ("none", "case1", "case2", "case3", "case4", "case5")
_CASE_NAMES = np.array(ADJUSTMENT_CASES)
# Index into ADJUSTMENT_CASES by 4 (y1 < 1) + 2 (y2 at or above its
# upper bound) + (y2 <= 0, and not above it).
_CASE_OF = np.array([3, 5, 4, 0, 0, 2, 1, 0])


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatisticsRow:
    """Raw statistics for one scale and its successor."""

    j: int
    a_j: float
    delta_bar: float
    delta_bar_next: float
    ddelta: float
    y1_raw: float
    y2_raw: float

    def __post_init__(self):
        if np.any(np.asarray(self.delta_bar) < 0.0):
            raise ValueError("StatisticsRow: delta_bar is a mean of squares")


@dataclass(frozen=True)
class FeasiblePoint:
    """A pair strictly inside the feasible region R_y (or arrays of them)."""

    y1: float
    y2: float
    adjusted: bool = False
    case_applied: str = "none"

    def __post_init__(self):
        outside = ~np.asarray(in_feasible_region(self.y1, self.y2))
        if outside.any():
            y1, y2 = np.broadcast_arrays(self.y1, self.y2)
            k = np.flatnonzero(outside)[0]
            raise ValueError(
                "FeasiblePoint: (%r, %r) is not strictly inside "
                "0 < y1 < 1, 0 < y2 < y1^2/2" % (y1.flat[k].item(), y2.flat[k].item())
            )
        if not set(np.ravel(self.case_applied).tolist()) <= set(ADJUSTMENT_CASES):
            raise ValueError(
                "FeasiblePoint: unknown case %r" % (self.case_applied,)
            )


@dataclass(frozen=True)
class EstimateResult:
    """Closed-form estimates at one scale, with their inputs."""

    j: int
    s0_hat: float
    alpha_hat: float
    q_j: float
    point: FeasiblePoint
    row: StatisticsRow


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def _value(x):
    """A Python scalar for a 0-d result, the array itself otherwise."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def second_statistic(delta_j, delta_j1, a_j, a_j1):
    """Difference of mean squares, normalized by inverse-square scales.

    The mean squares may be arrays; the scales are two numbers.
    """
    a_j = float(a_j)
    a_j1 = float(a_j1)
    if not (0.0 < a_j < a_j1):
        raise ValueError(
            "second_statistic: need increasing scales, got %r then %r"
            % (a_j, a_j1)
        )
    return _value(np.subtract(delta_j, delta_j1) / (a_j**-2.0 - a_j1**-2.0))


# ---------------------------------------------------------------------------
# Feasible region and the closed-form inverse
# ---------------------------------------------------------------------------


def in_feasible_region(y1, y2):
    """Strict membership test for R_y, element by element on arrays."""
    with np.errstate(over="ignore"):
        return (0.0 < y1) & (y1 < 1.0) & (0.0 < y2) & (y2 < 0.5 * y1 * y1)


def forward_map(s0, alpha):
    """Map parameters to the statistic limits (y1, y2)."""
    s0 = float(s0)
    alpha = float(alpha)
    if not (s0 > 1.0 and math.isfinite(s0)):
        raise ValueError("forward_map: pole location must exceed 1")
    if not 0.0 < alpha < 0.5:
        raise ValueError("forward_map: memory exponent must lie in (0, 1/2)")
    y1 = s0 ** (-4.0 * alpha)
    y2 = alpha * s0 ** (-4.0 * alpha - 2.0)
    return y1, y2


def _nudge(value):
    return np.maximum(1e-12, 1e-9 * np.abs(value))


def _into_interior(y1, y2):
    """Move exact-boundary hits strictly inside, toward (y1, y1^2/4)."""
    y1 = np.where(y1 >= 1.0, 1.0 - _nudge(1.0), y1)
    y1 = np.where(y1 <= 0.0, _nudge(y1), y1)
    cap = 0.5 * y1 * y1
    y2 = np.where(y2 >= cap, cap - np.minimum(_nudge(cap), 0.5 * cap),
                  np.where(y2 <= 0.0, np.minimum(_nudge(y2), 0.5 * cap), y2))
    return y1, y2


def adjust(y1_raw, y2_raw):
    """Reflect a raw statistic pair into the open feasible region.

    Feasible inputs pass through unchanged.  Outside the region, one of
    five reflection rules applies, keyed on which constraints fail; the
    rules reflect across the violated boundary without crossing the
    opposite one.  When the first coordinate is zero or negative (which
    no reflection rule covers), it is folded to its absolute value, or
    to 1/2 for an exact zero, before dispatch.  Arrays are adjusted
    element by element into a point of arrays.
    """
    y1 = np.asarray(y1_raw, dtype=float)
    y2 = np.asarray(y2_raw, dtype=float)
    folded = y1 <= 0.0
    y1 = np.where(y1 == 0.0, 0.5, np.abs(y1))
    # every branch is evaluated on every element; the ones not taken
    # may overflow or take square roots of negatives
    with np.errstate(over="ignore", invalid="ignore"):
        # the upper bound on y2 is r/2: y1^2/2 below y1 = 1, 1/2 above
        below = y1 < 1.0
        r = np.fmin(y1 * y1, 1.0)
        high = y2 >= 0.5 * r
        low = (y2 <= 0.0) & ~high
        case = _CASE_OF[4 * below + 2 * high + low]
        # reflect across the violated bound, no further than r/4
        y2 = np.where(high, np.maximum(r - y2, 0.25 * r),
                      np.where(low, np.minimum(-y2, 0.25 * r), y2))
        y1 = np.where(below, y1, np.maximum(2.0 - y1, 0.5 * (1.0 + np.sqrt(2.0 * y2))))
    outside = ~in_feasible_region(y1, y2)
    if outside.any():
        y1, y2 = _into_interior(y1, y2)  # a no-op on the points inside
    return FeasiblePoint(
        y1=_value(y1),
        y2=_value(y2),
        adjusted=_value((case != 0) | folded | outside),
        case_applied=_value(_CASE_NAMES[case]),
    )


def solve(point):
    """Invert the forward map on a strictly feasible point.

    The composite parameter q = y2/y1 and the identity
    w exp(w) = (y1/y2) log(y1^{-1/2}) pin the pole squared at exp(w);
    the argument is positive everywhere on R_y, so the principal branch
    applies throughout and the solution is unique.  ``lambert_w0`` is
    accurate over the whole float range, so a tiny y2 (an argument near
    1e199 for y2 = 1e-200) still inverts.  A point of arrays gives
    arrays.
    """
    y1 = np.asarray(point.y1, dtype=float)
    y2 = np.asarray(point.y2, dtype=float)
    if not np.all(in_feasible_region(y1, y2)):
        raise ValueError("solve: point must lie strictly inside R_y")
    w = lambert_w0(-0.5 * (y1 / y2) * np.log(y1))
    return _value(np.exp(0.5 * w)), _value((y2 / y1) * np.exp(w))


# ---------------------------------------------------------------------------
# Panel-level driver
# ---------------------------------------------------------------------------


def estimate(panel, filt):
    """Run the full pipeline on every scale with a successor.

    Returns one result per consecutive level pair, in panel order.  The
    trajectory over j is informative in itself; the final estimate is
    conventionally the largest-j row.  A level enters only through its
    mean square delta_bar_j, ``mean_square``.  Levels whose mean square
    is exactly zero cannot be normalized and are skipped with a warning.
    On a batch of R replications, whose levels each hold R mean squares,
    every field but j is an array over them, and a zero mean square
    raises ValueError instead, since a level cannot be skipped for some
    rows only.
    """
    levels = panel.levels
    if len(levels) < 2:
        raise ValueError("estimate: panel needs at least two levels")
    delta = [lv.mean_square for lv in levels]
    pairs = []
    for i, level in enumerate(levels[:-1]):
        if not np.any(delta[i] == 0.0):
            pairs.append(i)
        elif np.ndim(delta[i]):
            raise ValueError(
                "estimate: level %d has zero mean square in some replication"
                % level.j
            )
        else:
            warnings.warn(
                "estimate: level %d has zero mean square; skipped" % level.j
            )
    if not pairs:
        return []
    delta_bar = np.array([delta[i] for i in pairs])
    delta_next = np.array([delta[i + 1] for i in pairs])
    ddelta = np.array([
        second_statistic(delta[i], delta[i + 1], levels[i].a_j, levels[i + 1].a_j)
        for i in pairs
    ])
    y1_raw = delta_bar / filt.c2
    y2_raw = ddelta / filt.c3
    point = adjust(y1_raw, y2_raw)
    s0_hat, alpha_hat = solve(point)
    q_j = point.y2 / point.y1
    results = []
    for k, i in enumerate(pairs):
        def at(values):
            return _value(values[k])

        results.append(
            EstimateResult(
                j=levels[i].j,
                s0_hat=at(s0_hat),
                alpha_hat=at(alpha_hat),
                q_j=at(q_j),
                point=FeasiblePoint(at(point.y1), at(point.y2), at(point.adjusted),
                                    at(point.case_applied)),
                row=StatisticsRow(levels[i].j, levels[i].a_j, at(delta_bar),
                                  at(delta_next), at(ddelta), at(y1_raw), at(y2_raw)),
            )
        )
    return results


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# The columns of estimates.csv, in the order results_to_csv writes them
_CSV_COLUMNS = ("j", "a_j", "delta_bar", "ddelta", "y1_raw", "y2_raw",
                "y1_adj", "y2_adj", "case", "s0_hat", "alpha_hat")


def results_to_csv(results, path):
    """Write one CSV row per estimate, floats at full precision."""
    _write_csv(path, _CSV_COLUMNS, (
        (r.j, r.row.a_j, r.row.delta_bar, r.row.ddelta, r.row.y1_raw, r.row.y2_raw,
         r.point.y1, r.point.y2, r.point.case_applied, r.s0_hat, r.alpha_hat)
        for r in results))
