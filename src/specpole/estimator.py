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
"""

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import lambert_w0

__all__ = [
    "StatisticsRow",
    "FeasiblePoint",
    "EstimateResult",
    "ADJUSTMENT_CASES",
    "first_statistic",
    "second_statistic",
    "forward_map",
    "in_feasible_region",
    "adjust",
    "solve",
    "estimate",
    "results_to_csv",
    "results_to_json",
]

ADJUSTMENT_CASES = ("none", "case1", "case2", "case3", "case4", "case5")


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
        if self.delta_bar < 0.0:
            raise ValueError("StatisticsRow: delta_bar is a mean of squares")


@dataclass(frozen=True)
class FeasiblePoint:
    """A pair strictly inside the feasible region R_y."""

    y1: float
    y2: float
    adjusted: bool = False
    case_applied: str = "none"

    def __post_init__(self):
        if not in_feasible_region(self.y1, self.y2):
            raise ValueError(
                "FeasiblePoint: (%r, %r) is not strictly inside "
                "0 < y1 < 1, 0 < y2 < y1^2/2" % (self.y1, self.y2)
            )
        if self.case_applied not in ADJUSTMENT_CASES:
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


def first_statistic(panel, j):
    """Mean of squared coefficients at level j."""
    level = panel.level_for(j)
    return float(np.mean(level.coeffs**2))


def second_statistic(delta_j, delta_j1, a_j, a_j1):
    """Difference of mean squares, normalized by inverse-square scales."""
    a_j = float(a_j)
    a_j1 = float(a_j1)
    if not (0.0 < a_j < a_j1):
        raise ValueError(
            "second_statistic: need increasing scales, got %r then %r"
            % (a_j, a_j1)
        )
    return (float(delta_j) - float(delta_j1)) / (a_j**-2.0 - a_j1**-2.0)


# ---------------------------------------------------------------------------
# Feasible region and the closed-form inverse
# ---------------------------------------------------------------------------


def in_feasible_region(y1, y2):
    """Strict membership test for R_y."""
    return 0.0 < y1 < 1.0 and 0.0 < y2 < 0.5 * y1 * y1


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
    return max(1e-12, 1e-9 * abs(value))


def _into_interior(y1, y2):
    """Move exact-boundary hits strictly inside, toward (y1, y1^2/4)."""
    if y1 >= 1.0:
        y1 = 1.0 - _nudge(1.0)
    if y1 <= 0.0:
        y1 = _nudge(y1)
    cap = 0.5 * y1 * y1
    if y2 >= cap:
        y2 = cap - min(_nudge(cap), 0.5 * cap)
    elif y2 <= 0.0:
        y2 = min(_nudge(y2), 0.5 * cap)
    return y1, y2


def adjust(y1_raw, y2_raw):
    """Reflect a raw statistic pair into the open feasible region.

    Feasible inputs pass through unchanged.  Outside the region, one of
    five reflection rules applies, keyed on which constraints fail; the
    rules reflect across the violated boundary without crossing the
    opposite one.  When the first coordinate is zero or negative (which
    no reflection rule covers), it is folded to its absolute value, or
    to 1/2 for an exact zero, before dispatch.
    """
    y1 = float(y1_raw)
    y2 = float(y2_raw)
    folded = False
    if y1 <= 0.0:
        y1 = 0.5 if y1 == 0.0 else -y1
        folded = True
    if not folded and in_feasible_region(y1, y2):
        return FeasiblePoint(y1=y1, y2=y2, adjusted=False, case_applied="none")

    case = "none"
    if y1 < 1.0:
        if y2 >= 0.5 * y1 * y1:
            case = "case1"
            y2 = max(y1 * y1 - y2, 0.25 * y1 * y1)
        elif y2 <= 0.0:
            case = "case2"
            y2 = min(-y2, 0.25 * y1 * y1)
    else:
        if y2 <= 0.0:
            case = "case5"
            y2 = min(-y2, 0.25)
            y1 = max(2.0 - y1, 0.5 * (1.0 + math.sqrt(2.0 * y2)))
        elif y2 >= 0.5:
            case = "case4"
            y2 = max(1.0 - y2, 0.25)
            y1 = max(2.0 - y1, 0.5 * (1.0 + math.sqrt(2.0 * y2)))
        else:
            case = "case3"
            y1 = max(2.0 - y1, 0.5 * (1.0 + math.sqrt(2.0 * y2)))

    moved = case != "none" or folded
    if not in_feasible_region(y1, y2):
        y1, y2 = _into_interior(y1, y2)
        moved = True
    return FeasiblePoint(y1=y1, y2=y2, adjusted=moved, case_applied=case)


def solve(point):
    """Invert the forward map on a strictly feasible point.

    The composite parameter q = y2/y1 and the identity
    w exp(w) = (y1/y2) log(y1^{-1/2}) pin the pole squared at exp(w);
    the argument is positive everywhere on R_y, so the principal branch
    applies throughout and the solution is unique.  ``lambert_w0`` is
    accurate over the whole float range, so a tiny y2 (an argument near
    1e199 for y2 = 1e-200) still inverts.
    """
    if not in_feasible_region(point.y1, point.y2):
        raise ValueError("solve: point must lie strictly inside R_y")
    arg = -0.5 * (point.y1 / point.y2) * math.log(point.y1)
    w = float(lambert_w0(arg))
    s0 = math.exp(0.5 * w)
    alpha = (point.y2 / point.y1) * math.exp(w)
    return s0, alpha


# ---------------------------------------------------------------------------
# Panel-level driver
# ---------------------------------------------------------------------------


def estimate(panel, filt):
    """Run the full pipeline on every scale with a successor.

    Returns one result per consecutive level pair, in panel order.  The
    trajectory over j is informative in itself; the final estimate is
    conventionally the largest-j row.  Levels whose mean square is
    exactly zero cannot be normalized and are skipped with a warning.
    """
    if len(panel.levels) < 2:
        raise ValueError("estimate: panel needs at least two levels")
    c2 = filt.c2
    c3 = filt.c3
    results = []
    for level, nxt in zip(panel.levels[:-1], panel.levels[1:]):
        delta_bar = float(np.mean(level.coeffs**2))
        delta_next = float(np.mean(nxt.coeffs**2))
        if delta_bar == 0.0:
            warnings.warn(
                "estimate: level %d has zero mean square; skipped" % level.j
            )
            continue
        ddelta = second_statistic(delta_bar, delta_next, level.a_j, nxt.a_j)
        y1_raw = delta_bar / c2
        y2_raw = ddelta / c3
        row = StatisticsRow(
            j=level.j,
            a_j=level.a_j,
            delta_bar=delta_bar,
            delta_bar_next=delta_next,
            ddelta=ddelta,
            y1_raw=y1_raw,
            y2_raw=y2_raw,
        )
        point = adjust(y1_raw, y2_raw)
        s0_hat, alpha_hat = solve(point)
        results.append(
            EstimateResult(
                j=level.j,
                s0_hat=s0_hat,
                alpha_hat=alpha_hat,
                q_j=point.y2 / point.y1,
                point=point,
                row=row,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_CSV_COLUMNS = (
    "j",
    "a_j",
    "delta_bar",
    "ddelta",
    "y1_raw",
    "y2_raw",
    "y1_adj",
    "y2_adj",
    "case",
    "s0_hat",
    "alpha_hat",
)


def _result_record(res):
    return {
        "j": res.j,
        "a_j": res.row.a_j,
        "delta_bar": res.row.delta_bar,
        "delta_bar_next": res.row.delta_bar_next,
        "ddelta": res.row.ddelta,
        "y1_raw": res.row.y1_raw,
        "y2_raw": res.row.y2_raw,
        "y1_adj": res.point.y1,
        "y2_adj": res.point.y2,
        "case": res.point.case_applied,
        "adjusted": res.point.adjusted,
        "q_j": res.q_j,
        "s0_hat": res.s0_hat,
        "alpha_hat": res.alpha_hat,
    }


def results_to_json(results):
    """Plain-dict form of the results, ready for json.dump."""
    return [_result_record(r) for r in results]


def results_to_csv(results, path):
    """Write one CSV row per estimate, floats at full precision."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_COLUMNS)
        for res in results:
            record = _result_record(res)
            writer.writerow(
                [
                    record["j"],
                    "%.17g" % record["a_j"],
                    "%.17g" % record["delta_bar"],
                    "%.17g" % record["ddelta"],
                    "%.17g" % record["y1_raw"],
                    "%.17g" % record["y2_raw"],
                    "%.17g" % record["y1_adj"],
                    "%.17g" % record["y2_adj"],
                    record["case"],
                    "%.17g" % record["s0_hat"],
                    "%.17g" % record["alpha_hat"],
                ]
            )
