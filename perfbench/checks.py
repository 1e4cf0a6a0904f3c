"""Output checks that hold for any seed.

Exact backend: every replication succeeds, and each level's mean square,
pooled over all replications of a run, lies within ``N_SE`` standard
errors of the exact level variance J(a_j) = ``scale_second_moment``.

CLI: coefficients recomputed cell by cell with ``filter_transform`` on
the regenerated path agree with the program's output to ``REL_TOL`` of
the level's largest coefficient.  Estimates from Gegenbauer paths are
not checked: their targets assume h(0) = 1, which the Gegenbauer model
does not satisfy (ROADMAP open item 3).

Estimates: whatever the target, the solver must invert the forward map.
``roundtrip_check`` maps each (s0_hat, alpha_hat) forward again and
requires the point it was solved from, to ``REL_TOL``.
"""

import math

import numpy as np

N_SE = 4.0
REL_TOL = 1e-10


def level_moments(rows):
    """{a_j: [n, sum, sum of squares]} of delta_bar over replication rows."""
    out = {}
    for row in rows:
        acc = out.setdefault(repr(float(row["a_j"])), [0, 0.0, 0.0])
        value = float(row["delta_bar"])
        acc[0] += 1
        acc[1] += value
        acc[2] += value * value
    return out


def pool_moments(parts):
    """Add up ``level_moments`` results from several children."""
    out = {}
    for part in parts:
        for key, (n, s, ss) in part.items():
            acc = out.setdefault(key, [0, 0.0, 0.0])
            acc[0] += n
            acc[1] += s
            acc[2] += ss
    return out


def mean_square_checks(moments, targets):
    """One check per level: |mean - J(a_j)| <= N_SE standard errors."""
    checks = []
    for key in sorted(moments, key=float):
        n, s, ss = moments[key]
        target = targets[key]
        if n < 2:
            checks.append(_check("mean square a=%s" % key, False,
                                 "%d replications, need 2" % n))
            continue
        mean = s / n
        var = max(ss - n * mean * mean, 0.0) / (n - 1)
        se = math.sqrt(var / n)
        z = (mean - target) / se if se > 0 else math.inf
        checks.append(_check(
            "mean square a=%s" % key, abs(z) <= N_SE,
            "mean %.6g, J %.6g, %.2f SE over %d reps" % (mean, target, z, n),
        ))
    return checks


def cells_agree(name, expected, observed):
    """Check that two coefficient vectors agree to REL_TOL of their scale."""
    expected = np.asarray(expected, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if expected.shape != observed.shape:
        return _check(name, False, "shape %s, expected %s"
                      % (observed.shape, expected.shape))
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    worst = float(np.max(np.abs(observed - expected))) if expected.size else 0.0
    return _check(name, worst <= REL_TOL * scale,
                  "max difference %.3g of scale %.3g" % (worst, scale))


def forward_map(s0, alpha):
    """(y1, y2) = (s0^(-4 alpha), alpha s0^(-4 alpha - 2)), independently."""
    return s0 ** (-4.0 * alpha), alpha * s0 ** (-4.0 * alpha - 2.0)


def _feasible(y1, y2):
    return 0.0 < y1 < 1.0 and 0.0 < y2 < 0.5 * y1 * y1


def roundtrip_check(name, rows, c2, c3):
    """Each estimate row is consistent with the point it was solved from.

    The raw point is (delta_bar / c2, ddelta / c3); the case is "none"
    exactly when it is feasible.  forward_map(s0_hat, alpha_hat) must
    reproduce the solved point: (y1_adj, y2_adj) where the rows carry it
    (estimates CSV), which must be feasible, equal the raw point (and
    y1_raw, y2_raw) when the case is "none"; otherwise only rows whose
    case is "none" are mapped back, to their raw point.  Rows without a
    case (the last level) are skipped.
    """
    checked, worst, bad = 0, 0.0, []

    def compare(got, want):
        nonlocal worst
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w) / abs(w) if w else math.inf)

    for row in rows:
        if not row["case"]:
            continue  # the last level has no successor, so no estimate
        raw = (float(row["delta_bar"]) / c2, float(row["ddelta"]) / c3)
        if _feasible(*raw) != (row["case"] == "none"):
            bad.append("j=%s case %s" % (row.get("j"), row["case"]))
        if "y1_adj" in row:
            point = (float(row["y1_adj"]), float(row["y2_adj"]))
            compare((float(row["y1_raw"]), float(row["y2_raw"])), raw)
            if row["case"] == "none":
                compare(point, raw)
            if not _feasible(*point):
                bad.append("j=%s adjusted point infeasible" % row.get("j"))
        elif row["case"] == "none":
            point = raw
        else:
            continue
        compare(forward_map(float(row["s0_hat"]), float(row["alpha_hat"])),
                point)
        checked += 1
    detail = "worst relative error %.3g over %d rows" % (worst, checked)
    if bad:
        detail += "; %d inconsistent rows, first %s" % (len(bad), bad[0])
    return _check(name, checked > 0 and worst <= REL_TOL and not bad, detail)


def _check(name, ok, detail):
    return {"name": name, "ok": bool(ok), "detail": detail}
