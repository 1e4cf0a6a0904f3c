"""Special functions and quadrature shared by the whole package.

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
* ``_filon_column``: every integral the package takes, by one Filon
  rule to one tolerance: each covariance on a finite band at all lags,
  a pole subtracted in closed form, and each filter constant as the
  column of lag 0.  It raises ``QuadratureConvergenceError`` when the
  rule misses its tolerance.

All functions are pure and keep no module state, so they are safe to
call concurrently.
"""

import math

import numpy as np

__all__ = [
    "QuadratureConvergenceError",
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
# Filon rule for covariance columns and filter constants
# ---------------------------------------------------------------------------


class QuadratureConvergenceError(ArithmeticError):
    """Raised when the finest Filon rule still misses the tolerance.

    Carries the best available estimate and its error bound so callers
    can decide whether the partial answer is still usable.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = float(estimate)
        self.error_bound = float(error_bound)


# Cells of the band in a column's first Filon rule (a narrower band
# starts at the cap), and of [0, top] in its last
_DCT_MIN_NODES = 1 << 14
_DCT_MAX_NODES = 1 << 18
# Error bound every column entry c meets: _COLUMN_TOL * max(1, |c|)
_COLUMN_TOL = 1e-10


def _power_exp(beta, w, length):
    """int_0^L x^beta e^(i w x) dx for beta > -1, at each w >= 0.

    With s = beta + 1 and z = w L, L^s (-iz)^-s gamma(s, -iz): its series
    L^s sum_k (iz)^k / (k! (k + s)) below z = 4, else L^s (Gamma(s)
    (-iz)^-s - e^(iz) K), K the continued fraction of Gamma(s, -iz)
    e^(-iz) (-iz)^-s evaluated from its 60th term up (30 reach 4e-14 at
    z = 4); within 3e-15 of mpmath.
    """
    s, z = beta + 1.0, np.asarray(w, dtype=float) * length
    out, small = np.empty(z.shape, dtype=complex), z < 4.0  # 40 terms reach 1e-24
    iz, term = 1j * z[small], 1.0
    out[small] = 1.0 / s
    for k in range(1, 40):
        term = term * iz / k
        out[small] += term / (k + s)
    z = z[~small]
    tail = 0.0
    for i in range(60, 0, -1):
        tail = i * (s - i) / (2 * i + 1.0 - s - 1j * z + tail)
    frac = 1.0 / (1.0 - s - 1j * z + tail)
    out[~small] = math.gamma(s) * z**-s * np.exp(0.5j * math.pi * s) - np.exp(1j * z) * frac
    return length**s * out


def _pole_transforms(p, w, s0, upper):
    """int_0^upper cos(w lam) |x|^-p dlam and the same of x |x|^-p,
    x = lam - s0, at each w >= 0 for 0 < s0 <= upper: by _power_exp on
    x >= 0 and, conjugated, on x <= 0."""
    phase = np.exp(1j * np.asarray(w, dtype=float) * s0)
    return tuple((phase * (_power_exp(b, w, upper - s0) + sign * _power_exp(b, w, s0).conj())).real
                 for b, sign in ((-p, 1.0), (1.0 - p, -1.0)))


def _dct1(g):
    """Unnormalised DCT-I of g: the real FFT of its even extension."""
    return np.fft.rfft(np.concatenate([g, g[-2:0:-1]])).real


def _cosine_sums(g, w, rules):
    """2 sum_i g_i cos(w_k i) - g_0 for g[::1], g[::2], ...
    g[::2^(rules - 1)] at the frequencies w (radians per node of g),
    summed directly in blocks of 2^21 cosines: the DCT-I of each, zeros
    after g's last node."""
    out, block = np.empty((rules, w.size)), max(1, (1 << 21) // g.size)
    for k in range(0, w.size, block):
        cos = np.cos(np.outer(w[k:k + block], np.arange(g.size)))
        for r in range(rules):
            out[r, k:k + block] = 2.0 * (cos[:, ::1 << r] @ g[::1 << r]) - g[0]
    return out


def _filon_cells(w, x0, x1, g0, g1):
    """int_x0^x1 cos(w lam) L(lam) dlam, L the line from (x0, g0) to
    (x1, g1), in closed form: frequencies w along rows, cells down
    columns."""
    c, u = 0.5 * (x0 + x1) * w, 0.5 * (x1 - x0) * w
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(u == 0.0, 0.0, (np.sin(u) - u * np.cos(u)) / (u * u))
    return (x1 - x0) * (0.5 * (g0 + g1) * np.cos(c) * np.sinc(u / math.pi)
                        - 0.5 * (g1 - g0) * np.sin(c) * slope)


def _filon_column(f, upper, knots, pole, gamma, m, scale):
    """scale * int_0^upper cos(k gamma lam) g(lam) dlam for k < m, by one
    Filon rule for all lags: g = f, or f(lam) |lam - s0|^-p for a pole
    = (s0, p), 0 < s0 <= upper, whose two leading terms (f(s0) + f'(s0)
    (lam - s0)) |lam - s0|^-p, f' a central difference, are subtracted
    and added back in closed form (_pole_transforms; Navot 1961).

    The band is padded with zeros to top = P pi / gamma, P = ceil(gamma
    upper / pi) (top = upper if that is an integer within 1e-12; gamma =
    0 puts every lag at 0).  On n cells of [0, top], cos(k gamma lam) at
    node i is cos(pi k P i / n), so the trapezoid sums of all lags are
    the entries k P mod 2n, reflected into [0, n], of one DCT-I; a band
    that n = _DCT_MAX_NODES would give fewer than 2^10 cells (P < 2^-8)
    is padded to top = 2 upper instead, and its sums are taken directly
    (_cosine_sums).  Times sinc^2(k gamma h / 2), h = top / n, each is
    the Filon rule: the linear interpolant against the cosine in closed
    form (Filon 1928; Iserles & Norsett 2005).  At a jump of g among the
    knots (Shannon mother's pi/a, a padded band's top) closed-form cells
    on its one-sided limits end at the jump; a kink gets none.

    The n cells also give the rules S on n/2, n/4 and n/8, and the
    column is R_n = (4 S_n - S_n/2) / 3.  max(|R_n - R_n/2|, |R_n/2 -
    R_n/4| / 4) bounds its error with a margin of 3 while the error of R
    shrinks 4x or more per doubling, as it does at a kink.  n starts
    where the band holds _DCT_MIN_NODES cells, at most at _DCT_MAX_NODES,
    and doubles until every lag meets _COLUMN_TOL * max(1, |entry|); a
    miss at _DCT_MAX_NODES raises QuadratureConvergenceError, and a node
    where g is not finite raises ValueError.

    A column of lag 0 alone (gamma = 0, or m = 1) is the DCT-I's entry 0,
    the plain sum g_0 + 2 sum g_i + g_n, taken without an FFT.  There f
    may return several integrands as the rows of one array, each row a
    column of its own from one evaluation per node.
    """
    lags = np.arange(m) if gamma else np.zeros(m, dtype=int)
    gamma = gamma or math.pi / upper
    p = gamma * upper / math.pi
    steps, top = round(p), upper
    direct = p * _DCT_MAX_NODES < 1 << 10
    if direct or steps < 1 or abs(p - steps) > 1e-12 * p:
        steps = 2.0 * p if direct else math.ceil(p)
        top, knots = steps * math.pi / gamma, list(knots) + [upper]
    n = min(1 << math.ceil(math.log2(_DCT_MIN_NODES * top / upper)), _DCT_MAX_NODES)
    halves = steps * lags  # half-periods of lag k on [0, top]
    w = math.pi / top * halves
    integrand, exact = f, 0.0
    if pole:
        (s0, power), step = pole, 1e-5 * pole[0]
        g0, g_up, g_down = f(np.array([s0, s0 + step, s0 - step]))
        g1 = (g_up - g_down) / (2.0 * step)
        exact = np.array([g0, g1]) @ _pole_transforms(power, gamma * lags, s0, upper)

        def integrand(lam):  # f's pole less its two leading terms, 0 at s0
            x = lam - s0
            return (f(lam) - g0 - g1 * x) * np.where(x == 0.0, 1.0, np.abs(x)) ** -power

    def values(lam):
        inside = integrand(lam[lam <= upper])  # lam ascends; zero above the band
        return np.pad(inside, [(0, 0)] * (inside.ndim - 1) + [(0, lam.size - inside.shape[-1])])

    def filon_sum(g, dct):  # the rule on the cells between the nodes g,
        n = g.shape[-1] - 1  # given their DCT-I at each lag
        h = top / n
        total = 0.5 * h * np.sinc(halves / (2 * n)) ** 2 * dct
        if not knots.size:
            return total
        # swap the two cells around the node nearest each jump for the
        # two that end at the jump
        i = np.clip(np.rint(knots / h), 1, n - 1).astype(int)
        if np.any(np.diff(i) < 2):
            return total  # two jumps share a cell: the error estimate refines
        lo, mid, hi = (i - 1) * h, i * h, (i + 1) * h
        cells = (np.concatenate(v, axis=-1)[..., None] for v in (
            (lo, knots, lo, mid), (knots, hi, mid, hi),
            (g[..., i - 1], right, g[..., i - 1], g[..., i]),
            (left, g[..., i + 1], g[..., i], g[..., i + 1])))
        return total + np.repeat([1.0, 1.0, -1.0, -1.0], i.size) @ _filon_cells(w, *cells)

    knots = np.array(sorted(knots))
    left, right = values(knots * (1 - 1e-13)), values(knots * (1 + 1e-13))
    peak = np.abs(values(np.linspace(0.0, upper, 257))).max(axis=-1, keepdims=True)
    jumps = np.atleast_2d(np.abs(left - right) > 1e-10 * peak).any(axis=0)
    knots, left, right = knots[jumps], left[..., jumps], right[..., jumps]
    while True:
        lam = np.linspace(0.0, top, n + 1)
        g = values(lam)
        bad = ~np.atleast_2d(np.isfinite(g)).all(axis=0)
        if bad.any():
            raise ValueError("integrand is not finite at lam = %r" % float(lam[bad][0]))
        if not halves.any():  # entry 0 of each rule's DCT-I
            entries = [2.0 * g[..., ::1 << r].sum(axis=-1, keepdims=True) - g[..., :1] - g[..., -1:]
                       for r in range(4)]
        elif direct:  # the nodes above n / 2 lie above the band
            entries = _cosine_sums(g[:n // 2 + 1], math.pi / n * halves, 4)
        else:
            dct, entries = _dct1(g), []
            for r in range(4):
                j = halves % (2 * (n >> r))
                entries.append(dct[np.minimum(j, 2 * (n >> r) - j)])
                # the DCT-I of g[::2] at j is (dct[j] + dct[-1 - j]) / 2
                half = dct.size // 2
                dct = 0.5 * (dct[:half + 1] + dct[half:][::-1])
        sums = [filon_sum(g[..., ::1 << r], entries[r]) for r in range(4)]
        r = [(4.0 * fine - coarse) / 3.0 for fine, coarse in zip(sums, sums[1:])]
        col, error = r[0] + exact, np.maximum(np.abs(r[0] - r[1]), np.abs(r[1] - r[2]) / 4.0)
        missed = ~(error <= _COLUMN_TOL * np.maximum(1.0, np.abs(col)))
        if not missed.any():
            return scale * col
        if n >= _DCT_MAX_NODES:
            k = np.unravel_index(np.flatnonzero(missed)[-1], missed.shape)
            raise QuadratureConvergenceError(
                "covariance entry at shift separation %r did not converge: Filon rules on "
                "up to %d cells leave %.3g" % (float(lags[k[-1]] * gamma), n, scale * error[k]),
                scale * col[k], scale * error[k])
        n *= 2
