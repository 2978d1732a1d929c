"""Independent numerical oracles for the test suite.

These deliberately avoid the library's closed forms: adaptive Simpson
quadrature for integrals and a brute-force Riemann integrator for step/
piecewise-linear paths.  Tests compare library results against these.
``per_step_run``, ``three_reduction_masses``, ``dense_mc_chunk`` and
``loop_adapt_path`` are the exceptions: plain forms of library code kept as
references for the faster forms that replaced them.  They are the
likelihood's former log-space step loop, cut per step (for the linear-space
blocks that replaced it); the record of one coefficient vector, its masses
and int lambda taken as 0 below 0 by separate tests (for the one min that
replaced them); the Monte Carlo oracle's log weights from a dense (latent
points x events) comparison table (for the counting that replaced it); and
the per-level loops of the adaptation transform (for its vectorized form).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from marcox.errors import ValidationError
from marcox.intensity import grid_nonneg
from marcox.marginal import _logsumexp
from marcox.paths import CountPath
from marcox.simulator import _latent_points


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float = 1e-13) -> float:
    """Classic recursive adaptive Simpson with Richardson correction."""
    if a == b:
        return 0.0

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        fl, fr = f(lmid), f(rmid)
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        # Tolerance floors at rounding scale so noise cannot force full depth.
        floor = 1e-16 * (abs(left) + abs(right)) + 1e-300
        if depth <= 0 or abs(left + right - whole) <= 15.0 * max(eps, floor):
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, fl, fmid, left, eps / 2.0, depth - 1) + recurse(
            mid, hi, fmid, fr, fhi, right, eps / 2.0, depth - 1
        )

    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 24)


def riemann(f: Callable[[float], float], a: float, b: float, n: int = 200_000) -> float:
    """Midpoint Riemann sum; blunt but independent of any antiderivative."""
    if a == b:
        return 0.0
    h = (b - a) / n
    return h * math.fsum(f(a + (i + 0.5) * h) for i in range(n))


def step_path_integral(jumps, t: float) -> float:
    """int_0^t x(s) ds for the unit-step path with the given jump times."""
    return math.fsum(max(t - tj, 0.0) for tj in jumps)


def piecewise_linear_integral(f: Callable[[float], float], kinks, a: float, b: float) -> float:
    """int_a^b f for piecewise-linear f: trapezoid over kink-split panels (exact)."""
    pts = sorted({a, b, *(k for k in kinks if a < k < b)})
    return math.fsum(
        0.5 * (f(lo) + f(hi)) * (hi - lo) for lo, hi in zip(pts, pts[1:])
    )


def per_step_run(lik, coeffs, grad=False, last_row=False):
    """The recursion of ``MarginalLikelihood._run`` in log space, one step at
    a time, with every step's views cut at that step.

    Runs on the tables of the given ``MarginalLikelihood`` and returns
    ((loglik, polynomial_term_log, exponent_term), gradient or None), and
    with last_row the DP's last row log f_M(k) after them.  Step m works on
    rows[: m + 2] only, the entries f_m can fill, so the result does not
    rely on the -inf entries past them.  The masses come from the tables, so
    the run needs only every mass and int lambda to be finite and >= 0, not
    gamma >= 0 at the check times: it scores points outside the support.
    """
    c = np.asarray(coeffs, dtype=float)
    scaled, lam = lik._B @ c, float(lik._L @ c)
    assert np.isfinite(scaled).all() and scaled.min(initial=0.0) >= 0.0 and 0.0 <= lam < math.inf
    with np.errstate(divide="ignore"):
        log_new = lik._log_kernel + np.log(scaled)
    M = scaled.size
    if grad:
        width = lik.degree + 2
        rows = np.full((M + 1, width), -math.inf)
        f = rows[:, 0]
        log_stay = np.repeat(lik._log_stay[:, None], width, axis=1)
        # log (w B_(m,p)) in columns 1.., after a column of log 0 that
        # leaves f's own column unchanged under logaddexp.
        with np.errstate(divide="ignore"):
            log_source = np.concatenate(
                (np.full((M, 1), -math.inf), lik._log_kernel[:, None] + lik._log_moments), axis=1
            )
        source = np.empty((M, width))
    else:
        rows = f = np.full(M + 1, -math.inf)
        log_stay = lik._log_stay
    f[0] = 0.0
    grown = np.empty_like(rows[1:])
    for m, ln in enumerate(log_new.tolist()):
        row, g = rows[: m + 1], grown[: m + 1]
        np.add(row, ln, out=g)
        if grad:
            s = source[: m + 1]
            np.add(row[:, :1], log_source[m], out=s)
            np.logaddexp(g, s, out=g)
        np.add(row, log_stay[: m + 1], out=row)
        shifted = rows[1 : m + 2]
        np.logaddexp(shifted, g, out=shifted)
    poly_log = _logsumexp(f)
    exponent = -lik.beta0 * lik.x.T - lam
    value = (poly_log + exponent, poly_log, exponent)
    if not grad:
        return (value, None, f.copy()) if last_row else (value, None)
    sens = np.array([_logsumexp(rows[:, p]) for p in range(1, lik.degree + 2)])
    if poly_log == -math.inf:
        ratio = np.where(sens > -math.inf, math.inf, 0.0)
    else:
        with np.errstate(over="ignore"):
            ratio = np.exp(sens - poly_log)
    return (value, ratio - lik._L, f.copy()) if last_row else (value, ratio - lik._L)


def three_reduction_masses(lik, coeffs) -> tuple[float, bytes | None, float]:
    """(lam, log masses' bytes or None, tilt) of coeffs, the fields of
    ``MarginalLikelihood._masses``'s record, by the support rule of
    ``PolyIntensity.validate_nonneg`` and plain forms of the rest: outside
    the support (a sum of |c| not below the limit, NaN and inf among them,
    or gamma at the check times failing ``grid_nonneg``) the record is
    (NaN, None, NaN).  In it, int lambda and every mass below 0 are taken
    as 0, each by its own test (the record reads the masses' one min), the
    logs under one ``np.errstate``, and the tilt is finite when the least
    mass (1 when there are none) is > 0."""
    c = np.asarray(coeffs, dtype=float)
    if not sum(map(abs, c.tolist())) < lik._support_coeff_limit or not grid_nonneg(lik.V @ c):
        return math.nan, None, math.nan
    scaled, lam = lik._B @ c, float(lik._L @ c)
    scaled = np.where(scaled > 0.0, scaled, 0.0)
    with np.errstate(divide="ignore"):
        log = np.log(scaled)
    tilt = math.nan
    if scaled.min(initial=1.0) > 0.0:
        tilt = float(log[-1]) - float(log[0]) if log.size else 0.0
    return (lam if lam > 0.0 else 0.0), log.tobytes(), tilt


def dense_mc_chunk(x, params, n: int, seed) -> np.ndarray:
    """``marcox.oracles._mc_chunk`` on the same latent draws
    (``simulator._latent_points``: path labels and ascending times), with
    y(t_i-) counted from the dense table ``times[:, None] < x.jumps[None, :]``
    (latent points x events)."""
    rows, times = _latent_points(params.gamma, x.T, n, np.random.default_rng(seed))
    T, beta0, w = x.T, params.beta0, params.w
    counts = np.bincount(rows, minlength=n)
    sum_times = np.bincount(rows, weights=times, minlength=n)
    integral = beta0 * T + w * (counts * T - sum_times)
    if x.count == 0:
        return -integral
    before = np.zeros((n, x.count))
    np.add.at(before, rows, times[:, None] < x.jumps[None, :])
    rates = beta0 + w * before
    ok = np.all(rates > 0.0, axis=1)
    with np.errstate(divide="ignore"):
        log_rates = np.sum(np.log(np.where(rates > 0.0, rates, 1.0)), axis=1)
    return np.where(ok, log_rates - integral, -np.inf)


def loop_adapt_path(x_star: CountPath, w: float) -> CountPath:
    """``marcox.paths.adapt_path`` with a loop over the levels for the
    crossings and another, through a closure for the area under xt, for the
    jumps: the reference its vectorized form matches bit for bit."""
    if not w > 0:
        raise ValidationError("adaptation scale w must be positive")
    if x_star.count == 0:
        raise ValidationError("adaptation needs a nonempty path")
    T = x_star.T
    # Piecewise description of xt: nodes at 0, jump times, T; between nodes
    # the slope is w * (number of events so far).
    nodes = np.concatenate(([0.0], x_star.jumps, [T] if x_star.jumps[-1] < T else []))
    levels = np.arange(nodes.size)  # x*(t) on [nodes[k], nodes[k+1]) is levels[k]
    xt_nodes = np.concatenate(([0.0], np.cumsum(w * levels[:-1] * np.diff(nodes))))

    total = xt_nodes[-1]
    M = int(math.floor(total))
    if M == 0:
        raise ValidationError("adaptation scale too small: no events after transform")

    # Prefix areas under xt at the nodes; xt is linear between them, so each
    # segment contributes a trapezoid and partial segments are exact too.
    seg_areas = 0.5 * (xt_nodes[:-1] + xt_nodes[1:]) * np.diff(nodes)
    prefix = np.concatenate(([0.0], np.cumsum(seg_areas)))

    def xt_integral(t: float) -> float:
        k = int(np.searchsorted(nodes, t, side="right")) - 1
        k = min(max(k, 0), nodes.size - 2)
        dt = t - nodes[k]
        v = xt_nodes[k] + w * levels[k] * dt
        return float(prefix[k] + 0.5 * (xt_nodes[k] + v) * dt)

    # Crossing time of each integer level: invert the linear piece containing it.
    crossings = np.empty(M)
    for i in range(1, M + 1):
        k = int(np.searchsorted(xt_nodes, i, side="left")) - 1
        k = max(k, 0)
        slope = w * levels[k]
        if slope <= 0:  # xt flat below the level; crossing is at the next node
            crossings[i - 1] = nodes[k + 1]
        else:
            crossings[i - 1] = nodes[k] + (i - xt_nodes[k]) / slope

    jumps = np.empty(M)
    prev = 0.0
    prev_area = 0.0
    for i in range(1, M + 1):
        t_i = crossings[i - 1]
        area_i = xt_integral(t_i)
        jumps[i - 1] = i * t_i - (i - 1) * prev - (area_i - prev_area)
        prev, prev_area = t_i, area_i
    return CountPath(T=T, jumps=jumps)
