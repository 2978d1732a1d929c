"""Independent numerical oracles for the test suite.

These deliberately avoid the library's closed forms: adaptive Simpson
quadrature for integrals and a brute-force Riemann integrator for step/
piecewise-linear paths.  Tests compare library results against these.
``per_step_run`` is the exception: it is the likelihood's own step loop in
its plain form, kept as the reference for the blocked loop.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from marcox.marginal import _logsumexp


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


def per_step_run(lik, coeffs, grad=False):
    """``MarginalLikelihood._run`` with every step's views cut at that step.

    Runs on the tables of the given ``MarginalLikelihood`` and returns
    ((loglik, polynomial_term_log, exponent_term), gradient or None).  Step
    m works on rows[: m + 2] only, the entries f_m can fill, so the result
    does not rely on the -inf entries past them.
    """
    scaled, lam, ok = lik._masses(coeffs)
    assert ok
    with np.errstate(divide="ignore"):
        log_new = lik._log_kernel + np.log(scaled)
    M = scaled.size
    if grad:
        width = lik.degree + 2
        rows = np.full((M + 1, width), -math.inf)
        f = rows[:, 0]
        log_stay = np.repeat(lik._log_stay[:, None], width, axis=1)
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
            np.add(row[:, :1], lik._log_source[m], out=s)
            np.logaddexp(g, s, out=g)
        np.add(row, log_stay[: m + 1], out=row)
        shifted = rows[1 : m + 2]
        np.logaddexp(shifted, g, out=shifted)
    poly_log = _logsumexp(f)
    exponent = -lik.beta0 * lik.x.T - lam
    value = (poly_log + exponent, poly_log, exponent)
    if not grad:
        return value, None
    sens = np.array([_logsumexp(rows[:, p]) for p in range(1, lik.degree + 2)])
    if poly_log == -math.inf:
        ratio = np.where(sens > -math.inf, math.inf, 0.0)
    else:
        with np.errstate(over="ignore"):
            ratio = np.exp(sens - poly_log)
    return value, ratio - lik._L
