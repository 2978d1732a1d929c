"""Independent reference values the benchmark checks the program against.

Nothing here imports ``marcox``.  The marginal log-likelihood is computed by
the open-block dynamic program

    f_m(k) = (beta0 + w k) f_(m-1)(k) + w A(t_m) f_(m-1)(k-1),   f_0 = [1],

over the events in ascending order, where k counts the distinct latent points
that the first m events have attached to and A(t) = int_0^t e^(-w (T-s))
gamma(s) ds.  Then

    log p(x) = log sum_k f_M(k) - beta0 T - int_0^T (1 - e^(-w (T-s))) gamma(s) ds.

Rows are kept in log space (``np.logaddexp``), so no magnitude is lost at any
M.  The kernel masses and the lambda integral come from composite
Gauss-Legendre quadrature, not from the closed forms the program uses.

``ess`` is Geyer's initial monotone sequence estimator of the effective
sample size of one scalar chain.
"""

from __future__ import annotations

import math

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _poly(coeffs, t: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(t)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _breakpoints(edges: np.ndarray, w: float) -> np.ndarray:
    """Edges refined so that no piece is longer than 1/w or 1 time unit."""
    step = min(1.0, 1.0 / w)
    grid = np.arange(0.0, edges[-1], step)
    return np.union1d(edges, grid)


def _piece_integrals(f, pts: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integral of f over each [pts[i], pts[i+1]]."""
    a, b = pts[:-1], pts[1:]
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES[None, :]
    return half * (f(nodes) @ _GL_WEIGHTS)


def kernel_masses(coeffs, w: float, T: float, times: np.ndarray) -> np.ndarray:
    """A(t_m) for ascending event times, by cumulative quadrature."""
    times = np.asarray(times, dtype=float)
    pts = _breakpoints(np.concatenate(([0.0], times)), w)
    pieces = _piece_integrals(lambda s: np.exp(-w * (T - s)) * _poly(coeffs, s), pts)
    cum = np.concatenate(([0.0], np.cumsum(pieces)))
    return cum[np.searchsorted(pts, times)]


def lambda_mass(coeffs, w: float, T: float) -> float:
    """int_0^T (1 - e^(-w (T-s))) gamma(s) ds by quadrature."""
    pts = _breakpoints(np.array([0.0, T]), w)
    return float(np.sum(_piece_integrals(lambda s: -np.expm1(-w * (T - s)) * _poly(coeffs, s), pts)))


def _logsumexp(v: np.ndarray) -> float:
    top = float(np.max(v))
    if top == -math.inf:
        return top
    return top + math.log(float(np.sum(np.exp(v - top))))


def loglik(coeffs, beta0: float, w: float, T: float, times) -> float:
    """Marginal log-likelihood of the events ``times`` on [0, T]."""
    times = np.sort(np.asarray(times, dtype=float))
    M = times.size
    with np.errstate(divide="ignore"):
        log_stay = np.log(beta0 + w * np.arange(M + 1))
        log_new = math.log(w) + np.log(kernel_masses(coeffs, w, T, times))
    logf = np.zeros(1)
    for m in range(M):
        new = np.empty(m + 2)
        new[: m + 1] = log_stay[: m + 1] + logf
        new[m + 1] = -math.inf
        new[1:] = np.logaddexp(new[1:], log_new[m] + logf)
        logf = new
    return _logsumexp(logf) - beta0 * T - lambda_mass(coeffs, w, T)


def ess(chain) -> float:
    """Effective sample size by Geyer's initial monotone sequence.

    Autocorrelations come from an FFT; consecutive pairs
    Gamma_k = rho_(2k) + rho_(2k+1) are summed while positive and forced to
    be non-increasing.  A constant chain has ESS 1.
    """
    x = np.asarray(chain, dtype=float)
    n = x.size
    xc = x - x.mean()
    if n < 4 or not np.any(xc):
        return 1.0
    f = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n]
    rho = acov / acov[0]
    total = 0.0
    prev = math.inf
    for k in range(n // 2):
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        total += prev
    tau = max(-1.0 + 2.0 * total, 1.0 / n)
    return n / tau
