"""Independent estimators of the log marginal likelihood, used for validation.

Two routes to log p(x), both in log space like the likelihood they check,
so they work at any number of events:

* ``grid_marginal``  forward filter over the truncated latent count Y with an
                     exact step per gap between events.  There Y only grows,
                     by Poisson births of rate gamma: j births at s_1..s_j in
                     a gap (a, b] of length h have density e^{-Gamma_gap}
                     prod gamma(s_i), and each adds w (b - s_i) to the
                     integral of X's rate.  So
                         f_b(y) = sum_j f_a(y - j) e^{-(beta0 + w (y - j)) h}
                                  e^{-Gamma_gap} A^j / j!,
                     with Gamma_gap = int gamma and A = int gamma(s)
                     e^{-w (b - s)} ds over the gap, and an event at b then
                     multiplies state y by beta0 + w y.  The truncation level
                     starts at the Poisson(Gamma(T)) tail level and doubles
                     until the value is stable, since the data can tilt the
                     latent count far above its prior.
* ``mc_marginal``    plain Monte Carlo over latent draws: the log of the mean
                     weight p(x | Y), with the delta-method standard error of
                     that log.  The draws and the weights are the simulator's
                     own (``simulator._latent_points`` and
                     ``simulator._conditional_logliks``), so the weights are
                     the density the simulator's tests check.  The replicas
                     run in chunks of min(4096, 2^20 // max(M, 1)) on a pool
                     of one thread per CPU the process may run on.

The grid's gap masses are quadratures of gamma's values (``_gap_masses``), so
it shares no kernel-mass code with the likelihood, and its only errors are
the truncation and rounding: ``grid_check`` passes within 1e-9 relative.
``mc_check`` passes within three standard errors and cannot decide (``"pass":
None``) when the weights' effective sample size (sum w)^2 / sum w^2 is below
100.  ``default_y_max`` sums the Poisson tail with the standard library, so
importing this module loads no scipy.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_count
from .marginal import _logsumexp
from .paths import CountPath, ModelParams
from .simulator import _conditional_logliks, _latent_points

# Below this effective sample size the Monte Carlo check cannot decide.
_MC_MIN_ESS = 100.0

_TAIL_MASS = 1e-12
# The tail sum starts at the first term below this; for means up to 1e8 the
# terms past it add less than 1e-15 of _TAIL_MASS.
_TAIL_TERM_MIN = 1e-30


@dataclass(frozen=True)
class McSpec:
    N: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_count(self.N, "replica count N", 1)
        check_count(self.seed, "seed", 0)


def default_y_max(mean_count: float) -> int:
    """Smallest truncation level with Poisson(mean) upper-tail mass < 1e-12.

    The search starts at max(1, floor(mean)).  The tail P(N > k) is summed
    term by term from far past the mean downward, never formed as 1 - cdf,
    which would lose the digits that decide the comparison with 1e-12.
    A mean past 1e8, where that sum is not vouched for, is refused.
    """
    if mean_count <= 0.0:
        return 1
    if not mean_count <= 1e8:  # NaN too
        raise ValidationError(f"latent count mean {mean_count!r} is past the grid oracle's range (at most 1e8)")
    k = max(1, int(mean_count))
    log_mean = math.log(mean_count)
    pmf = []  # P(N = j) for j = k + 1, k + 2, ...; every j here exceeds the mean
    while not pmf or pmf[-1] >= _TAIL_TERM_MIN:
        j = k + 1 + len(pmf)
        pmf.append(math.exp(j * log_mean - mean_count - math.lgamma(j + 1)))
    tail = 0.0  # P(N > k + len(pmf))
    while pmf and tail + pmf[-1] < _TAIL_MASS:
        tail += pmf.pop()
    return k + len(pmf)


@functools.cache  # built on first use: at import it would load numpy.polynomial
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 20-node Gauss-Legendre rule on [-1, 1], read-only, as calls share it."""
    u, wt = np.polynomial.legendre.leggauss(20)
    u.flags.writeable = wt.flags.writeable = False
    return u, wt


def _gap_masses(edges: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Gamma_gap = int gamma and A = int gamma(s) e^{-w (b - s)} ds over each gap
    (a, b] = (edges[i], edges[i + 1]], by Gauss-Legendre quadrature of
    ``gamma.eval_many`` on ceil(w h / 4) equal pieces of a gap of length h.
    On a piece e^{-w (b - s)} varies by at most e^4, so 20 nodes integrate
    it times a polynomial of degree <= 8 to rounding (``_legendre_rule``)."""
    a, b, h = edges[:-1], edges[1:], np.diff(edges)
    pieces = np.maximum(1, np.ceil(params.w * h / 4.0)).astype(int)
    gap = np.repeat(np.arange(h.size), pieces)
    index = np.arange(gap.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    width = (h / pieces)[gap, None]
    u, wt = _legendre_rule()
    s = a[gap, None] + width * (index[:, None] + (u + 1.0) / 2.0)
    mass = params.gamma.eval_many(s) * (width * wt / 2.0)
    decayed = mass * np.exp(-params.w * (b[gap, None] - s))
    return (np.bincount(gap, mass.sum(axis=1), h.size), np.bincount(gap, decayed.sum(axis=1), h.size))


def _grid_filter(x: CountPath, params: ModelParams, y_max: int) -> np.ndarray:
    """Logs of the forward filter's final row over the states 0..y_max.

    Each gap's step rescales the decayed row by its maximum, convolves it
    with the Poisson(A) weights A^j / j!, rescaled likewise and cut where
    they are 0 as doubles, and returns to logs; mass moving past y_max is
    dropped.  log p at
    level k <= y_max is the log-sum of the row's first k + 1 entries: the
    state only moves up, so the states above k never feed those below.
    """
    edges = np.concatenate(([0.0], x.jumps, [x.T]))
    gammas, masses = _gap_masses(edges, params)
    y = np.arange(y_max + 1)
    rate = params.beta0 + params.w * y
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(y_max + 1)])
    log_f = at_zero = np.where(y == 0, 0.0, -math.inf)  # the row at t = 0, and no births
    with np.errstate(divide="ignore"):
        log_rate = np.log(rate)
        for i, (h, gam, mass) in enumerate(zip(np.diff(edges).tolist(), gammas.tolist(), masses.tolist())):
            # Every gap but the first opens with an event.
            decayed = (log_f + log_rate if i else log_f) - rate * h
            top = float(decayed.max())
            if top == -math.inf:
                return decayed
            log_w = y * math.log(mass) - log_fact if mass > 0.0 else at_zero
            w_top = float(log_w.max())
            weights = np.exp(log_w - w_top)
            births = np.convolve(np.exp(decayed - top), weights[: np.flatnonzero(weights)[-1] + 1])
            log_f = np.log(births[: y_max + 1]) + (top + w_top - gam)
    return log_f


def grid_marginal(x: CountPath, params: ModelParams) -> float:
    """log p(x) from the exact-step forward filter over the latent count
    (``_grid_filter``).

    The truncation level starts at ``default_y_max(Gamma(T))`` and doubles
    until the log value moves by at most 1e-12 max(1, |value|); the
    truncated value only grows with the level.  Each filter run at level 2k
    also gives the value at level k, so a stable level costs one run.
    """
    params.gamma.validate_nonneg(x.T)
    k = default_y_max(params.gamma.cum(x.T))
    while True:
        log_f = _grid_filter(x, params, 2 * k)
        value = _logsumexp(log_f)
        if value == -math.inf or value - _logsumexp(log_f[: k + 1]) <= 1e-12 * max(1.0, abs(value)):
            return value
        k *= 2


def grid_check(x: CountPath, params: ModelParams, loglik: float) -> dict:
    """The grid oracle's verdict on ``loglik``, the likelihood's value of log p(x):
    pass when the two are equal (both -inf among them) or |log_value - loglik|
    <= 1e-9 max(1, |loglik|)."""
    value = grid_marginal(x, params)
    return {"log_value": value, "pass": value == loglik or abs(value - loglik) <= 1e-9 * max(1.0, abs(loglik))}


def _mc_chunk(x: CountPath, params: ModelParams, n: int, seed: np.random.SeedSequence):
    """Conditional log-densities of x under n independent latent draws."""
    rows, times = _latent_points(params.gamma, x.T, n, np.random.default_rng(seed))
    return _conditional_logliks(x, params, n, rows, times)


def mc_marginal(x: CountPath, params: ModelParams, spec: McSpec) -> tuple[float, float]:
    """Monte Carlo estimate of log p(x) and its standard error.

    The estimate is the log of the mean of the weights exp(conditional
    loglik(x, Y_r)) over independent latent draws, taken around the largest
    log weight; the error is the delta-method sd(w) / (mean(w) sqrt(N)).
    When no draw can produce x the result is (-inf, inf).  The replicas run
    in chunks of min(4096, 2^20 // max(M, 1)), each from its own child of the
    seed, so no (replica, event) table passes 2^20 cells, on a pool of one
    worker per CPU the process may run on (``os.sched_getaffinity``, else
    ``os.cpu_count()``); the result depends only on the seed, N and the path.
    """
    params.gamma.validate_nonneg(x.T)
    chunk = min(4096, max(1, 2**20 // max(x.count, 1)))
    sizes = [min(chunk, spec.N - start) for start in range(0, spec.N, chunk)]
    seeds = np.random.SeedSequence(spec.seed).spawn(len(sizes))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    from concurrent.futures import ThreadPoolExecutor  # imported on use: it loads logging and queue
    with ThreadPoolExecutor(max_workers=cpus) as pool:
        logs = np.concatenate(list(pool.map(lambda a: _mc_chunk(x, params, *a), zip(sizes, seeds))))

    top = float(np.max(logs))
    if top == -math.inf:
        return -math.inf, math.inf
    weights = np.exp(logs - top)
    mean = float(np.mean(weights))
    sd = float(np.std(weights, ddof=1)) if spec.N > 1 else math.nan
    return top + math.log(mean), sd / (mean * math.sqrt(spec.N))


def mc_check(x: CountPath, params: ModelParams, spec: McSpec, loglik: float) -> dict:
    """The Monte Carlo oracle's verdict on ``loglik``.

    Passes when the estimate lies within three standard errors of loglik
    (or within 1e-9 max(1, |loglik|), for weights that do not vary), and
    cannot decide (pass None) when the effective sample size is below 100.
    The effective sample size (sum w)^2 / sum w^2 equals
    N / (1 + (N - 1) se^2) for the delta-method se of ``mc_marginal``.
    """
    est, se = mc_marginal(x, params, spec)
    ess = spec.N / (1.0 + (spec.N - 1) * se**2)
    diff = est - loglik
    ok = abs(diff) <= max(3.0 * se, 1e-9 * max(1.0, abs(loglik)))
    z = diff / se if se > 0 else 0.0
    verdict = ok if ess >= _MC_MIN_ESS else None
    return {"n": spec.N, "log_estimate": est, "se_log": se, "ess": ess, "z": z, "pass": verdict}
