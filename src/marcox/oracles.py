"""Independent estimators of the log marginal likelihood, used for validation.

Two routes to log p(x), both in log space like the likelihood they check,
so they work at any number of events:

* ``grid_marginal``  forward filter over the truncated latent count on a
                     lattice of n uniform nodes plus every event time (the
                     steps are uneven, so no event is moved); the row is
                     renormalised whenever its maximum leaves [1e-200, 1e200].
                     The truncation level starts at the Poisson(Gamma(T))
                     tail level and doubles until the value is stable, since
                     the data can tilt the latent count far above its prior.
* ``mc_marginal``    plain Monte Carlo over latent draws: the log of the mean
                     weight p(x | Y), with the delta-method standard error of
                     that log.  The draws and the weights are the simulator's
                     own (``simulator._latent_points`` and
                     ``simulator._conditional_logliks``), so the weights are
                     the density the simulator's tests check.

The lattice error is first order in 1/n.  ``grid_check`` removes it with one
Richardson step over the lattices n/4, n/2 and n and takes the change of
that step as its error estimate; the lattice n/8 gives one more change,
which shows whether the lattice is in its asymptotic range, where that
estimate holds.  ``mc_check`` compares within three standard errors.  An
oracle that cannot decide says so with ``"pass": None``: the grid when its
error estimate exceeds 0.1 nats or the lattice is not in its asymptotic
range, Monte Carlo when the weights' effective sample size
(sum w)^2 / sum w^2 is below 100.

The grid's first truncation level ``default_y_max`` sums the Poisson tail
with the standard library, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .paths import CountPath, ModelParams
from .simulator import _conditional_logliks, _latent_points

# Above this error estimate (nats) the grid check cannot decide.
_GRID_UNDECIDED_NATS = 0.1
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
        if self.N < 1:
            raise ValidationError("replica count N must be at least 1")


def default_y_max(mean_count: float) -> int:
    """Smallest truncation level with Poisson(mean) upper-tail mass < 1e-12.

    The search starts at max(1, floor(mean)).  The tail P(N > k) is summed
    term by term from far past the mean downward, never formed as 1 - cdf,
    which would lose the digits that decide the comparison with 1e-12.
    """
    if mean_count <= 0.0:
        return 1
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


def _grid_filter(x: CountPath, params: ModelParams, n: int, y_max: int) -> tuple[np.ndarray, float]:
    """Final row of the forward filter over the states 0..y_max, and its log scale.

    The lattice is the n + 1 uniform nodes on [0, T] plus the event times.
    In the step from node s to node s + h the state first moves up with
    probability gamma(s) h (mass moving past y_max is dropped); then state y
    is multiplied by e^{-(beta0 + w y) h}, and by beta0 + w y when an event
    sits at s + h.  A latent point born in the step is thus always in place
    before the event that ends it, and the lattice error stays a smooth
    first-order term that does not depend on where the events fall between
    the uniform nodes.  log p at level k <= y_max is
    log_scale + log(sum(row[: k + 1])): the state only moves up, so the
    states above k never feed those below.
    """
    nodes = np.union1d(np.linspace(0.0, x.T, n + 1), x.jumps)
    steps = np.diff(nodes)
    p_up = params.gamma.eval_many(nodes[:-1]) * steps
    if np.any(p_up >= 1.0):
        raise ValidationError("step size too large: gamma(t) h must stay below 1")
    is_event = np.isin(nodes[1:], x.jumps)

    beta = params.beta0 + params.w * np.arange(y_max + 1)
    f = np.zeros(y_max + 1)
    f[0] = 1.0
    log_scale = 0.0
    for h, p, event in zip(steps.tolist(), p_up.tolist(), is_event.tolist()):
        up = f[:-1] * p
        f *= 1.0 - p
        f[1:] += up
        f *= np.exp(beta * -h)
        if event:
            f *= beta
        top = f.max()
        if not 1e-200 <= top <= 1e200:
            if top == 0.0:
                return f, -math.inf
            f /= top
            log_scale += math.log(top)
    return f, log_scale


def grid_marginal(x: CountPath, params: ModelParams, n: int) -> float:
    """log p(x) from the forward filter on the lattice of n >= 2 uniform steps
    plus the event times (``_grid_filter``).

    The truncation level starts at ``default_y_max(Gamma(T))`` and doubles
    until the log value moves by at most 1e-12 max(1, |value|); the
    truncated value only grows with the level.  Each filter run at level 2k
    also gives the value at level k, so a stable level costs one run.
    """
    if n < 2:
        raise ValidationError("grid resolution n must be at least 2")
    params.validate(x.T)
    k = default_y_max(params.gamma.cum(x.T))
    while True:
        f, log_scale = _grid_filter(x, params, n, 2 * k)
        total, part = float(f.sum()), float(f[: k + 1].sum())
        if total == 0.0:
            return -math.inf
        value = log_scale + math.log(total)
        if part > 0.0 and math.log(total / part) <= 1e-12 * max(1.0, abs(value)):
            return value
        k *= 2


def grid_check(x: CountPath, params: ModelParams, n: int, loglik: float) -> dict:
    """The grid oracle's verdict on ``loglik``, the likelihood's value of log p(x).

    With g_k the grid value on k uniform steps, R_k = 2 g_k - g_(k/2)
    cancels the first-order lattice error.  log_value is R_n, and err_nats
    is the first Richardson difference |d1|, d1 = R_n - R_(n/2).  The check
    passes when |log_value - loglik| <= max(err_nats, floor), with the floor
    1e-9 max(1, |loglik|).

    |d1| bounds the error of R_n only once the lattice is in its asymptotic
    range.  If the lattice error is a/k + b/k^2 + c/k^3, the second
    difference d2 = R_(n/2) - R_(n/4) is 4 d1 where b dominates and 8 d1
    where c does, and |d1| undershoots the error of R_n only when
    d2 / d1 > 32 or < -10.  So the check cannot decide (pass None) when
    |d2| > 10 |d1|, unless |d2| is below the floor.  Nor can it decide when
    err_nats exceeds 0.1 nats or is not a number, or when n < 16 leaves no
    lattice n/8.
    """
    g_eighth = grid_marginal(x, params, n // 8) if n >= 16 else math.nan
    g_quarter, g_half, g = (grid_marginal(x, params, k) for k in (n // 4, n // 2, n))
    star, star_half, star_quarter = 2.0 * g - g_half, 2.0 * g_half - g_quarter, 2.0 * g_quarter - g_eighth
    err, d2 = abs(star - star_half), abs(star_half - star_quarter)
    floor = 1e-9 * max(1.0, abs(loglik))
    ok = abs(star - loglik) <= max(err, floor)
    asymptotic = d2 <= max(10.0 * err, floor)
    verdict = ok if err <= _GRID_UNDECIDED_NATS and asymptotic else None
    return {"n": n, "log_value": star, "err_nats": err, "pass": verdict}


def _mc_chunk(x: CountPath, params: ModelParams, n: int, seed: np.random.SeedSequence):
    """Conditional log-densities of x under n independent latent draws."""
    rows, times = _latent_points(params.gamma, x.T, n, np.random.default_rng(seed))
    return _conditional_logliks(x, params, n, rows, times)


def mc_marginal(
    x: CountPath, params: ModelParams, spec: McSpec, jobs: int = 1
) -> tuple[float, float]:
    """Monte Carlo estimate of log p(x) and its standard error.

    The estimate is the log of the mean of the weights exp(conditional
    loglik(x, Y_r)) over independent latent draws, taken around the largest
    log weight; the error is the delta-method sd(w) / (mean(w) sqrt(N)).
    When no draw can produce x the result is (-inf, inf).  Deterministic
    given the seed regardless of the job count.
    """
    params.validate(x.T)
    # Chunking is fixed so the replica stream does not depend on the job count.
    chunk = 4096
    sizes = [chunk] * (spec.N // chunk)
    if spec.N % chunk:
        sizes.append(spec.N % chunk)
    seeds = np.random.SeedSequence(spec.seed).spawn(len(sizes))
    if jobs <= 1 or len(sizes) == 1:
        parts = [_mc_chunk(x, params, s, sq) for s, sq in zip(sizes, seeds)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # imported on use: it loads logging and queue

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(lambda a: _mc_chunk(x, params, *a), zip(sizes, seeds)))
    logs = np.concatenate(parts)

    top = float(np.max(logs))
    if top == -math.inf:
        return -math.inf, math.inf
    weights = np.exp(logs - top)
    mean = float(np.mean(weights))
    sd = float(np.std(weights, ddof=1)) if spec.N > 1 else math.nan
    return top + math.log(mean), sd / (mean * math.sqrt(spec.N))


def mc_check(x: CountPath, params: ModelParams, spec: McSpec, loglik: float, jobs: int = 1) -> dict:
    """The Monte Carlo oracle's verdict on ``loglik``.

    Passes when the estimate lies within three standard errors of loglik
    (or within 1e-9 max(1, |loglik|), for weights that do not vary), and
    cannot decide (pass None) when the effective sample size is below 100.
    The effective sample size (sum w)^2 / sum w^2 equals
    N / (1 + (N - 1) se^2) for the delta-method se of ``mc_marginal``.
    """
    est, se = mc_marginal(x, params, spec, jobs=jobs)
    ess = spec.N / (1.0 + (spec.N - 1) * se**2)
    diff = est - loglik
    ok = abs(diff) <= max(3.0 * se, 1e-9 * max(1.0, abs(loglik)))
    z = diff / se if se > 0 else 0.0
    verdict = ok if ess >= _MC_MIN_ESS else None
    return {"n": spec.N, "log_estimate": est, "se_log": se, "ess": ess, "z": z, "pass": verdict}
