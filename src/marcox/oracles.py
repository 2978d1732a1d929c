"""Independent estimators of the marginal likelihood, used for validation.

Three routes to the same number:

* ``grid_marginal``      forward dynamic program over a lattice-discretized
                         latent state with exact per-step factors;
* ``grid_coeff_marginal`` the discrete coefficient recursion on the same
                         lattice (structurally distinct algebra whose
                         difference from the forward filter is O(h));
* ``mc_marginal``        plain Monte Carlo over latent draws.

The latent-state truncation level (``default_y_max``) sums the Poisson tail
with the standard library, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .intensity import _cum_inverse_batch
from .paths import CountPath, ModelParams

_TAIL_MASS = 1e-12
# The tail sum starts at the first term below this; for means up to 1e8 the
# terms past it add less than 1e-15 of _TAIL_MASS.
_TAIL_TERM_MIN = 1e-30
_GRID_EPS = 1e-9  # tolerance when snapping event times up to lattice points


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


@dataclass(frozen=True)
class GridSpec:
    """Lattice resolution and latent-state truncation for the grid oracles."""

    n: int
    y_max: int | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValidationError("grid resolution n must be at least 2")
        if self.y_max is not None and self.y_max < 1:
            raise ValidationError("truncation level y_max must be at least 1")


@dataclass(frozen=True)
class McSpec:
    N: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValidationError("replica count N must be at least 1")


def _grid_indices(x: CountPath, n: int) -> np.ndarray:
    """Lattice index k in 1..n for each event: smallest k h >= t_i."""
    h = x.T / n
    ks = np.ceil(x.jumps / h - _GRID_EPS).astype(int)
    ks = np.clip(ks, 1, n)
    if np.unique(ks).size != ks.size:
        raise ValidationError("grid too coarse: two events land on one lattice point")
    return ks


def grid_marginal(x: CountPath, params: ModelParams, spec: GridSpec) -> float:
    """Forward filter over the truncated latent state on the n-lattice.

    Step k covers [k h, (k+1) h): state y contributes exp(-beta h), or
    beta exp(-beta h) when the discretized path jumps at (k+1) h, and then
    moves up with probability gamma(k h) h.  Truncation keeps states up to
    the Poisson(Gamma(T)) tail level.
    """
    params.validate(x.T)
    n = spec.n
    T = x.T
    h = T / n
    gamma, beta0, w = params.gamma, params.beta0, params.w

    grid_times = np.arange(n) * h
    gam = gamma.eval_many(grid_times)
    if np.any(gam * h >= 1.0):
        raise ValidationError("step size too large: gamma(t) h must stay below 1")

    y_max = spec.y_max if spec.y_max is not None else default_y_max(gamma.cum(T))
    ys = np.arange(y_max + 1)
    beta = beta0 + w * ys
    survive = np.exp(-beta * h)
    jump_fac = beta * survive

    jump_steps = set((_grid_indices(x, n) - 1).tolist())

    f = np.zeros(y_max + 1)
    f[0] = 1.0
    log_scale = 0.0
    for k in range(n):
        f = f * (jump_fac if k in jump_steps else survive)
        p_up = gam[k] * h
        f = f * (1.0 - p_up) + np.concatenate(([0.0], f[:-1])) * p_up
        m = f.max()
        if 0.0 < m < 1e-280:  # keep mantissas healthy on long lattices
            f /= m
            log_scale += math.log(m)
    total = float(f.sum())
    return math.exp(log_scale) * total if total > 0.0 else 0.0


def grid_coeff_marginal(x: CountPath, params: ModelParams, n: int) -> float:
    """Discrete coefficient recursion on the n-lattice.

    Works with lattice kernels alpha_i = e^{-(n-i-1) w h} gamma(i h) and
    lambda_i = (1 - e^{-(n-i-1) w h}) gamma(i h); each event contributes the
    kernel mass h * sum_{i<=r_m} alpha_i, where the event sits at lattice
    point (r_m + 2) h.  Deliberately kept as plain Python over exact
    integer binomials, independent of the closed-form implementation.
    """
    params.validate(x.T)
    T = x.T
    h = T / n
    gamma, beta0, w = params.gamma, params.beta0, params.w

    i_arr = np.arange(n)
    gam = gamma.eval_many(i_arr * h)
    decay = np.exp(-(n - i_arr - 1) * w * h)
    alpha = decay * gam
    lam = (1.0 - decay) * gam
    if np.any(gam * h >= 1.0) or np.any(lam * h >= 1.0):
        raise ValidationError("step size too large: gamma(t) h must stay below 1")

    alpha_prefix = np.concatenate(([0.0], np.cumsum(alpha * h)))

    ks = sorted(_grid_indices(x, n).tolist(), reverse=True)
    masses = [float(alpha_prefix[max(k - 2, 0) + 1]) if k >= 2 else 0.0 for k in ks]

    c = [1.0]
    for m, A in enumerate(masses, start=1):
        new = [1.0]
        for j in range(1, m + 1):
            s = sum(c[i] * math.comb(m - i - 1, j - i - 1) for i in range(j))
            new.append(s * A + (c[j] if j < m else 0.0))
        c = new

    M = len(masses)
    if beta0 == 0.0:
        poly = c[M] * w**M if M > 0 else 1.0
    else:
        poly = sum(c[j] * w**j * beta0 ** (M - j) for j in range(M + 1))
    log_tail = float(np.sum(np.log1p(-lam[: n - 1] * h)))
    return poly * math.exp(-n * beta0 * h + log_tail)


def _mc_chunk(x: CountPath, params: ModelParams, n: int, seed: np.random.SeedSequence):
    """Conditional log-densities of x under n independent latent draws.

    Batched version of the time-change construction: unit exponential
    arrival masses per replica, inverted through the cumulative intensity in
    one vectorized pass, then the conditional density evaluated row-wise.
    """
    rng = np.random.default_rng(seed)
    T = x.T
    gamma, beta0, w = params.gamma, params.beta0, params.w
    total = gamma.cum(T)

    width = default_y_max(total) + 16
    cums = np.cumsum(rng.exponential(size=(n, width)), axis=1)
    while np.any(cums[:, -1] <= total):  # astronomically rare overflow of width
        extra = np.cumsum(rng.exponential(size=(n, 16)), axis=1)
        cums = np.hstack([cums, cums[:, -1:] + extra])
    mask = cums <= total
    counts = mask.sum(axis=1)
    rows = np.repeat(np.arange(n), counts)
    flat = cums[mask]  # row-major, ascending within each replica
    times = _cum_inverse_batch(gamma, flat, T) if flat.size else flat

    sum_times = np.bincount(rows, weights=times, minlength=n)
    integral = beta0 * T + w * (counts * T - sum_times)
    if x.count == 0:
        return -integral
    # y(t-) at each event: latent times strictly earlier than the event
    before = np.zeros((n, x.count))
    np.add.at(before, rows, times[:, None] < x.jumps[None, :])
    rates = beta0 + w * before
    ok = np.all(rates > 0.0, axis=1)
    with np.errstate(divide="ignore"):
        log_rates = np.sum(np.log(np.where(rates > 0.0, rates, 1.0)), axis=1)
    return np.where(ok, log_rates - integral, -np.inf)


def mc_marginal(
    x: CountPath, params: ModelParams, spec: McSpec, jobs: int = 1
) -> tuple[float, float]:
    """Monte Carlo estimate of the marginal likelihood with its standard error.

    Averages exp(conditional_loglik(x, Y_r)) over independent latent draws,
    accumulated around the max log weight for stability.  Deterministic given
    the seed regardless of the job count.
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
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(lambda a: _mc_chunk(x, params, *a), zip(sizes, seeds)))
    logs = np.concatenate(parts)

    top = float(np.max(logs))
    if top == -math.inf:
        return 0.0, 0.0
    weights = np.exp(logs - top)
    mean = float(np.mean(weights))
    if spec.N == 1:
        return math.exp(top) * mean, math.nan
    sd = float(np.std(weights, ddof=1))
    scale = math.exp(top)
    return scale * mean, scale * sd / math.sqrt(spec.N)
