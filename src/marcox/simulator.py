"""Exact simulation of the latent and observed processes.

The latent process Y is simulated by time change: unit-rate exponential
arrivals pushed through the inverse cumulative intensity.  Given Y, the
observed process X is Poisson with the rate beta0 + w Y(t-), constant
between Y's jumps, so its compensator is piecewise linear with knots at
those jumps; ``simulate`` draws Y and then X on that compensator, with no
race between the two.

Two batched functions hold the model's rules for many latent paths at once:
``_latent_points`` draws the latent points of n independent paths by time
change, and ``_conditional_logliks`` evaluates log p(x | y) for each of them.
``simulate_latent`` is one path of the first, ``conditional_loglik`` one
replica of the second, and the Monte Carlo oracle (``oracles.mc_marginal``)
is their composition, the mean of p(x | Y) over draws of Y.  ``simulate``
takes its Y from ``simulate_latent`` too, so every latent draw goes through
``_latent_points``.

The truncation level ``default_y_max`` sums the Poisson tail with the
standard library, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intensity import PolyIntensity, _cum_inverse_batch
from .paths import CountPath, ModelParams

# A latent path is structurally a count path; the alias keeps signatures honest.
LatentPath = CountPath

_TAIL_MASS = 1e-12
# The tail sum starts at the first term below this; for means up to 1e8 the
# terms past it add less than 1e-15 of _TAIL_MASS.
_TAIL_TERM_MIN = 1e-30


@dataclass(frozen=True)
class SimResult:
    x: CountPath
    y: LatentPath
    seed: int | None

    def __post_init__(self) -> None:
        if self.x.T != self.y.T:
            raise ValueError("observed and latent paths must share the horizon")


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


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


def _latent_points(gamma: PolyIntensity, T: float, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Latent points of n independent paths on [0, T], by time change.

    Each path's unit exponential arrival masses are drawn as one row of an
    (n, default_y_max(Gamma(T)) + 16) block, extended while any row has not
    passed Gamma(T), and the masses up to Gamma(T) are inverted through the
    cumulative intensity in one vectorized pass.  Returns (rows, times): the
    path index of each point and its time, row-major and ascending within
    each path.
    """
    total = gamma.cum(T)
    width = default_y_max(total) + 16
    cums = np.cumsum(rng.exponential(size=(n, width)), axis=1)
    while np.any(cums[:, -1] <= total):  # astronomically rare overflow of width
        extra = np.cumsum(rng.exponential(size=(n, 16)), axis=1)
        cums = np.hstack([cums, cums[:, -1:] + extra])
    mask = cums <= total
    rows = np.repeat(np.arange(n), mask.sum(axis=1))
    return rows, _cum_inverse_batch(gamma, cums[mask], T)


def _conditional_logliks(x: CountPath, params: ModelParams, n: int, rows, times) -> np.ndarray:
    """log p(x | y_r) for the n latent paths given as (rows, times) by
    ``_latent_points``: the sum of the log pre-jump rates minus the rate's
    integral beta0 T + w sum_j (T - s_j), -inf where an event sees rate 0.

    The rate at an x-event uses the left limit y(t-), so a latent point at
    the identical time does not count.
    """
    T, beta0, w = x.T, params.beta0, params.w
    counts = np.bincount(rows, minlength=n)
    sum_times = np.bincount(rows, weights=times, minlength=n)
    integral = beta0 * T + w * (counts * T - sum_times)
    if x.count == 0:
        return -integral
    # y(t_i-) counts the latent points strictly before event i.  A point with
    # k events at or before it counts for events k, k + 1, ...: mark it at k,
    # then sum along the events.
    k = np.searchsorted(x.jumps, times, side="right")
    inside = k < x.count
    before = np.zeros((n, x.count), dtype=np.int64)
    np.add.at(before, (rows[inside], k[inside]), 1)
    rates = beta0 + w * np.cumsum(before, axis=1, out=before)
    ok = np.all(rates > 0.0, axis=1)
    with np.errstate(divide="ignore"):
        log_rates = np.sum(np.log(np.where(rates > 0.0, rates, 1.0)), axis=1)
    return np.where(ok, log_rates - integral, -np.inf)


def simulate_latent(gamma: PolyIntensity, T: float, seed=None) -> LatentPath:
    """Latent jump times: unit Poisson arrivals through the inverse of Gamma
    (one path of ``_latent_points``)."""
    gamma.validate_nonneg(T)
    _, times = _latent_points(gamma, T, 1, _as_generator(seed))
    # Distinct masses can collapse to the same time only on flat stretches of
    # Gamma, a probability-zero event; drop numerical ties defensively.
    jumps = np.unique(times[(times > 0.0) & (times <= T)])
    return CountPath(T=T, jumps=jumps)


def simulate(params: ModelParams, T: float, seed=None) -> SimResult:
    """Draw one (X, Y) pair on [0, T]; deterministic given the seed.

    Y is ``simulate_latent``'s path.  Given Y, X is Poisson with the rate
    beta0 + w k on the k-th segment (s_k, s_(k+1)] of the knots 0, s_1, ...,
    T, so its compensator is piecewise linear: a Poisson(Lambda(T)) number of
    uniform masses on (0, Lambda(T)] is mapped back through it, each mass
    onto the time inside its own segment.
    """
    rng = _as_generator(seed)
    y = simulate_latent(params.gamma, T, rng)  # validates gamma >= 0 on [0, T]
    knots = np.concatenate(([0.0], y.jumps, [T]))
    rates = params.beta0 + params.w * np.arange(knots.size - 1)
    comp = np.concatenate(([0.0], np.cumsum(rates * np.diff(knots))))
    masses = comp[-1] * (1.0 - rng.random(rng.poisson(comp[-1])))
    k = np.searchsorted(comp, masses) - 1  # comp[k] < mass <= comp[k + 1]
    # The clip keeps rounding from moving a time out of its segment, so with
    # beta0 = 0 no event falls at or before s_1.  np.unique sorts the times
    # and merges two masses that round to one time, a probability-zero event.
    times = np.clip(knots[k] + (masses - comp[k]) / rates[k], np.nextafter(knots[k], np.inf), knots[k + 1])
    seed_out = seed if isinstance(seed, (int, np.integer)) else None
    return SimResult(
        x=CountPath(T=T, jumps=np.unique(times)),
        y=y,
        seed=None if seed_out is None else int(seed_out),
    )


def conditional_loglik(x: CountPath, y: LatentPath, params: ModelParams) -> float:
    """log p(x | y): sum of log pre-jump rates minus the integrated rate
    (one replica of ``_conditional_logliks``).

    The rate at an x-event uses the left limit y(t-), so a latent jump at the
    identical time does not count.  Returns -inf when any event sees rate 0.
    The integral is exact: beta0 T + w sum_j (T - s_j).
    """
    if x.T != y.T:
        raise ValueError("paths must share the horizon")
    return float(_conditional_logliks(x, params, 1, np.zeros(y.count, dtype=np.intp), y.jumps)[0])
