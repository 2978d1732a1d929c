"""Exact simulation of the latent and observed processes.

The latent process Y is simulated by thinning (Lewis and Shedler, 1979): a
homogeneous process at the rate ``PolyIntensity.upper_bound`` of gamma on
[0, T], each point kept with probability gamma(t) / bound.  Given Y, the
observed process X is Poisson with the rate beta0 + w Y(t-), constant
between Y's jumps, so its compensator is piecewise linear with knots at
those jumps; ``simulate`` draws Y and then X on that compensator, with no
race between the two.

Two batched functions hold the model's rules for many latent paths at once:
``_latent_points`` draws the latent points of n independent paths, thinned
from one superposed process and labelled by path, and
``_conditional_logliks`` evaluates log p(x | y) for each of them.
``simulate_latent`` is one path of the first, ``conditional_loglik`` one
replica of the second, and the Monte Carlo oracle (``oracles.mc_marginal``)
is their composition, the mean of p(x | Y) over draws of Y.  ``simulate``
takes its Y from ``simulate_latent`` too, so every latent draw goes through
``_latent_points``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .intensity import PolyIntensity
from .paths import CountPath, ModelParams

# A latent path is structurally a count path; the alias keeps signatures honest.
LatentPath = CountPath

# Candidate points are drawn and thinned this many at a time, which bounds
# the working arrays however many points the n paths hold together.
_THIN_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimResult:
    x: CountPath
    y: LatentPath

    def __post_init__(self) -> None:
        if self.x.T != self.y.T:
            raise ValidationError("observed and latent paths must share the horizon")


def _poisson(rng, mean: float, what: str) -> int:
    """One Poisson(mean) count from rng; a mean past the range of
    ``rng.poisson`` raises ``ValidationError`` naming what is counted."""
    try:
        return rng.poisson(mean)
    except ValueError as exc:
        raise ValidationError(f"cannot draw the {what}: their mean count {float(mean)!r} is too large") from exc


def _latent_points(gamma: PolyIntensity, T: float, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Latent points of n independent paths on [0, T], by thinning.

    One Poisson(n bound T) number of candidates uniform on (0, T] is the
    superposition of n homogeneous paths at the rate bound =
    ``gamma.upper_bound(T)``; a candidate at t is kept when bound u < gamma(t)
    for a fresh uniform u.  The kept times are sorted once and each gets a
    uniform path label in 0..n-1, so by the marking theorem the n labelled
    processes are independent Poisson processes with rate gamma.  Returns
    (rows, times): the path label of each point and its time, in ascending
    time, so each path's own points come in ascending order too.  A mean
    n bound T past the range of ``rng.poisson`` raises ``ValidationError``
    (``_poisson``).
    """
    bound = gamma.upper_bound(T)
    count = _poisson(rng, n * bound * T, "latent points")
    kept = [np.empty(0)]
    for start in range(0, count, _THIN_BLOCK):
        size = min(_THIN_BLOCK, count - start)
        cand = T * (1.0 - rng.random(size))
        kept.append(cand[bound * rng.random(size) < gamma.eval_many(cand)])
    times = np.sort(np.concatenate(kept))
    return rng.integers(n, size=times.size), times


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
    """Latent jump times on (0, T] with rate gamma: one path of
    ``_latent_points``, whose times come sorted."""
    gamma.validate_nonneg(T)
    _, times = _latent_points(gamma, T, 1, np.random.default_rng(seed))
    # Two candidates on one float time is a probability-zero event; np.unique
    # drops such a tie, which CountPath would refuse.
    return CountPath(T=T, jumps=np.unique(times))


def simulate(params: ModelParams, T: float, seed=None) -> SimResult:
    """Draw one (X, Y) pair on [0, T]; deterministic given the seed.

    Y is ``simulate_latent``'s path.  Given Y, X is Poisson with the rate
    beta0 + w k on the k-th segment (s_k, s_(k+1)] of the knots 0, s_1, ...,
    T, so its compensator is piecewise linear: a Poisson(Lambda(T)) number of
    uniform masses on (0, Lambda(T)] is mapped back through it, each mass
    onto the time inside its own segment.  A Lambda(T) past the range of
    ``rng.poisson`` raises ``ValidationError``, as a latent mean does.
    """
    rng = np.random.default_rng(seed)
    y = simulate_latent(params.gamma, T, rng)  # validates gamma >= 0 on [0, T]
    knots = np.concatenate(([0.0], y.jumps, [T]))
    rates = params.beta0 + params.w * np.arange(knots.size - 1)
    comp = np.concatenate(([0.0], np.cumsum(rates * np.diff(knots))))
    masses = comp[-1] * (1.0 - rng.random(_poisson(rng, comp[-1], "observed events")))
    k = np.searchsorted(comp, masses) - 1  # comp[k] < mass <= comp[k + 1]
    # The clip keeps rounding from moving a time out of its segment, so with
    # beta0 = 0 no event falls at or before s_1.  np.unique sorts the times
    # and merges two masses that round to one time, a probability-zero event.
    times = np.clip(knots[k] + (masses - comp[k]) / rates[k], np.nextafter(knots[k], np.inf), knots[k + 1])
    return SimResult(x=CountPath(T=T, jumps=np.unique(times)), y=y)


def conditional_loglik(x: CountPath, y: LatentPath, params: ModelParams) -> float:
    """log p(x | y): sum of log pre-jump rates minus the integrated rate
    (one replica of ``_conditional_logliks``).

    The rate at an x-event uses the left limit y(t-), so a latent jump at the
    identical time does not count.  Returns -inf when any event sees rate 0.
    The integral is exact: beta0 T + w sum_j (T - s_j).
    """
    if x.T != y.T:
        raise ValidationError("paths must share the horizon")
    return float(_conditional_logliks(x, params, 1, np.zeros(y.count, dtype=np.intp), y.jumps)[0])
