"""Parameter fitting: random-walk Metropolis over the polynomial coefficients
of the latent rate, and a gradient-based maximum-likelihood counterpart.

The baseline rate and jump weight stay fixed; only the coefficients move.
Proposals are block Gaussian updates.  Coefficient vectors whose polynomial
dips below zero anywhere on [0, T] are outside the posterior support and are
rejected without evaluating the likelihood.  Each fit binds one
``MarginalLikelihood`` to its path, and its ``in_support`` is the only
support check: the start, every proposal and every trial point of the
maximum-likelihood line search go through it.  It reads gamma at the check
times through the matrix V the likelihood built once
(``intensity.nonneg_matrix``), so a proposal costs one (1025 x (degree + 1))
matrix-vector product before anything else.  Both fitters start from one
rule (``_start``): the given start, or by default the constant rate
max(M, 1) / T, refused unless it lies in the support.

A Metropolis proposal draws the uniform u of its accept test with its step.
One inside the support is then tested against
``MarginalLikelihood.loglik_bound``, an upper bound on its log-likelihood
(O(M log M), no pass) from what is already at hand: the proposal's masses,
which its support check computed, and one of the likelihood's own recent
passes, accepted or not, which it keeps and picks by their log-mass tilts
(``marginal``'s module docstring).  When log u is at least the bound's log
posterior ratio (plus a margin far above rounding), the exact test would
reject too, so the proposal is rejected without a pass (early rejection:
Solonen et al., *Bayesian Anal.* 7, 2012).  Only the rest get the likelihood
pass and the exact test.  The chain is the same, draw for draw, as with a
pass for every proposal.  On 128 degree-1 chains on M = 80 paths (250
iterations after a 50-iteration pilot) the main run takes 56 passes per
chain, where a pass for every in-support proposal takes 157 and a bound
against the latest pass alone 91.

``mle_fit`` maximizes the same likelihood by sequential quadratic
programming in numpy, in one loop of its own; its docstring gives the loop's
steps and stopping rules in order.  Each step takes the exact gradient from
``MarginalLikelihood.loglik_grad``, one forward pass over the events, and
solves a quadratic model under the linear constraints V c >= 0, the 1025
rows of the same V, with a dual active-set method (``_qp_step``); a damped
BFGS update keeps the model's Hessian, started at the information of a
Poisson process with X's marginal mean rate.  The line search halves its
step until the Armijo condition holds, and the fit reports its last
accepted iterate.  After each pass the point moves to the best point on its
ray {s c, s >= 0}, which the pass's last row gives exactly
(``MarginalLikelihood.ray``), at no further pass; where that is s = 0 the
fit lands on gamma = 0 at once.  On the benchmark's paths of M = 80 events
(perfbench ``conditioned_path``, seeds 1-13, started at the simulating
coefficients) a fit with two coefficients converges in 2 to 6 likelihood
passes (4.4 on average over 832 paths; 4 to 9 and 7.25 without the ray
move), where a Nelder-Mead simplex needs 130 to 270; with three to five
coefficients it takes 2 to 9 (5.5 to 6.6 on average over 64 paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError, check_count, check_real
from .intensity import check_degree
from .marginal import MarginalLikelihood, MarginalResult
from .paths import CountPath

_TARGET_ACCEPT = 0.25
# Relative slack of mh_fit's early rejection over the likelihood bound.
_BOUND_MARGIN = 1e-9


def _as_vector(value, size: int, name: str) -> np.ndarray:
    """value as a float vector of length size (a scalar broadcasts), each entry a number."""
    items = np.asarray(value, dtype=object)
    arr = np.array([check_real(v, name) for v in items.flat], dtype=float).reshape(items.shape)
    if arr.ndim == 0:
        arr = np.full(size, float(arr))
    if arr.shape != (size,):
        raise ValidationError(f"{name} must be scalar or length {size}")
    return arr


def _start(lik: MarginalLikelihood, x: CountPath, d: int, start) -> np.ndarray:
    """A fit's first point: ``start``, or by default the constant rate
    max(M, 1) / T; it must lie in the likelihood's support."""
    if start is None:
        c = np.zeros(d)
        c[0] = max(x.count, 1) / x.T
    else:
        c = _as_vector(start, d, "start")
    if not lik.in_support(c):
        raise ValidationError("starting coefficients lie outside the likelihood's support")
    return c


@dataclass(frozen=True)
class FitConfig:
    """Controls for the Metropolis sampler.

    ``degree`` lies in 0..``MAX_DEGREE``, checked before any vector is
    built.  Every real setting is a number, not a bool or a string; scalars
    for prior/proposal settings broadcast over all coefficients.
    ``prior_mean`` must be finite, ``prior_sd`` positive (+inf is a flat
    prior) and ``proposal_sd`` finite and positive.
    ``adapt_proposals`` runs a discarded pilot phase that rescales the
    proposal widths toward 25% acceptance before the recorded run.
    ``start`` is the chain's first state, finite, by default the constant
    rate max(M, 1) / T as in ``mle_fit``.
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
    per_coordinate: bool = False

    def __post_init__(self) -> None:
        check_degree(self.degree)
        for name, low in (("burnin", 0), ("thin", 1), ("seed", 0), ("pilot_iters", 0)):
            check_count(getattr(self, name), name, low)
        check_count(self.iters, "iters", self.burnin + 1)
        for name in ("adapt_proposals", "per_coordinate"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValidationError(f"{name} must be true or false, got {getattr(self, name)!r}")
        d = self.degree + 1
        object.__setattr__(self, "prior_mean", _as_vector(self.prior_mean, d, "prior_mean"))
        object.__setattr__(self, "prior_sd", _as_vector(self.prior_sd, d, "prior_sd"))
        object.__setattr__(self, "proposal_sd", _as_vector(self.proposal_sd, d, "proposal_sd"))
        # A NaN fails each test below.
        if not np.all(np.isfinite(self.prior_mean)):
            raise ValidationError("prior_mean must be finite")
        if not np.all(self.prior_sd > 0):
            raise ValidationError("prior_sd must be positive")
        if not np.all(np.isfinite(self.proposal_sd) & (self.proposal_sd > 0)):
            raise ValidationError("proposal_sd must be finite and positive")
        if self.start is not None:
            object.__setattr__(self, "start", _as_vector(self.start, d, "start"))
            if not np.all(np.isfinite(self.start)):
                raise ValidationError("start must be finite")


@dataclass(frozen=True)
class Chain:
    """Posterior draws of the coefficient vector with bookkeeping."""

    draws: np.ndarray          # (n_kept, degree + 1)
    logliks: np.ndarray        # marginal log-likelihood at each kept draw
    accepted: np.ndarray       # whether the iteration producing the draw moved
    accept_rate: float
    n_evals: int               # marginal-likelihood passes in the main run
    n_support_rejected: int
    proposal_sd: np.ndarray    # widths actually used (after any pilot tuning)
    n_bound_rejected: int = 0  # main-run proposals rejected by the likelihood bound, without a pass
    diagnostics: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not 0.0 <= self.accept_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")


# A width near the double range can overflow a proposal step, and a state
# far out in the prior z . z; the support check refuses the first and the
# second gives a prior of -inf.  One errstate for the whole chain keeps both
# quiet with no errstate switch per proposal.
@np.errstate(over="ignore")
def mh_fit(x: CountPath, params_fixed: tuple[float, float], cfg: FitConfig) -> Chain:
    """Block random-walk Metropolis on the coefficients, beta0 and w fixed.

    Target: marginal log-likelihood plus independent normal log-priors.
    Each proposal draws its step, then the uniform of its accept test, and
    is checked in three steps: the support (``in_support``; outside it the
    proposal is rejected outright), the likelihood bound against that
    uniform (``loglik_bound``; rejected without a pass when even the bound
    fails), then the likelihood pass, which reuses the masses of the support
    check, and the exact test.  The bound's reference is one of the
    likelihood's recent passes, accepted or not (module docstring); its
    slack is the largest ``bound_margin`` of any pass so far, so at least
    the reference's and the current state's.  The chain is the one a pass
    for every proposal would give.  Over the main run, ``n_evals`` counts
    the passes, ``n_bound_rejected`` the proposals the bound rejected and
    ``n_support_rejected`` those outside the support, so the three add up to
    ``iters`` in block mode and to ``iters`` x (degree + 1) with
    ``per_coordinate``, one move per coordinate; the start's pass and the
    pilot are not counted.  The pilot (``pilot_iters`` iterations when
    ``adapt_proposals``) and the main run are one loop: the pilot rescales
    the widths after each iteration, and the main run keeps the last widths,
    records draws and starts the counters at 0.  A main run that accepts no
    proposal is reported in ``diagnostics``, the chain's one report of it.
    Deterministic given (data, config, seed).
    """
    beta0, w = params_fixed
    rng = np.random.default_rng(cfg.seed)
    d = cfg.degree + 1

    lik = MarginalLikelihood(x, beta0, w, cfg.degree)
    current = _start(lik, x, d, cfg.start)

    def log_prior(coeffs: np.ndarray) -> float:
        # Past about 1e154 standard deviations z . z overflows to inf, and
        # the prior is -inf (quietly, under mh_fit's errstate).
        z = (coeffs - cfg.prior_mean) / cfg.prior_sd
        return float(-0.5 * np.dot(z, z))

    def bound_margin(res: MarginalResult) -> float:
        """The early rejection's slack at a state or reference with pass
        ``res``: far above the rounding of the bound and of the exact test."""
        return _BOUND_MARGIN * (1.0 + abs(res.polynomial_term_log) + abs(res.exponent_term))

    cur_res = lik.loglik(current)
    cur_post = cur_res.loglik + log_prior(current)
    margin = bound_margin(cur_res)

    # An iteration makes one block move, or one move per coordinate, each
    # with a draw of this size (None: a scalar).
    moves, size = (range(d), None) if cfg.per_coordinate else ((np.s_[:],), d)
    pilot = cfg.pilot_iters if cfg.adapt_proposals else 0
    scale = np.array(cfg.proposal_sd, dtype=float)
    log_width = 0.0
    n_kept = len(range(cfg.burnin, cfg.iters, cfg.thin))
    draws = np.empty((n_kept, d))
    lls = np.empty(n_kept)
    acc_flags = np.zeros(n_kept, dtype=bool)
    n_accept = kept = evals = bound_rejected = n_support = 0
    for t in range(pilot + cfg.iters):
        if t == pilot:  # the counters track the main run only, not the start or the pilot
            evals = bound_rejected = n_support = 0
        moved = False
        for idx in moves:
            prop = current.copy()
            prop[idx] += scale[idx] * rng.standard_normal(size)
            u = rng.random()  # drawn for every proposal, in the support or not
            if not lik.in_support(prop):
                n_support += 1
                continue
            log_u = math.log(u)
            prior = log_prior(prop)
            # The exact test fails wherever the bound's does, up to the margin.
            if log_u >= lik.loglik_bound(prop) + prior - cur_post + margin:
                bound_rejected += 1
                continue
            evals += 1
            res = lik.loglik(prop)
            margin = max(margin, bound_margin(res))
            post = res.loglik + prior
            if log_u < post - cur_post:
                moved = True
                current, cur_res, cur_post = prop, res, post
        if t < pilot:  # toward _TARGET_ACCEPT; the main run keeps the last widths
            log_width += (float(moved) - _TARGET_ACCEPT) / (11 + t) ** 0.6
            scale = cfg.proposal_sd * math.exp(log_width)
            continue
        it = t - pilot
        n_accept += moved
        if it >= cfg.burnin and (it - cfg.burnin) % cfg.thin == 0:
            draws[kept] = current
            lls[kept] = cur_res.loglik
            acc_flags[kept] = moved
            kept += 1

    return Chain(
        draws=draws,
        logliks=lls,
        accepted=acc_flags,
        accept_rate=n_accept / cfg.iters,
        n_evals=evals,
        n_support_rejected=n_support,
        proposal_sd=scale,
        n_bound_rejected=bound_rejected,
        diagnostics=() if n_accept else ("chain never accepted a proposal; widen priors or shrink proposal_sd",),
    )


@dataclass(frozen=True)
class MleResult:
    coeffs: np.ndarray
    loglik: float
    converged: bool
    n_evals: int


_ARMIJO = 1e-4     # sufficient-decrease fraction of the first-order change
_MIN_STEP = 1e-10  # smallest fraction of the QP step the line search tries
_FTOL = 1e-10      # relative change in -loglik that ends the fit
_QP_ITERS = 100    # working-set changes after which a QP returns its last iterate


def _qp_step(
    H: np.ndarray, g: np.ndarray, A: np.ndarray, b: np.ndarray, row_norm: np.ndarray
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Minimize g.p + p.H.p / 2 subject to A p >= b, H symmetric positive definite.

    Dual active-set method (Goldfarb & Idnani, *Math. Programming* 27, 1983):
    start at the unconstrained minimizer -H^-1 g with an empty working set
    and add the most violated row (by distance, slack / |row|) until no row
    is violated by more than 1e-13 of the largest of 1, |A p| and |b|.
    Adding row j moves p along z and the working multipliers along -r,
    where H z + W^T r = A_j and W z = 0 for the working rows W; the step
    stops where row j is met or where a working multiplier reaches zero,
    and that row then leaves the working set.  Every iterate is stationary
    on its working set with nonnegative multipliers, so the first feasible
    one is optimal.  The rows are samples of one polynomial at nearby
    times: a primal method, kept feasible, walks from row to neighbouring
    row as the touching point of gamma moves, while this one goes to the
    deepest dip at once.  ``row_norm`` holds the rows' Euclidean norms,
    which the caller computes once for all the QPs on one A.  Returns p,
    the working rows and their multipliers.
    """
    d = g.size
    p = np.linalg.solve(H, -g)
    work: list[int] = []
    lam = np.zeros(0)
    j, u = -1, 0.0  # the row being added and its multiplier so far
    for _ in range(_QP_ITERS):
        if j < 0:
            Ap = A @ p
            slack = Ap - b
            slack[work] = 0.0
            violated = np.flatnonzero(slack < -1e-13 * max(1.0, np.abs(Ap).max(), np.abs(b).max()))
            if violated.size == 0:
                break
            j, u = int(violated[np.argmin(slack[violated] / row_norm[violated])]), 0.0
        k = len(work)
        kkt = np.zeros((d + k, d + k))
        kkt[:d, :d] = H
        kkt[:d, d:] = A[work].T
        kkt[d:, :d] = A[work]
        sol = np.linalg.solve(kkt, np.concatenate((A[j], np.zeros(k))))
        z, r = sol[:d], sol[d:]
        curv = float(A[j] @ z)  # z.H.z; zero when row j lies in the span of the working rows
        full = -float(A[j] @ p - b[j]) / curv if curv > 1e-14 * row_norm[j] * np.abs(z).max() else math.inf
        shrinking = np.flatnonzero(r > 0.0)
        limits = lam[shrinking] / r[shrinking]
        partial = limits.min(initial=math.inf)
        step = min(full, partial)
        if step == math.inf:  # row j cannot be met; b <= 0 rules this out but for rounding
            break
        p = p + step * z
        lam = lam - step * r
        u += step
        if full <= partial:
            work.append(j)
            lam = np.append(lam, u)
            j = -1
        else:
            leave = int(shrinking[np.argmin(limits)])
            del work[leave]
            lam = np.delete(lam, leave)
    return p, work, lam


def mle_fit(
    x: CountPath,
    params_fixed: tuple[float, float],
    degree: int,
    start: Sequence[float] | None = None,
    budget: int = 2000,
) -> MleResult:
    """Maximum-likelihood coefficients by SQP with exact gradients.

    The fit is one loop, whose steps and stopping rules follow.  Each
    likelihood pass is one ``MarginalLikelihood.loglik_grad``, which returns
    the value and its gradient together.  After every pass the fit moves the
    point it evaluated to the best point on its ray {s c, s >= 0}, which
    ``MarginalLikelihood.ray`` gives exactly from the pass's last row,
    without another pass; the end s = 0 is the zero vector, with no -0.0.
    The move is taken when the ray has such a point, the point lies in the
    support and the move raises loglik by more than 1e-10 relative to
    max(|loglik|, 1), the threshold of the stopping rules below.  The fit
    goes on from the moved point: the first Hessian is built there, and the
    Armijo test, the convergence test and the BFGS update take its value
    and gradient.  At degree 0 the ray is the whole coefficient space, so
    one pass ends the fit.

    The start's pass comes first; the fit ends there when the start's
    log-likelihood is not finite.  The first Hessian is J^T J with J_m =
    w dGamma(t_m) / (beta0 + w Gamma(t_m)) at the start, moved along its
    ray, where dGamma(t) = (t^(p+1) / (p+1))_p: the observed information of
    a Poisson process with X's marginal mean rate beta0 + w Gamma(t), which
    carries the scale of each monomial.  The finite log-likelihood makes
    every denominator positive; with fewer events than coefficients, or
    where rounding leaves J^T J not positive definite, the fit starts from
    I max|gradient| instead.  Built at the moved start rather than the
    given one, it took fewer passes on 64 benchmark paths from the default
    start (4.3 against 4.9 on average at degree 1, 5.3 against 7.5 at
    degree 2) and more from the simulating coefficients (4.4 against 4.0,
    5.5 against 4.8).

    Each iteration then solves the quadratic model of -loglik under the
    linear constraints V c >= 0, where V is the likelihood's own
    ``MarginalLikelihood.V`` (``nonneg_matrix``: the monomials at the times
    ``grid_nonneg`` checks), so the optimizer and the support check see the
    same values of gamma (``_qp_step``; a check time where gamma already
    dips below zero by rounding may not dip further).  The line search has
    one backtracking rule: it halves the step until the trial lies in
    ``MarginalLikelihood.in_support`` and, by one pass, meets the Armijo
    condition; a trial outside the support costs no pass.  A Powell-damped
    BFGS update at the accepted point gives the next model's Hessian.

    ``budget`` caps the likelihood passes and must be at least 1.  The fit
    has ``converged=True`` when the QP step gives no descent, when the
    decrease of -loglik the QP model predicts for its step is at most 1e-10
    relative to max(|-loglik|, 1) (the fit then ends without evaluating the
    step), or when an accepted step's realized decrease is that small; it
    has ``converged=False`` when the start's log-likelihood is not finite or
    the line search stops short: its next trial would be a pass beyond the
    budget, or its step has fallen below 1e-10 of the QP step.  The fit
    reports its last accepted iterate (a rejected trial may have scored
    higher), with c_0 raised, where needed, until V c >= 0 holds with no
    tolerance; by the Armijo condition its log-likelihood falls below the
    start's only by the effect of such a raise.  When the point was moved
    along its ray or c_0 was raised, the log-likelihood is recomputed there
    (one ``loglik`` call outside the count), so it equals ``marginal_loglik``
    at the reported point; ``n_evals`` counts the passes, not the moves.
    Deterministic given the starting point.
    """
    check_count(budget, "budget", 1)
    beta0, w = params_fixed
    d = degree + 1
    lik = MarginalLikelihood(x, beta0, w, degree)
    evals = 0

    def objective(coeffs: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        """One pass at ``coeffs`` (in the support): the point the fit goes on
        from, moved along its ray or ``coeffs`` itself, with -loglik and gradient."""
        nonlocal evals
        evals += 1
        res, grad = lik.loglik_grad(coeffs)
        point, ll = coeffs, res.loglik
        ray = lik.ray(coeffs, res)
        if ray is not None and ray[1] - ll > _FTOL * max(abs(ll), 1.0):
            u, ray_ll, ray_grad = ray
            moved = math.exp(u) * coeffs + 0.0  # + 0.0 turns the -0.0 of s = 0 into 0.0
            if lik.in_support(moved):
                point, ll, grad = moved, ray_ll, ray_grad
        return point, -ll, -grad

    trial = _start(lik, x, d, start)
    c, f, g = objective(trial)
    on_ray = c is not trial
    converged = False
    if math.isfinite(f) and np.isfinite(g).all():
        H = np.eye(d) * (np.abs(g).max() or 1.0)
        if x.count >= d:  # J^T J has rank at most M; Cholesky can still pass on rounding
            grad_cum = x.jumps[:, None] ** np.arange(1, d + 1) / np.arange(1, d + 1)
            J = w * grad_cum / (beta0 + w * (grad_cum @ c))[:, None]
            info = J.T @ J
            try:
                np.linalg.cholesky(info)
                H = info
            except np.linalg.LinAlgError:
                pass
        row_norm = np.linalg.norm(lik.V, axis=1)
        while True:
            p = _qp_step(H, g, lik.V, -np.maximum(lik.V @ c, 0.0), row_norm)[0]
            slope = float(g @ p)
            # No descent left, or the model promises less than the realized
            # decrease that would end the fit one pass later.
            if not slope < 0.0 or -(slope + 0.5 * float(p @ H @ p)) <= _FTOL * max(abs(f), 1.0):
                converged = True
                break
            step = 1.0
            while evals < budget and step >= _MIN_STEP:
                trial = c + step * p
                if lik.in_support(trial):
                    point, f_new, g_new = objective(trial)
                    if f_new <= f + _ARMIJO * step * slope:
                        break
                step *= 0.5
            else:
                break  # the budget is spent, or the step fell below _MIN_STEP
            converged = abs(f - f_new) <= _FTOL * max(abs(f), 1.0)
            s, y = point - c, g_new - g
            c, f, g, on_ray = point, f_new, g_new, point is not trial
            if converged:
                break
            Hs = H @ s
            sHs, sy = float(s @ Hs), float(s @ y)
            theta = 1.0 if sy >= 0.2 * sHs else 0.8 * sHs / (sHs - sy)
            r = theta * y + (1.0 - theta) * Hs
            H = H - np.outer(Hs, Hs) / sHs + np.outer(r, r) / float(s @ r)
    # The QP holds V c >= 0 only to rounding; raise c_0 until the reported
    # rate is nonnegative at every check time, with no tolerance.
    coeffs = np.array(c, dtype=float)
    while (dip := (lik.V @ coeffs).min()) < 0.0:
        coeffs[0] = max(coeffs[0] - dip, np.nextafter(coeffs[0], math.inf))
    ll = lik.loglik(coeffs).loglik if on_ray or not np.array_equal(coeffs, c) else -f
    return MleResult(coeffs=coeffs, loglik=ll, converged=converged, n_evals=evals)


@dataclass(frozen=True)
class ChainSummary:
    coeff_mean: np.ndarray
    coeff_sd: np.ndarray
    coeff_quantiles: np.ndarray  # rows: 2.5%, 50%, 97.5%
    grid: np.ndarray
    gamma_mean: np.ndarray
    gamma_lo: np.ndarray
    gamma_hi: np.ndarray
    cum_mean: np.ndarray
    cum_lo: np.ndarray
    cum_hi: np.ndarray


def summarize(draws: np.ndarray, t_grid: Sequence[float]) -> ChainSummary:
    """Per-coefficient posterior summaries and pointwise bands for the rate
    and its cumulative mass at the times ``t_grid``, from ``draws`` of shape
    (n, degree + 1): a ``Chain``'s draws or ``read_chain_csv``'s."""
    draws = np.asarray(draws, dtype=float)
    if draws.size == 0:
        raise ValidationError("cannot summarize an empty chain")
    sd = np.std(draws, axis=0, ddof=1) if draws.shape[0] > 1 else np.zeros(draws.shape[1])
    ts = np.asarray(t_grid, dtype=float)
    powers = np.vander(ts, draws.shape[1], increasing=True)
    vals = draws @ powers.T
    # Gamma(t) = sum_p c_p t^(p+1) / (p + 1).
    cums = (draws / np.arange(1, draws.shape[1] + 1)) @ (powers * ts[:, None]).T
    return ChainSummary(
        coeff_mean=np.mean(draws, axis=0),
        coeff_sd=sd,
        coeff_quantiles=np.quantile(draws, [0.025, 0.5, 0.975], axis=0),
        grid=ts,
        gamma_mean=vals.mean(axis=0),
        gamma_lo=np.quantile(vals, 0.025, axis=0),
        gamma_hi=np.quantile(vals, 0.975, axis=0),
        cum_mean=cums.mean(axis=0),
        cum_lo=np.quantile(cums, 0.025, axis=0),
        cum_hi=np.quantile(cums, 0.975, axis=0),
    )


def chain_csv(chain: Chain) -> str:
    """The text of a chain CSV: columns iter, c0..cd, loglik, accepted (0/1),
    one row per kept draw, rendered as ``csv.writer`` renders these rows:
    CRLF line ends, and no field that needs quoting.  Each float is its repr,
    so ``read_chain_csv`` reads the draws back bit for bit."""
    d = chain.draws.shape[1]
    draws, logliks = np.asarray(chain.draws, dtype=float), np.asarray(chain.logliks, dtype=float)
    rows = zip(draws.tolist(), logliks.tolist(), chain.accepted.tolist())
    lines = [",".join(["iter", *(f"c{i}" for i in range(d)), "loglik", "accepted"])]
    lines += [",".join([str(i), *map(repr, draw), repr(ll), str(int(acc))]) for i, (draw, ll, acc) in enumerate(rows)]
    return "\r\n".join(lines) + "\r\n"


def bands_csv(summary: ChainSummary) -> str:
    """The text of a bands CSV: columns t, mean, lo, hi (the rate) and
    cum_mean, cum_lo, cum_hi (its cumulative mass), one row per grid time,
    each float its repr, LF line ends."""
    s = summary
    rows = np.column_stack((s.grid, s.gamma_mean, s.gamma_lo, s.gamma_hi, s.cum_mean, s.cum_lo, s.cum_hi))
    lines = ["t,mean,lo,hi,cum_mean,cum_lo,cum_hi", *(",".join(map(repr, row)) for row in rows.tolist())]
    return "\n".join(lines) + "\n"


def read_chain_csv(path: str | Path) -> np.ndarray:
    """The (n_kept, degree + 1) draws of the chain CSV at ``path``.

    The header must be iter, c0, .., c{d-1}, loglik, accepted with d >= 1.
    Every row is checked whole: its field count, an iter that is a
    nonnegative integer (ASCII digits), a loglik that parses as a float, an
    accepted flag of 0 or 1 and finite coefficients; a bad row
    raises ``ValidationError`` naming its line, and so does a file that is
    not UTF-8, naming the file.  One leading byte-order mark is skipped.
    Only the draws are kept, which is all ``summarize`` reads.
    """
    import csv  # imported on use, so that importing marcox does not load it

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None) or []
            d = len(header) - 3
            if d < 1 or header != ["iter", *(f"c{p}" for p in range(d)), "loglik", "accepted"]:
                raise ValidationError("not a chain CSV: expected iter, c0.., loglik, accepted")
            draws = []
            for row in reader:
                if not row:
                    continue
                where = f"chain CSV line {reader.line_num}"
                if len(row) != d + 3:
                    raise ValidationError(f"{where}: expected {d + 3} fields, got {len(row)}")
                if not (row[0].isascii() and row[0].isdigit()):
                    raise ValidationError(f"{where}: iter must be a nonnegative integer, got {row[0]!r}")
                if row[-1] not in ("0", "1"):
                    raise ValidationError(f"{where}: accepted must be 0 or 1, got {row[-1]!r}")
                try:
                    coeffs = [float(v) for v in row[1 : 1 + d]]
                    float(row[-2])
                except ValueError as exc:
                    raise ValidationError(f"{where}: {exc}") from None
                if not all(math.isfinite(c) for c in coeffs):
                    raise ValidationError(f"{where}: coefficients must be finite")
                draws.append(coeffs)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"chain CSV {path} is not valid UTF-8: {exc.reason}") from exc
    if not draws:
        raise ValidationError("chain CSV has no draws")
    return np.asarray(draws, dtype=float)
