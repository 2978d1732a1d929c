"""Tests for the Metropolis and maximum-likelihood fitters and the chain CSV."""

import csv
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from marcox import inference
from marcox.errors import ValidationError
from marcox.inference import (
    Chain,
    FitConfig,
    _qp_step,
    bands_csv,
    chain_csv,
    mh_fit,
    mle_fit,
    read_chain_csv,
    summarize,
)
from marcox.intensity import PolyIntensity, nonneg_matrix
from marcox.marginal import MarginalLikelihood, MarginalResult, marginal_loglik
from marcox.paths import CountPath, ModelParams
from marcox.simulator import simulate

from _pinned import pinned_path

BETA0, W = 1.0, 0.5
TRUTH = (1.0, 0.1)


@pytest.fixture(scope="module")
def path():
    x = simulate(ModelParams(BETA0, W, PolyIntensity(TRUTH)), 10.0, seed=11).x
    assert 20 <= x.count <= 120
    return x


NEVER_ACCEPTED = "chain never accepted a proposal; widen priors or shrink proposal_sd"


def config(seed, **kw):
    base = dict(degree=1, iters=120, burnin=20, pilot_iters=30, start=TRUTH, seed=seed)
    return FitConfig(**dict(base, **kw))


class TestMhFit:
    def test_deterministic_per_seed(self, path):
        a = mh_fit(path, (BETA0, W), config(5))
        b = mh_fit(path, (BETA0, W), config(5))
        c = mh_fit(path, (BETA0, W), config(6))
        np.testing.assert_array_equal(a.draws, b.draws)
        np.testing.assert_array_equal(a.logliks, b.logliks)
        assert a.n_evals == b.n_evals and a.n_support_rejected == b.n_support_rejected
        assert not np.array_equal(a.draws, c.draws)

    def test_logliks_are_marginal_loglik_at_draws(self, path):
        chain = mh_fit(path, (BETA0, W), config(7))
        assert chain.accept_rate > 0.0
        for draw, ll in zip(chain.draws, chain.logliks):
            params = ModelParams(BETA0, W, PolyIntensity(tuple(draw)))
            assert marginal_loglik(path, params).loglik == ll

    def test_one_support_check_per_proposal(self, path, monkeypatch):
        """The likelihood's in_support is the sampler's only support check."""
        calls, nonneg_calls = [], []
        original = MarginalLikelihood.in_support

        def counting(self, coeffs):
            calls.append(np.array(coeffs))
            return original(self, coeffs)

        monkeypatch.setattr(MarginalLikelihood, "in_support", counting)
        monkeypatch.setattr(PolyIntensity, "is_nonneg", lambda self, T: nonneg_calls.append(T))
        # Wide proposals so that some leave the support.
        cfg = config(3, proposal_sd=0.4, adapt_proposals=False)
        chain = mh_fit(path, (BETA0, W), cfg)
        assert chain.n_support_rejected > 0
        assert len(calls) == cfg.iters + 1  # the start, then one per proposal
        assert nonneg_calls == []

    def test_masses_computed_once_per_proposal(self, path, monkeypatch):
        """A proposal's likelihood pass reuses the masses of its support check."""
        calls = []
        original = MarginalLikelihood._masses

        def counting(self, coeffs):
            calls.append(np.array(coeffs))
            return original(self, coeffs)

        monkeypatch.setattr(MarginalLikelihood, "_masses", counting)
        cfg = config(3, proposal_sd=0.4, adapt_proposals=False)
        chain = mh_fit(path, (BETA0, W), cfg)
        assert chain.n_evals > 0
        assert len(calls) == cfg.iters + 1  # one per support check, none per pass

    @pytest.mark.parametrize(
        "kw",
        [
            {},
            {"adapt_proposals": False, "proposal_sd": 0.2},
            {"per_coordinate": True},
            {"degree": 2, "start": TRUTH + (0.0,), "per_coordinate": True, "proposal_sd": 0.05},
        ],
        ids=["block-pilot", "block", "per-coordinate", "per-coordinate-degree-2"],
    )
    def test_bound_rejection_leaves_the_chain_unchanged(self, path, monkeypatch, kw):
        """Early rejection by loglik_bound gives the chain of an exact test at
        every proposal, bit for bit, with fewer likelihood passes."""
        cfg = config(8, iters=300, burnin=50, pilot_iters=100, **kw)
        fast = mh_fit(path, (BETA0, W), cfg)
        monkeypatch.setattr(MarginalLikelihood, "loglik_bound", lambda self, c, refs: math.inf)
        slow = mh_fit(path, (BETA0, W), cfg)
        for name in ("draws", "logliks", "accepted", "proposal_sd"):
            assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes()
        assert fast.accept_rate == slow.accept_rate
        assert fast.n_support_rejected == slow.n_support_rejected
        assert slow.n_bound_rejected == 0 < fast.n_bound_rejected
        assert fast.n_evals < slow.n_evals
        assert fast.n_evals + fast.n_bound_rejected == slow.n_evals

    @pytest.mark.parametrize("degree", [1, 2])
    def test_recent_passes_bound_more_proposals(self, monkeypatch, degree):
        """On a pinned M = 80 path the bound against the recent pass of the
        nearest tilt gives the chain of a pass for every proposal, bit for
        bit, with fewer passes than a bound against the current state's
        pass alone."""
        x = fit_path(40)
        start = (TRUTH + (0.0,))[: degree + 1]
        cfg = FitConfig(degree=degree, iters=250, burnin=50, pilot_iters=50, start=start, seed=4)
        ring = mh_fit(x, (BETA0, W), cfg)
        bound = MarginalLikelihood.loglik_bound
        monkeypatch.setattr(MarginalLikelihood, "loglik_bound", lambda self, c, refs: bound(self, c, refs[:1]))
        current_only = mh_fit(x, (BETA0, W), cfg)
        monkeypatch.setattr(MarginalLikelihood, "loglik_bound", lambda self, c, refs: math.inf)
        exact = mh_fit(x, (BETA0, W), cfg)
        for chain in (ring, current_only):
            for name in ("draws", "logliks", "accepted", "proposal_sd"):
                assert getattr(chain, name).tobytes() == getattr(exact, name).tobytes()
            assert chain.n_support_rejected == exact.n_support_rejected
            assert chain.n_evals + chain.n_bound_rejected == exact.n_evals
        assert ring.n_evals < current_only.n_evals < exact.n_evals

    @pytest.mark.parametrize(
        "kw",
        [
            {},
            {"adapt_proposals": False, "proposal_sd": 0.2},
            {"degree": 2, "start": TRUTH + (0.0,), "per_coordinate": True, "proposal_sd": 0.05},
        ],
        ids=["block-pilot", "block", "per-coordinate-degree-2"],
    )
    def test_kept_masses_leave_the_chain_unchanged(self, path, monkeypatch, kw):
        """The record MarginalLikelihood keeps between a proposal's support
        check, bound and pass gives the chain of a run that clears it before
        every lookup, bit for bit."""
        cfg = config(9, iters=300, burnin=50, pilot_iters=100, **kw)
        record, masses = MarginalLikelihood._record, MarginalLikelihood._masses
        built = []

        def counting(self, coeffs):
            built.append(1)
            return masses(self, coeffs)

        def forgetting(self, coeffs):
            self._kept = None
            return record(self, coeffs)

        monkeypatch.setattr(MarginalLikelihood, "_masses", counting)
        kept = mh_fit(path, (BETA0, W), cfg)
        n_kept = len(built)
        monkeypatch.setattr(MarginalLikelihood, "_record", forgetting)
        cleared = mh_fit(path, (BETA0, W), cfg)
        assert len(built) - n_kept > n_kept  # the kept record served some lookups
        for name in ("draws", "logliks", "accepted", "proposal_sd"):
            assert getattr(kept, name).tobytes() == getattr(cleared, name).tobytes()
        for name in ("accept_rate", "n_evals", "n_bound_rejected", "n_support_rejected"):
            assert getattr(kept, name) == getattr(cleared, name)

    @pytest.mark.parametrize("adapt", [True, False])
    def test_block_counts_add_up_to_iters(self, path, adapt):
        """Each main-run iteration in block mode is one pass, one bound
        rejection or one support rejection; the start and pilot are not counted."""
        cfg = config(3, iters=400, burnin=0, proposal_sd=0.4, adapt_proposals=adapt)
        chain = mh_fit(path, (BETA0, W), cfg)
        assert chain.n_support_rejected > 0 and chain.n_bound_rejected > 0
        assert chain.n_evals + chain.n_bound_rejected + chain.n_support_rejected == cfg.iters

    def test_impossible_start_is_never_bound_rejected(self, monkeypatch):
        """From a start of log-likelihood -inf the bound rejects nothing, and
        the chain leaves it as it would without the bound."""
        x = CountPath(1.0, np.array([0.2, 0.6]))
        cfg = FitConfig(degree=0, start=(0.0,), iters=50, burnin=0, adapt_proposals=False, seed=1)
        chain = mh_fit(x, (0.0, 1.0), cfg)
        monkeypatch.setattr(MarginalLikelihood, "loglik_bound", lambda self, c, refs: math.inf)
        slow = mh_fit(x, (0.0, 1.0), cfg)
        assert chain.draws.tobytes() == slow.draws.tobytes()
        assert chain.logliks.tobytes() == slow.logliks.tobytes()
        assert chain.accepted[0] and math.isfinite(chain.logliks[0])

    @pytest.mark.parametrize(
        ("iters", "burnin", "thin", "kept"),
        [(300, 100, 3, 67), (300, 100, 500, 1), (120, 20, 1, 100)],
    )
    def test_keeps_every_thin_th_draw_after_burnin(self, path, iters, burnin, thin, kept):
        """Draws at iterations burnin, burnin + thin, ...: the last one when
        thin does not divide iters - burnin, and the first when thin exceeds it."""
        cfg = config(2, iters=iters, burnin=burnin, thin=thin)
        chain = mh_fit(path, (BETA0, W), cfg)
        full = mh_fit(path, (BETA0, W), config(2, iters=iters, burnin=0, thin=1))
        assert chain.draws.shape == (kept, 2)
        np.testing.assert_array_equal(chain.draws, full.draws[burnin:iters:thin])

    def test_prior_only_chain_matches_the_prior(self, path, monkeypatch):
        """Under a flat likelihood the chain samples the normal prior.  Each
        comparison allows 4 standard errors, from the chain's own ESS."""

        class FlatLikelihood:
            def __init__(self, x, beta0, w, degree):
                pass

            def in_support(self, coeffs):
                return True

            def loglik(self, coeffs):
                return MarginalResult(0.0, 0.0, 0.0)

            def loglik_bound(self, coeffs, refs):
                return 0.0

        monkeypatch.setattr(inference, "MarginalLikelihood", FlatLikelihood)
        mean, sd = np.array([1.0, -2.0]), np.array([0.5, 3.0])
        cfg = FitConfig(
            degree=1,
            prior_mean=mean,
            prior_sd=sd,
            proposal_sd=sd,
            iters=20000,
            burnin=1000,
            seed=9,
            start=mean,
        )
        chain = mh_fit(path, (BETA0, W), cfg)
        assert chain.n_support_rejected == 0
        for p in range(2):
            draws = chain.draws[:, p]
            got_mean = draws.mean()
            se_mean = draws.std(ddof=1) / math.sqrt(ess(draws))
            assert abs(got_mean - mean[p]) <= 4.0 * se_mean
            sq = (draws - got_mean) ** 2
            got_sd = math.sqrt(sq.mean())
            # Delta method: se(sd) = se(variance) / (2 sd).
            se_sd = sq.std(ddof=1) / math.sqrt(ess(sq)) / (2.0 * got_sd)
            assert abs(got_sd - sd[p]) <= 4.0 * se_sd

    def test_huge_proposal_width_has_a_prior_of_minus_inf_without_warning(self):
        """At widths of 1e160 z . z overflows in the prior, which is then
        -inf without a numpy RuntimeWarning: the chain's only warning is
        that it never moved, and it moves as at width 1e6."""
        x = CountPath(8.0, np.array([1.0, 2.0, 4.5]))
        cfg = FitConfig(degree=1, iters=30, burnin=5, adapt_proposals=False, proposal_sd=1e160, seed=1)
        with pytest.warns(RuntimeWarning) as record:
            chain = mh_fit(x, (0.5, 0.7), cfg)
        assert [str(w.message) for w in record] == [NEVER_ACCEPTED]
        assert (chain.n_support_rejected, chain.n_bound_rejected, chain.n_evals) == (23, 7, 0)

    @pytest.mark.parametrize("per_coordinate", [False, True], ids=["block", "per-coordinate"])
    def test_overflowing_proposal_step_is_quiet(self, per_coordinate):
        """At widths of 1e308 the proposal step itself overflows, and the
        support check refuses what it gives, without a numpy RuntimeWarning:
        the chain's only warning is that it never moved."""
        x = CountPath(8.0, np.array([1.0, 2.0, 4.5]))
        cfg = FitConfig(
            degree=1, iters=30, burnin=5, adapt_proposals=False, proposal_sd=1e308, seed=1, per_coordinate=per_coordinate
        )
        with pytest.warns(RuntimeWarning) as record:
            chain = mh_fit(x, (0.5, 0.7), cfg)
        assert [str(w.message) for w in record] == [NEVER_ACCEPTED]
        assert chain.n_evals == 0 and chain.n_support_rejected > 0

    def test_chain_that_never_moves_warns_once(self):
        """Proposal widths of 1e6 leave every proposal outside the support or
        rejected by the likelihood bound: one RuntimeWarning, whose message
        is the chain's only diagnostic."""
        x = CountPath(8.0, np.array([1.0, 2.0, 4.5]))
        cfg = FitConfig(degree=1, iters=30, burnin=5, adapt_proposals=False, proposal_sd=1e6, seed=1)
        with pytest.warns(RuntimeWarning) as record:
            chain = mh_fit(x, (0.5, 0.7), cfg)
        assert [str(w.message) for w in record] == [NEVER_ACCEPTED]
        assert chain.diagnostics == (NEVER_ACCEPTED,)
        assert chain.accept_rate == 0.0 and not chain.accepted.any()
        assert (chain.n_support_rejected, chain.n_bound_rejected, chain.n_evals) == (23, 7, 0)


def ess(draws):
    """Effective sample size by Geyer's initial positive sequence."""
    x = np.asarray(draws, dtype=float) - np.mean(draws)
    n = x.size
    spec = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec))[:n]
    rho = acov / acov[0]
    tau = -1.0
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return n / tau


# The fitting regime (beta0 = 1, w = 0.5, gamma = 1 + 0.1 t, T = 15): pinned
# paths with exactly M = 80 events.  The optimum of 386, 463, 631 and 695
# lies on the boundary of the support, at c_0 = 0.
FIT_SEEDS = (40, 141, 176, 386, 392, 449, 463, 501, 631, 695)
BOUNDARY_SEEDS = (386, 463, 631, 695)


def fit_path(seed):
    x = pinned_path(ModelParams(BETA0, W, PolyIntensity(TRUTH)), 15.0, seed)
    assert x.count == 80
    return x


def nelder_mead(x, start, maxfev=2000):
    """A long -inf-barrier Nelder-Mead run on -loglik (scipy's result)."""
    lik = MarginalLikelihood(x, BETA0, W, len(start) - 1)

    def objective(coeffs):
        if not PolyIntensity(tuple(coeffs)).is_nonneg(x.T):
            return math.inf
        return -lik.loglik(coeffs).loglik

    opts = {"maxfev": maxfev, "xatol": 1e-9, "fatol": 1e-9}
    return minimize(objective, np.asarray(start, float), method="Nelder-Mead", options=opts)


def nelder_mead_best(x, start, maxfev=2000):
    """Best log-likelihood of a long -inf-barrier Nelder-Mead run."""
    return -nelder_mead(x, start, maxfev).fun


def slsqp_best(x, start):
    """Log-likelihood at scipy's SLSQP optimum under V c >= 0, with exact
    gradients, started from the Nelder-Mead point.  At degree 3-4 the simplex
    stops up to 0.33 nats short of the optimum; SLSQP never ends below it."""
    simplex = nelder_mead(x, start)
    lik = MarginalLikelihood(x, BETA0, W, len(start) - 1)
    V = lik.V

    def objective(coeffs):
        res, grad = lik.loglik_grad(coeffs)
        return -res.loglik, -grad

    support = {"type": "ineq", "fun": lambda c: V @ c, "jac": lambda c: V}
    opts = {"ftol": 1e-14, "maxiter": 1000}
    c = minimize(objective, simplex.x, jac=True, method="SLSQP", constraints=[support], options=opts).x
    # The same move onto V c >= 0 as mle_fit's, so both are scored in the support.
    while (dip := (V @ c).min()) < 0.0:
        c[0] = max(c[0] - dip, np.nextafter(c[0], math.inf))
    best = lik.loglik(c).loglik
    assert best >= -simplex.fun - 1e-9
    return best


def qp_hessians(monkeypatch):
    """The Hessians of the QP models solved by _qp_step, recorded as they come."""
    seen = []

    def recording(H, g, A, b, row_norm):
        seen.append(H.copy())
        return _qp_step(H, g, A, b, row_norm)

    monkeypatch.setattr(inference, "_qp_step", recording)
    return seen


class TestMleFit:
    @pytest.mark.parametrize("seed", FIT_SEEDS)
    def test_reaches_long_nelder_mead_optimum(self, seed):
        x = fit_path(seed)
        res = mle_fit(x, (BETA0, W), degree=1, start=TRUTH, budget=100)
        assert res.converged
        assert res.n_evals <= 10
        assert res.loglik >= nelder_mead_best(x, TRUTH) - 1e-6
        gamma = PolyIntensity(tuple(res.coeffs))
        assert gamma.is_nonneg(x.T)
        assert (nonneg_matrix(x.T, 1) @ res.coeffs).min() >= 0.0
        if seed in BOUNDARY_SEEDS:
            assert abs(res.coeffs[0]) < 1e-9

    def test_degree_two(self):
        truth = (0.5, 0.1, 0.02)
        x = simulate(ModelParams(BETA0, W, PolyIntensity(truth)), 10.0, seed=1).x
        assert 30 <= x.count <= 120
        res = mle_fit(x, (BETA0, W), degree=2, start=truth, budget=200)
        assert res.converged and res.coeffs.shape == (3,)
        assert res.n_evals <= 12
        assert PolyIntensity(tuple(res.coeffs)).is_nonneg(x.T)
        assert res.loglik >= nelder_mead_best(x, truth) - 1e-6
        params = ModelParams(BETA0, W, PolyIntensity(tuple(res.coeffs)))
        assert marginal_loglik(x, params).loglik == res.loglik

    @pytest.mark.parametrize("degree", [3, 4])
    @pytest.mark.parametrize("seed", [40, 386, 463])
    def test_high_degree(self, seed, degree):
        x = fit_path(seed)
        start = TRUTH + (0.0,) * (degree - 1)
        res = mle_fit(x, (BETA0, W), degree=degree, start=start, budget=200)
        assert res.converged and res.n_evals <= 15
        assert res.loglik >= slsqp_best(x, start) - 1e-6

    @pytest.mark.parametrize("seed", FIT_SEEDS)
    def test_restart_at_the_optimum_takes_one_pass(self, seed):
        """The QP step's predicted decrease ends a fit started at its own
        optimum before any trial point is evaluated."""
        x = fit_path(seed)
        first = mle_fit(x, (BETA0, W), degree=1, start=TRUTH)
        again = mle_fit(x, (BETA0, W), degree=1, start=first.coeffs)
        assert again.converged and again.n_evals == 1
        assert again.loglik == first.loglik
        # Nor is the optimum moved along its ray.
        np.testing.assert_array_equal(again.coeffs, first.coeffs)

    @pytest.mark.parametrize("seed", [40, 386, 631])
    def test_degree_zero_takes_one_pass(self, seed):
        """At degree 0 the ray through the start is the whole coefficient
        space, so the move after the first pass lands on the optimum."""
        x = fit_path(seed)
        res = mle_fit(x, (BETA0, W), degree=0, start=(1.0,))
        assert res.converged and res.n_evals == 1
        assert res.loglik == pytest.approx(nelder_mead_best(x, (1.0,)), rel=0, abs=1e-9)
        assert marginal_loglik(x, ModelParams(BETA0, W, PolyIntensity(tuple(res.coeffs)))).loglik == res.loglik

    def test_starts_from_the_poisson_information(self, monkeypatch):
        """The first QP model's Hessian is J^T J with J_m = w dGamma(t_m) /
        (beta0 + w Gamma(t_m)), the information of a Poisson process with
        the marginal mean rate of X, at the start moved to the best point
        on its ray."""
        hessians = qp_hessians(monkeypatch)
        x = fit_path(40)
        mle_fit(x, (BETA0, W), degree=1, start=TRUTH)
        lik = MarginalLikelihood(x, BETA0, W, 1)
        scale = math.exp(lik.ray(TRUTH, lik.loglik_grad(TRUTH)[0])[0])
        assert scale < 0.9
        c0, c1 = scale * TRUTH[0], scale * TRUTH[1]
        t = x.jumps
        J = W * np.column_stack([t, t**2 / 2]) / (BETA0 + W * (c0 * t + c1 * t**2 / 2))[:, None]
        np.testing.assert_allclose(hessians[0], J.T @ J, rtol=1e-12)

    @pytest.mark.parametrize("jumps", [[], [3.7]], ids=["M=0", "M=1"])
    def test_too_few_events_start_from_a_scaled_identity(self, monkeypatch, jumps):
        """With fewer events than coefficients J^T J is singular; the fit
        starts from I max|gradient| instead and still converges."""
        hessians = qp_hessians(monkeypatch)
        res = mle_fit(CountPath(10.0, np.array(jumps)), (BETA0, W), degree=2)
        assert res.converged
        H = hessians[0]
        assert H[0, 0] > 0.0 and np.array_equal(H, H[0, 0] * np.eye(3))

    def test_impossible_start_stops_after_one_pass(self):
        """beta0 = 0 and gamma = 0 cannot produce an event: the start's
        log-likelihood is -inf, and the fit stops there without a warning."""
        x = CountPath(10.0, np.array([1.0, 2.5, 7.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = mle_fit(x, (0.0, W), degree=1, start=(0.0, 0.0))
        assert not res.converged and res.n_evals == 1
        assert res.loglik == -math.inf
        np.testing.assert_array_equal(res.coeffs, [0.0, 0.0])

    def test_points_outside_the_support_cost_no_pass(self, monkeypatch):
        """A trial point outside the support halves the step without a
        likelihood pass and does not count toward the budget.  The support
        check here refuses the first line-search trial: its third call, after
        the start's and that of the start moved along its ray."""
        rejected, passes, calls = [], [], []
        in_support, loglik_grad = MarginalLikelihood.in_support, MarginalLikelihood.loglik_grad

        def checking(self, coeffs):
            calls.append(None)
            ok = in_support(self, coeffs) and len(calls) != 3
            if not ok:
                rejected.append(np.array(coeffs))
            return ok

        def passing(self, coeffs):
            passes.append(np.array(coeffs))
            return loglik_grad(self, coeffs)

        monkeypatch.setattr(MarginalLikelihood, "in_support", checking)
        monkeypatch.setattr(MarginalLikelihood, "loglik_grad", passing)
        res = mle_fit(fit_path(386), (BETA0, W), degree=1, start=TRUTH, budget=100)
        assert rejected and res.converged
        # The refused point is off the start's ray: a line-search trial.
        assert abs(rejected[0][0] * TRUTH[1] - rejected[0][1] * TRUTH[0]) > 1e-3
        assert res.n_evals == len(passes)
        assert not any(np.array_equal(r, p) for r in rejected for p in passes)

    def test_a_trial_that_fails_armijo_halves_the_step(self, monkeypatch):
        """A line-search trial that fails the Armijo test halves the step, as
        one outside the support does.  The first trial, the fit's second
        pass, scores 100 nats below its value here (its ray with it), so the
        second trial lies halfway from the start moved along its ray to the
        first; the fit still converges on true values."""
        passes = []
        loglik_grad = MarginalLikelihood.loglik_grad

        def worse_first_trial(self, coeffs):
            passes.append(np.array(coeffs))
            res, grad = loglik_grad(self, coeffs)
            if len(passes) == 2:
                res = dataclasses.replace(res, loglik=res.loglik - 100.0)
            return res, grad

        monkeypatch.setattr(MarginalLikelihood, "loglik_grad", worse_first_trial)
        x = fit_path(40)
        res = mle_fit(x, (BETA0, W), degree=1, start=TRUTH, budget=100)
        lik = MarginalLikelihood(x, BETA0, W, 1)
        moved_start = math.exp(lik.ray(TRUTH, loglik_grad(lik, TRUTH)[0])[0]) * np.asarray(TRUTH)
        np.testing.assert_allclose(passes[2], (moved_start + passes[1]) / 2, rtol=1e-13)
        assert res.converged and res.n_evals == len(passes) <= 100
        assert res.loglik >= marginal_loglik(x, ModelParams(BETA0, W, PolyIntensity(TRUTH))).loglik
        assert marginal_loglik(x, ModelParams(BETA0, W, PolyIntensity(tuple(res.coeffs)))).loglik == res.loglik

    def test_a_small_realized_decrease_ends_the_fit(self, monkeypatch):
        """Five events over T = 5 with beta0 = 1 need no latent rate: the
        log-likelihood rises toward -beta0 T = -5 as gamma falls to 0.  The
        fit ends when an accepted step gains at most 1e-10 relative, after a
        pass at the step's point and not on a QP model, and reports that
        point."""
        events = []
        qp_step, loglik_grad = inference._qp_step, MarginalLikelihood.loglik_grad

        def qp(*args):
            events.append("qp")
            return qp_step(*args)

        def passing(self, coeffs):
            events.append("pass")
            return loglik_grad(self, coeffs)

        monkeypatch.setattr(inference, "_qp_step", qp)
        monkeypatch.setattr(MarginalLikelihood, "loglik_grad", passing)
        x = CountPath(5.0, np.array([1.8, 2.0, 3.0, 3.7, 4.5]))
        res = mle_fit(x, (BETA0, W), degree=1)
        assert res.converged and events[-1] == "pass"
        assert res.n_evals == events.count("pass") <= 2000
        assert res.loglik >= marginal_loglik(x, ModelParams(BETA0, W, PolyIntensity((1.0, 0.0)))).loglik
        assert marginal_loglik(x, ModelParams(BETA0, W, PolyIntensity(tuple(res.coeffs)))).loglik == res.loglik
        assert -5.0 - 1e-9 < res.loglik < -5.0

    def test_a_failed_cholesky_starts_from_a_scaled_identity(self, monkeypatch):
        """Where Cholesky refuses J^T J the fit starts from I max|gradient|,
        as with too few events, and still converges."""
        def refusing(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        hessians = qp_hessians(monkeypatch)
        monkeypatch.setattr(np.linalg, "cholesky", refusing)
        x = fit_path(40)
        res = mle_fit(x, (BETA0, W), degree=1, start=TRUTH, budget=100)
        H = hessians[0]
        assert H[0, 0] > 0.0 and np.array_equal(H, H[0, 0] * np.eye(2))
        assert res.converged and res.n_evals <= 100
        assert res.loglik >= marginal_loglik(x, ModelParams(BETA0, W, PolyIntensity(TRUTH))).loglik
        assert marginal_loglik(x, ModelParams(BETA0, W, PolyIntensity(tuple(res.coeffs)))).loglik == res.loglik

    def test_budget_stops_the_fit(self, path):
        # The fit needs more passes than the budget.
        assert mle_fit(path, (BETA0, W), degree=1, start=TRUTH).n_evals > 1
        res = mle_fit(path, (BETA0, W), degree=1, start=TRUTH, budget=1)
        start = marginal_loglik(path, ModelParams(BETA0, W, PolyIntensity(TRUTH))).loglik
        assert res.n_evals == 1 and not res.converged
        assert res.loglik >= start

    @pytest.mark.parametrize("budget", [15, 60])
    def test_never_below_start_and_within_budget(self, path, budget):
        res = mle_fit(path, (BETA0, W), degree=1, start=TRUTH, budget=budget)
        start = marginal_loglik(path, ModelParams(BETA0, W, PolyIntensity(TRUTH))).loglik
        assert res.loglik >= start
        assert res.n_evals <= budget
        best = marginal_loglik(path, ModelParams(BETA0, W, PolyIntensity(tuple(res.coeffs))))
        assert best.loglik == res.loglik

    @pytest.mark.parametrize("degree, start", [(1, TRUTH), (2, None)])
    @pytest.mark.parametrize("seed", FIT_SEEDS[:3])
    def test_budget_stops_the_line_search(self, seed, degree, start):
        """A budget below the passes of the unbounded fit ends the fit when
        its line search would need one more pass: all of the budget spent,
        not converged, never below the start.  A budget at or above them
        gives the unbounded fit, bit for bit."""
        x = fit_path(seed)
        full = mle_fit(x, (BETA0, W), degree, start)
        assert full.converged and full.n_evals > 2
        lik = MarginalLikelihood(x, BETA0, W, degree)
        first = lik.loglik(start or (max(x.count, 1) / x.T,) + (0.0,) * degree).loglik  # start or default
        for budget in range(1, full.n_evals + 2):
            res = mle_fit(x, (BETA0, W), degree, start, budget)
            if budget < full.n_evals:
                assert res.n_evals == budget and not res.converged
                assert res.loglik >= first
            else:
                assert (res.n_evals, res.converged, res.loglik) == (full.n_evals, True, full.loglik)
                np.testing.assert_array_equal(res.coeffs, full.coeffs)

    def test_budget_below_one_rejected(self, path):
        with pytest.raises(ValidationError, match="budget"):
            mle_fit(path, (BETA0, W), degree=1, start=TRUTH, budget=0)


@pytest.mark.parametrize("degree", [1.5, True, 9], ids=["float", "bool", "above-max"])
@pytest.mark.parametrize(
    "take",
    [
        lambda x, degree: MarginalLikelihood(x, BETA0, W, degree),
        lambda x, degree: mle_fit(x, (BETA0, W), degree),
        lambda x, degree: FitConfig(degree=degree),
    ],
    ids=["MarginalLikelihood", "mle_fit", "FitConfig"],
)
def test_bad_degree_is_a_validation_error(take, degree):
    """Every site that takes a degree applies one rule: an integer, not a
    bool, in 0..MAX_DEGREE."""
    with pytest.raises(ValidationError, match="^degree must be"):
        take(CountPath(10.0, np.array([1.0, 2.5])), degree)


@pytest.mark.parametrize(
    "fit",
    [
        lambda x, start: mle_fit(x, (BETA0, W), 1, start=start),
        lambda x, start: FitConfig(degree=1, start=start),
    ],
    ids=["mle_fit", "FitConfig"],
)
@pytest.mark.parametrize("start", [(1.0, 0.1, 0.0), (1.0,), [[1.0, 0.1]]], ids=["long", "short", "2-D"])
def test_start_of_the_wrong_length_is_a_validation_error(fit, start):
    """A start is a scalar or one value per coefficient."""
    with pytest.raises(ValidationError, match="^start must be scalar or length 2$"):
        fit(CountPath(10.0, np.array([1.0, 2.5])), start)


@pytest.mark.parametrize("seed", range(40))
def test_qp_step_solves_the_qp(seed):
    """_qp_step against nonneg_matrix rows: feasible, stationary on its working
    set with nonnegative multipliers, and within 1e-10 of SLSQP.  The problem
    is drawn for the scaled step y_k = T^k p_k, where SLSQP is well
    conditioned, and _qp_step solves it for p; every third start touches
    zero at a check time."""
    rng = np.random.default_rng(seed)
    d = 1 + seed % 4
    T = rng.uniform(0.5, 30.0)
    V = nonneg_matrix(T, d - 1)
    D = T ** np.arange(d)
    M = rng.standard_normal((d, d))
    # The positive bias in the gradient pushes gamma down, into the constraints.
    Hy, gy, y0 = M @ M.T + 0.1 * np.eye(d), 3.0 * rng.standard_normal(d) + 2.0, rng.standard_normal(d)
    y0[0] += -(V / D @ y0).min() + (0.0 if seed % 3 == 0 else rng.uniform(0.0, 0.5))
    c, H, g = y0 / D, D[:, None] * Hy * D, D * gy
    b = -np.maximum(V @ c, 0.0)

    p, work, lam = _qp_step(H, g, V, b, np.linalg.norm(V, axis=1))
    values = V @ (c + p)
    assert values.min() >= -1e-12 * max(1.0, np.abs(values).max())
    assert len(set(work)) == len(work) == lam.size <= d
    np.testing.assert_allclose(H @ p + g, V[work].T @ lam, rtol=0, atol=1e-10 * np.abs(g).max())
    assert (lam >= 0.0).all()
    ref = minimize(
        lambda y: gy @ y + 0.5 * y @ Hy @ y,
        np.zeros(d),
        jac=lambda y: gy + Hy @ y,
        method="SLSQP",
        constraints={"type": "ineq", "fun": lambda y: V / D @ y - b, "jac": lambda y: V / D},
        options={"ftol": 1e-15, "maxiter": 500},
    )
    # SLSQP may end a rounding error outside the constraints, and lower there.
    if (V / D @ ref.x - b).min() >= 0.0:
        value = g @ p + 0.5 * p @ H @ p
        assert value <= ref.fun + 1e-10
        if ref.success:
            assert value == pytest.approx(ref.fun, rel=0, abs=1e-10)


class TestStart:
    """Both fitters take their first point from one rule."""

    @staticmethod
    def first_point(fitter, x, degree, monkeypatch, start=None):
        """The point of the fitter's first likelihood pass."""

        class FirstPass(Exception):
            pass

        def stop(self, coeffs):
            raise FirstPass(coeffs)

        monkeypatch.setattr(MarginalLikelihood, "loglik_grad" if fitter is mle_fit else "loglik", stop)
        with pytest.raises(FirstPass) as info:
            if fitter is mle_fit:
                mle_fit(x, (BETA0, W), degree, start)
            else:
                mh_fit(x, (BETA0, W), FitConfig(degree=degree, start=start))
        return info.value.args[0]

    @pytest.mark.parametrize("fitter", [mh_fit, mle_fit])
    @pytest.mark.parametrize("jumps", [(), (1.0, 2.5, 4.0)])
    def test_default_is_the_constant_rate(self, fitter, jumps, monkeypatch):
        """By default the rate is max(M, 1) / T, with M = 0 included."""
        x = CountPath(5.0, np.array(jumps))
        got = self.first_point(fitter, x, 2, monkeypatch)
        np.testing.assert_array_equal(got, [max(len(jumps), 1) / 5.0, 0.0, 0.0])

    @pytest.mark.parametrize("fitter", [mh_fit, mle_fit])
    def test_start_outside_the_support_is_refused(self, fitter, monkeypatch):
        x = CountPath(5.0, np.array([1.0, 2.5]))
        with pytest.raises(ValidationError, match="starting coefficients give a negative intensity"):
            self.first_point(fitter, x, 1, monkeypatch, start=(1.0, -1.0))


def test_bands_csv_reads_back_exactly():
    """One row per grid time, each float its repr, LF line ends."""
    draws = np.random.default_rng(3).normal([1.0, 0.1], [0.2, 0.02], size=(50, 2))
    summary = summarize(draws, np.linspace(0.0, 10.0, 7))
    text = bands_csv(summary)
    assert text.endswith("\n") and "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["t", "mean", "lo", "hi", "cum_mean", "cum_lo", "cum_hi"]
    s = summary
    cols = (s.grid, s.gamma_mean, s.gamma_lo, s.gamma_hi, s.cum_mean, s.cum_lo, s.cum_hi)
    np.testing.assert_array_equal(np.array(rows[1:], dtype=float), np.column_stack(cols))


class TestChainCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        draws = rng.normal(size=(6, 2)) * 10.0 ** rng.integers(-12, 12, size=(6, 2))
        logliks = np.array([-1.0 / 3.0, -np.inf, 1e-300, -745.5, 0.1 + 0.2, -np.inf])
        accepted = np.array([True, False, False, True, True, False])
        chain = Chain(
            draws=draws,
            logliks=logliks,
            accepted=accepted,
            accept_rate=0.5,
            seed=4,
            n_evals=6,
            n_support_rejected=0,
            proposal_sd=np.ones(2),
        )
        out = tmp_path / "chain.csv"
        out.write_bytes(chain_csv(chain).encode("utf-8"))
        back = read_chain_csv(out)
        assert back.shape == draws.shape
        assert back.tobytes() == draws.tobytes()
        rows = list(csv.reader(io.StringIO(chain_csv(chain))))[1:]
        assert np.array([float(r[-2]) for r in rows]).tobytes() == logliks.tobytes()
        assert [r[-1] for r in rows] == ["1", "0", "0", "1", "1", "0"]

    def test_text_is_the_csv_writer_rendering(self, tmp_path):
        """Subnormal, huge, signed-zero and whole-number values are written as
        csv.writer writes the same rows, and read back bit for bit."""
        draws = np.array([[5e-324, -2.5e-310], [1e308, -1e308], [-0.0, 0.0], [3.0, -2.0], [1.0 / 3.0, 1e-5]])
        logliks = np.array([-0.0, -np.inf, -1e308, -12.0, 4e-320])
        accepted = np.array([True, False, True, False, True])
        chain = Chain(
            draws=draws,
            logliks=logliks,
            accepted=accepted,
            accept_rate=0.6,
            seed=4,
            n_evals=5,
            n_support_rejected=0,
            proposal_sd=np.ones(2),
        )
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["iter", "c0", "c1", "loglik", "accepted"])
        for i in range(draws.shape[0]):
            writer.writerow([i, *(repr(float(v)) for v in draws[i]), repr(float(logliks[i])), int(accepted[i])])
        assert chain_csv(chain) == want.getvalue()
        out = tmp_path / "chain.csv"
        out.write_bytes(want.getvalue().encode("utf-8"))
        assert read_chain_csv(str(out)).tobytes() == draws.tobytes()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,abc,0.5,-3.0,1", "line 3"),
            ("1,0.5,0.5,abc,1", "could not convert string to float: 'abc'"),
            ("1,0.5,0.5,-3.0,2", "accepted must be 0 or 1"),
            ("1,0.5,0.5,1", "expected 5 fields, got 4"),
            ("1,0.5,0.5,-3.0,1,7", "expected 5 fields, got 6"),
            ("1,nan,0.5,-3.0,1", "coefficients must be finite"),
            ("1,0.5,-inf,-3.0,1", "coefficients must be finite"),
        ],
    )
    def test_malformed_row_names_its_line(self, tmp_path, row, message):
        """Every field of every row is checked, the loglik too though only
        the draws are returned."""
        chain = tmp_path / "chain.csv"
        chain.write_text("iter,c0,c1,loglik,accepted\n0,1.0,0.1,-3.0,1\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=message) as info:
            read_chain_csv(chain)
        assert "line 3" in str(info.value)


    @pytest.mark.parametrize(
        "text", ["", "time\n0.5\n", "iter,c0,c1,loglik\n0,1.0,0.1,-3.0\n", "c0,c1,loglik,accepted\n1.0,0.1,-3.0,1\n"]
    )
    def test_wrong_header_is_not_a_chain(self, tmp_path, text):
        chain = tmp_path / "chain.csv"
        chain.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match="not a chain CSV"):
            read_chain_csv(chain)

    def test_blank_lines_are_skipped(self, tmp_path):
        chain = tmp_path / "chain.csv"
        chain.write_text("iter,c0,c1,loglik,accepted\n\n0,1.0,0.1,-3.0,1\n\n1,2.0,0.2,-4.0,0\n\n", encoding="utf-8")
        np.testing.assert_array_equal(read_chain_csv(chain), [[1.0, 0.1], [2.0, 0.2]])

    @pytest.mark.parametrize("body", ["", "\n\n"], ids=["header-only", "blank-lines-only"])
    def test_no_draws_is_an_error(self, tmp_path, body):
        chain = tmp_path / "chain.csv"
        chain.write_text("iter,c0,c1,loglik,accepted\n" + body, encoding="utf-8")
        with pytest.raises(ValidationError, match="no draws"):
            read_chain_csv(chain)


class TestSummarize:
    @pytest.mark.parametrize("draws", [np.empty((0, 2)), []], ids=["no-rows", "empty-list"])
    def test_empty_draws_rejected(self, draws):
        with pytest.raises(ValidationError, match="empty chain"):
            summarize(draws, t_grid=[0.0, 1.0])

    def test_bands_are_the_per_draw_quantiles(self):
        """The bands over the grid are the quantiles and means of each draw's
        gamma (eval_many) and Gamma (cum)."""
        rng = np.random.default_rng(8)
        draws = np.column_stack([rng.uniform(0.5, 2.0, 301), rng.normal(0.0, 0.1, 301), rng.normal(0.0, 0.01, 301)])
        ts = np.linspace(0.0, 7.0, 15)
        got = summarize(draws, t_grid=ts)
        gammas = [PolyIntensity(tuple(c)) for c in draws]
        vals = np.array([g.eval_many(ts) for g in gammas])
        cums = np.array([[g.cum(t) for t in ts] for g in gammas])
        np.testing.assert_array_equal(got.grid, ts)
        for band, want in (
            (got.gamma_mean, vals.mean(axis=0)),
            (got.gamma_lo, np.quantile(vals, 0.025, axis=0)),
            (got.gamma_hi, np.quantile(vals, 0.975, axis=0)),
            (got.cum_mean, cums.mean(axis=0)),
            (got.cum_lo, np.quantile(cums, 0.025, axis=0)),
            (got.cum_hi, np.quantile(cums, 0.975, axis=0)),
        ):
            np.testing.assert_allclose(band, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(got.coeff_mean, draws.mean(axis=0))
        np.testing.assert_array_equal(got.coeff_quantiles, np.quantile(draws, [0.025, 0.5, 0.975], axis=0))
