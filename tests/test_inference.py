"""Tests for the Metropolis and maximum-likelihood fitters and the chain CSV."""

import io
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from marcox.errors import ValidationError
from marcox.inference import Chain, FitConfig, mh_fit, mle_fit, read_chain_csv, write_chain_csv
from marcox.intensity import PolyIntensity
from marcox.marginal import MarginalLikelihood, marginal_loglik
from marcox.paths import ModelParams
from marcox.simulator import simulate

BETA0, W = 1.0, 0.5
TRUTH = (1.0, 0.1)


@pytest.fixture(scope="module")
def path():
    x = simulate(ModelParams(BETA0, W, PolyIntensity(TRUTH)), 10.0, seed=11).x
    assert 20 <= x.count <= 120
    return x


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
        """The likelihood does not repeat the nonnegativity check the sampler made."""
        calls = []
        original = PolyIntensity.is_nonneg

        def counting(self, T):
            calls.append(T)
            return original(self, T)

        monkeypatch.setattr(PolyIntensity, "is_nonneg", counting)
        # Wide proposals so that some leave the support.
        cfg = config(3, proposal_sd=0.4, adapt_proposals=False)
        chain = mh_fit(path, (BETA0, W), cfg)
        assert chain.n_support_rejected > 0
        assert len(calls) == cfg.iters + 1  # the start, then one per proposal


# The fitting regime (beta0 = 1, w = 0.5, gamma = 1 + 0.1 t, T = 15): seeds
# whose simulated path has exactly M = 80 events.  The optimum of 386, 463,
# 631 and 695 lies on the boundary of the support, at c_0 = 0.
FIT_SEEDS = (40, 141, 176, 386, 392, 449, 463, 501, 631, 695)
BOUNDARY_SEEDS = (386, 463, 631, 695)


def fit_path(seed):
    x = simulate(ModelParams(BETA0, W, PolyIntensity(TRUTH)), 15.0, seed=seed).x
    assert x.count == 80
    return x


def nelder_mead_best(x, start, maxfev=2000):
    """Best log-likelihood of a long -inf-barrier Nelder-Mead run."""
    lik = MarginalLikelihood(x, BETA0, W, len(start) - 1)

    def objective(coeffs):
        if not PolyIntensity(tuple(coeffs)).is_nonneg(x.T):
            return math.inf
        return -lik.loglik(coeffs).loglik

    opts = {"maxfev": maxfev, "xatol": 1e-9, "fatol": 1e-9}
    return -minimize(objective, np.asarray(start, float), method="Nelder-Mead", options=opts).fun


class TestMleFit:
    @pytest.mark.parametrize("seed", FIT_SEEDS)
    def test_reaches_long_nelder_mead_optimum(self, seed):
        x = fit_path(seed)
        res = mle_fit(x, (BETA0, W), degree=1, start=TRUTH, budget=100)
        assert res.converged
        assert res.n_evals <= 20
        assert res.loglik >= nelder_mead_best(x, TRUTH) - 1e-6
        gamma = PolyIntensity(tuple(res.coeffs))
        assert gamma.is_nonneg(x.T)
        if seed in BOUNDARY_SEEDS:
            assert abs(res.coeffs[0]) < 1e-9

    def test_degree_two(self):
        truth = (0.5, 0.1, 0.02)
        x = simulate(ModelParams(BETA0, W, PolyIntensity(truth)), 10.0, seed=1).x
        assert 30 <= x.count <= 120
        res = mle_fit(x, (BETA0, W), degree=2, start=truth, budget=200)
        assert res.converged and res.coeffs.shape == (3,)
        assert PolyIntensity(tuple(res.coeffs)).is_nonneg(x.T)
        assert res.loglik >= nelder_mead_best(x, truth) - 1e-6
        params = ModelParams(BETA0, W, PolyIntensity(tuple(res.coeffs)))
        assert marginal_loglik(x, params).loglik == res.loglik

    def test_points_outside_the_support_cost_no_pass(self, monkeypatch):
        """SLSQP may step a rounding error past c_0 = 0; such points score +inf
        without a likelihood pass and do not count toward the budget."""
        rejected, passes = [], []
        in_support, loglik_grad = MarginalLikelihood.in_support, MarginalLikelihood.loglik_grad

        def checking(self, coeffs):
            ok = in_support(self, coeffs)
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
        assert res.n_evals == len(passes)
        assert not any(np.array_equal(r, p) for r in rejected for p in passes)

    def test_budget_stops_the_fit(self, path):
        res = mle_fit(path, (BETA0, W), degree=1, start=TRUTH, budget=3)
        start = marginal_loglik(path, ModelParams(BETA0, W, PolyIntensity(TRUTH))).loglik
        assert res.n_evals == 3 and not res.converged
        assert res.loglik >= start

    @pytest.mark.parametrize("budget", [15, 60])
    def test_never_below_start_and_within_budget(self, path, budget):
        res = mle_fit(path, (BETA0, W), degree=1, start=TRUTH, budget=budget)
        start = marginal_loglik(path, ModelParams(BETA0, W, PolyIntensity(TRUTH))).loglik
        assert res.loglik >= start
        assert res.n_evals <= budget
        best = marginal_loglik(path, ModelParams(BETA0, W, PolyIntensity(tuple(res.coeffs))))
        assert best.loglik == res.loglik

    def test_budget_below_one_rejected(self, path):
        with pytest.raises(ValidationError, match="budget"):
            mle_fit(path, (BETA0, W), degree=1, start=TRUTH, budget=0)


class TestChainCsv:
    def test_roundtrip_is_exact(self):
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
        buf = io.StringIO()
        write_chain_csv(buf, chain)
        buf.seek(0)
        back = read_chain_csv(buf)
        assert back.draws.tobytes() == draws.tobytes()
        assert back.logliks.tobytes() == logliks.tobytes()
        np.testing.assert_array_equal(back.accepted, accepted)
        assert back.accept_rate == 0.5

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,abc,0.5,-3.0,1", "line 3"),
            ("1,0.5,0.5,-3.0,2", "accepted must be 0 or 1"),
            ("1,0.5,0.5,1", "expected 5 fields, got 4"),
            ("1,0.5,0.5,-3.0,1,7", "expected 5 fields, got 6"),
        ],
    )
    def test_malformed_row_names_its_line(self, row, message):
        text = "iter,c0,c1,loglik,accepted\n0,1.0,0.1,-3.0,1\n" + row + "\n"
        with pytest.raises(ValidationError, match=message) as info:
            read_chain_csv(io.StringIO(text))
        assert "line 3" in str(info.value)
