"""Tests for the Metropolis and maximum-likelihood fitters."""

import numpy as np
import pytest

from marcox.inference import FitConfig, mh_fit, mle_fit
from marcox.intensity import PolyIntensity
from marcox.marginal import marginal_loglik
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


class TestMleFit:
    @pytest.mark.parametrize("budget", [15, 60])
    def test_never_below_start_and_within_budget(self, path, budget):
        res = mle_fit(path, (BETA0, W), degree=1, start=TRUTH, budget=budget)
        start = marginal_loglik(path, ModelParams(BETA0, W, PolyIntensity(TRUTH))).loglik
        assert res.loglik >= start
        assert res.n_evals <= budget
        best = marginal_loglik(path, ModelParams(BETA0, W, PolyIntensity(tuple(res.coeffs))))
        assert best.loglik == res.loglik
