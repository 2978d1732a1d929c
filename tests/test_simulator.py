"""Unit tests for exact simulation and the conditional log-likelihood."""

import math
import re

import numpy as np
import pytest
from scipy import stats

from marcox.errors import ValidationError
from marcox.intensity import PolyIntensity
from marcox.paths import CountPath, ModelParams, load_path
from marcox.simulator import SimResult, _latent_points, conditional_loglik, simulate, simulate_latent


class TestSimulateLatent:
    def test_zero_rate_gives_empty_path(self):
        for seed in range(5):
            assert simulate_latent(PolyIntensity((0.0,)), 2.0, seed).count == 0

    def test_mean_count_constant_rate(self):
        """E[Y(10)] = 20 for rate 2."""
        rng = np.random.default_rng(101)
        counts = [simulate_latent(PolyIntensity((2.0,)), 10.0, rng).count for _ in range(4000)]
        se = np.std(counts) / math.sqrt(len(counts))
        assert np.mean(counts) == pytest.approx(20.0, abs=3 * se)

    def test_mean_count_linear_rate(self):
        """E[Y(1)] = 1 for rate 2t."""
        rng = np.random.default_rng(102)
        counts = [simulate_latent(PolyIntensity((0.0, 2.0)), 1.0, rng).count for _ in range(4000)]
        se = max(np.std(counts) / math.sqrt(len(counts)), 1e-9)
        assert np.mean(counts) == pytest.approx(1.0, abs=3 * se)

    def test_deterministic_given_seed(self):
        a = simulate_latent(PolyIntensity((1.5, 1.0)), 2.0, 77)
        b = simulate_latent(PolyIntensity((1.5, 1.0)), 2.0, 77)
        np.testing.assert_array_equal(a.jumps, b.jumps)


# (gamma, T) with Gamma(T) = 20 or 16 on 4096 paths.  The acceptance
# Gamma(T) / (bound T) is 1 for the constant, 2/3 for the line, 1/3 for
# 30 (t - 1)^2, 1/9 for c t^8, and 2/15 for 1.875 t (4 - t) (t - 2)^2, whose
# double root lies inside [0, T] and whose bound 30 is 4 times its maximum.
LATENT_LAWS = {
    "constant": (PolyIntensity((2.0,)), 10.0),
    "linear": (PolyIntensity((1.0, 0.2)), 10.0),
    "square": (PolyIntensity((30.0, -60.0, 30.0)), 2.0),
    "eighth power": (PolyIntensity((0.0,) * 8 + (0.3515625,)), 2.0),
    "interior double root": (PolyIntensity((0.0, 30.0, -37.5, 15.0, -1.875)), 4.0),
}


class TestLatentPoints:
    """One Monte Carlo chunk of 4096 latent paths against the Poisson law."""

    @pytest.mark.parametrize("gamma, T", LATENT_LAWS.values(), ids=LATENT_LAWS.keys())
    def test_times_follow_gamma(self, gamma, T):
        """Given its count, a Poisson path's points are iid with density
        gamma / Gamma(T), so the pooled Gamma(s_i) / Gamma(T) are uniform.
        The KS threshold 1e-3 holds the five cases' joint false-alarm rate
        at 0.5 %; over 200 seeds the p-values of each case looked uniform."""
        _, times = _latent_points(gamma, T, 4096, np.random.default_rng(301))
        assert np.all(np.diff(times) >= 0.0)
        assert stats.kstest(np.array([gamma.cum(t) for t in times]) / gamma.cum(T), "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("gamma, T", LATENT_LAWS.values(), ids=LATENT_LAWS.keys())
    def test_counts_are_poisson(self, gamma, T):
        """Each path's count is Poisson(Gamma(T)): the mean and the variance
        over the chunk's paths both equal Gamma(T), each within four standard
        errors (Var of the sample variance is (Gamma + 2 Gamma^2) / n)."""
        n, total = 4096, gamma.cum(T)
        rows, _ = _latent_points(gamma, T, n, np.random.default_rng(302))
        counts = np.bincount(rows, minlength=n)
        assert counts.size == n
        assert abs(counts.mean() - total) <= 4.0 * math.sqrt(total / n)
        assert abs(counts.var(ddof=1) - total) <= 4.0 * math.sqrt((total + 2.0 * total**2) / n)

    @pytest.mark.parametrize("rate", [1e19, 1e200])
    def test_mean_past_the_samplers_range_is_a_validation_error(self, rate):
        """A mean count past what ``rng.poisson`` can draw (about 9.2e18) is
        refused, naming the mean.  Means the sampler can draw from about
        1e8 up allocate without bound, so none is tried here."""
        with pytest.raises(ValidationError, match=re.escape(f"mean count {rate!r} is too large")):
            _latent_points(PolyIntensity((rate,)), 1.0, 1, np.random.default_rng(0))


class TestSimulate:
    @pytest.mark.parametrize("beta0", [1e20, 1e200])
    def test_an_observed_count_past_the_samplers_range_is_a_validation_error(self, beta0):
        """beta0 T past what ``rng.poisson`` can draw: the latent draw
        (mean 10) succeeds, and the observed count is refused as a latent
        one is, naming its mean, not with numpy's ValueError."""
        params = ModelParams(beta0=beta0, w=1.0, gamma=PolyIntensity((1.0,)))
        with pytest.raises(ValidationError, match=r"cannot draw the observed events: their mean count .* is too large"):
            simulate(params, 10.0, np.random.default_rng(0))

    def test_degenerate_homogeneous_moments(self):
        """With no latent jumps the observed process is Poisson(beta0 T)."""
        params = ModelParams(beta0=2.0, w=1.0, gamma=PolyIntensity((0.0,)))
        rng = np.random.default_rng(201)
        counts = np.array([simulate(params, 1.0, rng).x.count for _ in range(20000)])
        se_mean = counts.std() / math.sqrt(counts.size)
        assert counts.mean() == pytest.approx(2.0, abs=3 * se_mean)
        assert counts.var() == pytest.approx(2.0, rel=0.1)

    def test_mean_count_unit_case(self):
        """E[X(1)] = w int_0^1 Gamma = 0.5 for gamma = 1, w = 1, beta0 = 0."""
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((1.0,)))
        rng = np.random.default_rng(202)
        counts = np.array([simulate(params, 1.0, rng).x.count for _ in range(20000)])
        se = counts.std() / math.sqrt(counts.size)
        assert counts.mean() == pytest.approx(0.5, abs=3 * se)

    def test_laplace_transform_unit_case(self):
        """E[e^{-X(1)}] = exp{-(1 - (1 - e^{-phi}) / phi)}, phi = 1 - e^{-1}.

        Derived from the Laplace functional of the driving process:
        -log E e^{-theta X(t)} = t - (1 - e^{-phi t}) / phi; cross-checked by
        quadrature of the closed-form density over the event simplex.
        """
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((1.0,)))
        rng = np.random.default_rng(203)
        vals = np.array(
            [math.exp(-simulate(params, 1.0, rng).x.count) for _ in range(30000)]
        )
        phi = 1.0 - math.exp(-1.0)
        target = math.exp(-(1.0 - (1.0 - math.exp(-phi)) / phi))
        se = vals.std() / math.sqrt(vals.size)
        assert vals.mean() == pytest.approx(target, abs=3 * se)

    def test_deterministic_given_seed(self):
        params = ModelParams(beta0=0.5, w=1.0, gamma=PolyIntensity((1.0, 0.5)))
        a = simulate(params, 3.0, seed=5)
        b = simulate(params, 3.0, seed=5)
        np.testing.assert_array_equal(a.x.jumps, b.x.jumps)
        np.testing.assert_array_equal(a.y.jumps, b.y.jumps)

    def test_result_with_mismatched_horizons_rejected(self):
        with pytest.raises(ValueError, match="share the horizon"):
            SimResult(x=load_path([0.5], 1.0), y=load_path([0.5], 2.0))

    def test_paths_share_horizon_and_are_valid(self):
        params = ModelParams(beta0=1.0, w=2.0, gamma=PolyIntensity((2.0,)))
        sim = simulate(params, 2.0, seed=9)
        assert sim.x.T == sim.y.T == 2.0
        if sim.x.count > 1:
            assert np.all(np.diff(sim.x.jumps) > 0)

    def test_latent_driven_over_dispersion(self):
        """Mean and variance of X(T) against Campbell's formula:
        E N = beta0 T + w int (T - s) gamma(s) ds and
        Var N = E N + w^2 int (T - s)^2 gamma(s) ds, each within four of the
        sample's own standard errors."""
        params, T = ModelParams(beta0=1.0, w=0.5, gamma=PolyIntensity((1.0, 0.2))), 10.0
        gamma = np.polynomial.Polynomial(params.gamma.coeffs)
        lag = np.polynomial.Polynomial((T, -1.0))
        mean = params.beta0 * T + params.w * (lag * gamma).integ()(T)
        var = mean + params.w**2 * (lag**2 * gamma).integ()(T)
        assert (mean, var) == pytest.approx((155.0 / 3.0, 530.0 / 3.0), rel=1e-12)
        rng = np.random.default_rng(205)
        counts = np.array([simulate(params, T, rng).x.count for _ in range(20000)], dtype=float)
        dev = counts - counts.mean()
        sample_var = dev @ dev / (counts.size - 1)
        se_mean = math.sqrt(sample_var / counts.size)
        se_var = math.sqrt((np.mean(dev**4) - sample_var**2) / counts.size)
        assert abs(counts.mean() - mean) <= 4.0 * se_mean
        assert abs(sample_var - var) <= 4.0 * se_var

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(beta0=1.0, w=0.5, gamma=PolyIntensity((1.0, 0.2))),
            ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((0.5,))),
            ModelParams(beta0=0.5, w=2.0, gamma=PolyIntensity((0.2, 0.0, 0.05))),
        ],
        ids=["linear", "beta0=0", "quadratic"],
    )
    def test_time_rescaling_given_the_latent_path(self, params):
        """Given Y, X is Poisson with the compensator
        Lambda_Y(t) = beta0 t + w sum_j (t - s_j)_+.  So given Y and the count
        n, the rescaled times Lambda_Y(t_i) / Lambda_Y(T) are the order
        statistics of n iid uniforms, and n is Poisson(Lambda_Y(T)).

        The pooled gaps Lambda_Y(t_i) - Lambda_Y(t_(i-1)) are not tested
        against Exp(1): on a finite window they are not iid Exp(1), since a
        short window cuts off the long gaps.  On the beta0 = 0 windows, gaps
        of a plain unit-rate Poisson process fail that test at p < 0.05 in
        most seeds."""
        rng = np.random.default_rng(206)
        scaled, excess, total = [], 0.0, 0.0
        for _ in range(200):
            sim = simulate(params, 10.0, rng)
            t = np.append(sim.x.jumps, 10.0)
            comp = params.beta0 * t + params.w * np.maximum(t[:, None] - sim.y.jumps, 0.0).sum(axis=1)
            scaled.append(comp[:-1] / comp[-1])
            excess += sim.x.count - comp[-1]
            total += comp[-1]
        scaled = np.concatenate(scaled)
        assert scaled.size > 4000
        assert stats.kstest(scaled, "uniform").pvalue > 0.01
        assert abs(excess) <= 4.0 * math.sqrt(total)

    def test_no_events_before_first_latent_jump_when_baseline_zero(self):
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((0.5,)))
        rng = np.random.default_rng(204)
        for _ in range(200):
            sim = simulate(params, 2.0, rng)
            if sim.x.count:
                assert sim.x.jumps[0] > sim.y.jumps[0]


class TestConditionalLoglik:
    def test_homogeneous_case(self):
        """Empty latent path: density is the Poisson one, 3 log 2 - 2."""
        params = ModelParams(beta0=2.0, w=1.0, gamma=PolyIntensity((0.0,)))
        x = load_path([0.2, 0.4, 0.9], 1.0)
        y = load_path([], 1.0)
        assert conditional_loglik(x, y, params) == pytest.approx(3 * math.log(2) - 2, rel=1e-14)

    def test_survival_only(self):
        """No observed events: -integral of the rate, here -w (T - s_1)."""
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((1.0,)))
        x = load_path([], 1.0)
        y = load_path([0.5], 1.0)
        assert conditional_loglik(x, y, params) == pytest.approx(-0.5, rel=1e-14)

    def test_impossible_path_sentinel(self):
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((1.0,)))
        x = load_path([0.3], 1.0)
        y = load_path([], 1.0)
        assert conditional_loglik(x, y, params) == -math.inf

    def test_tie_uses_left_limit(self):
        """An observed event exactly at a latent jump sees the pre-jump rate."""
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((1.0,)))
        x = load_path([0.5], 1.0)
        y = load_path([0.5], 1.0)
        assert conditional_loglik(x, y, params) == -math.inf  # rate 0 just before
        params2 = ModelParams(beta0=1.0, w=1.0, gamma=PolyIntensity((1.0,)))
        val = conditional_loglik(x, y, params2)
        # rate at 0.5- is beta0 = 1; integral = beta0 T + w (T - 0.5)
        assert val == pytest.approx(math.log(1.0) - (1.0 + 0.5), rel=1e-14)

    def test_integral_term_exact(self):
        params = ModelParams(beta0=0.75, w=1.25, gamma=PolyIntensity((1.0,)))
        x = load_path([], 2.0)
        y = load_path([0.5, 1.5], 2.0)
        expected = -(0.75 * 2.0 + 1.25 * ((2.0 - 0.5) + (2.0 - 1.5)))
        assert conditional_loglik(x, y, params) == pytest.approx(expected, rel=1e-14)

    def test_mismatched_horizons_rejected(self):
        params = ModelParams(beta0=1.0, w=1.0, gamma=PolyIntensity((1.0,)))
        with pytest.raises(ValueError):
            conditional_loglik(load_path([], 1.0), load_path([], 2.0), params)

    def test_mismatched_horizons_are_a_validation_error(self):
        """Like every other input error of the library; it is still a ValueError."""
        params = ModelParams(beta0=1.0, w=1.0, gamma=PolyIntensity((1.0,)))
        with pytest.raises(ValidationError, match="^paths must share the horizon$"):
            conditional_loglik(load_path([], 1.0), load_path([], 2.0), params)
        with pytest.raises(ValidationError, match="share the horizon"):
            SimResult(x=load_path([0.5], 1.0), y=load_path([0.5], 2.0))
